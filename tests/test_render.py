import math
import re

import pytest

from fareyslopes.cfrac import EventuallyPeriodic
from fareyslopes.errors import UnsupportedObject
from fareyslopes.exact import ReducedFraction as F
from fareyslopes.farey import farey_diagram, farey_tree, roller_coaster
from fareyslopes.render import RenderSpec, render_svg

golden = EventuallyPeriodic((1,), (1,))

ARC = re.compile(
    r'<path d="M ([-+0-9.eE]+) ([-+0-9.eE]+) A ([-+0-9.eE]+) [\d.]+ 0 0 [01] '
    r'([-+0-9.eE]+) ([-+0-9.eE]+)" data-kind="arc" data-cx="([-+0-9.eE]+)" '
    r'data-cy="([-+0-9.eE]+)"'
)
DIAM = re.compile(
    r'<path d="M ([-+0-9.eE]+) ([-+0-9.eE]+) L ([-+0-9.eE]+) ([-+0-9.eE]+)"'
    r' data-kind="diameter"'
)


def orthogonality_worst(svg):
    """Worst deviation of any drawn geodesic from meeting the boundary circle
    at a right angle, as a dimensionless cosine / relative radius defect."""
    worst = 0.0
    n = 0
    for m in ARC.finditer(svg):
        ax, ay, r, bx, by, cx, cy = (float(g) for g in m.groups())
        for px, py in ((ax, ay), (bx, by)):
            norm = math.hypot(px, py) * math.hypot(px - cx, py - cy)
            worst = max(worst, abs(px * (px - cx) + py * (py - cy)) / norm)
        worst = max(worst, abs(math.hypot(ax - cx, ay - cy) - r) / r)
        n += 1
    for m in DIAM.finditer(svg):
        ax, ay, bx, by = (float(g) for g in m.groups())
        worst = max(worst, abs(ax * by - ay * bx))
        n += 1
    return worst, n


def _disk_point(fr):
    s = fr.p * fr.p + fr.q * fr.q
    return (2 * fr.p * fr.q / s, -(fr.p * fr.p - fr.q * fr.q) / s)


def test_depth_one_fence():
    svg1 = render_svg(RenderSpec(), 1)
    pt = {str(fr): _disk_point(fr) for fr in (F(0, 1), F(1, 1), F(1, 0))}
    assert f'{pt["1/0"][0]!r} {pt["1/0"][1]!r}' == "0.0 -1.0"
    for a, b in (("0/1", "1/1"), ("0/1", "1/0"), ("1/1", "1/0")):
        pa, pb = pt[a], pt[b]
        assert (
            f"M {pa[0]!r} {pa[1]!r}" in svg1 or f"M {pb[0]!r} {pb[1]!r}" in svg1
        )
    assert 'data-kind="diameter"' in svg1
    w, n = orthogonality_worst(svg1)
    assert n >= 10
    assert w < 1e-6


def test_depth_six_tessellation():
    svg6 = render_svg(RenderSpec(), 6)
    w6, n6 = orthogonality_worst(svg6)
    assert n6 > 300
    assert w6 < 1e-6
    assert render_svg(RenderSpec(), 6) == svg6


def test_highlighted_diagram_overlay():
    diag = farey_diagram(golden, F(1, 0), 6)
    svg_h = render_svg(RenderSpec(highlight=diag), 6)
    assert svg_h.count('class="face"') == len(diag.triangles)
    wh, _ = orthogonality_worst(svg_h)
    assert wh < 1e-6


def test_direct_diagram_render():
    diag = farey_diagram(golden, F(1, 0), 6)
    svg_d = render_svg(RenderSpec(), diag)
    assert 'class="face"' in svg_d and 'data-kind="arc"' in svg_d
    wd, _ = orthogonality_worst(svg_d)
    assert wd < 1e-6


def test_tree_render():
    tree = farey_tree(golden, F(2, 1), 3)
    svg_t = render_svg(RenderSpec(), tree)
    assert "<text" in svg_t
    assert svg_t.count("<circle") >= 7


def test_coaster_render():
    rc = roller_coaster(golden, 3)
    svg_c = render_svg(RenderSpec(), rc)
    assert 'data-kind="fan"' in svg_c and 'data-kind="coaster"' in svg_c
    assert render_svg(RenderSpec(), rc) == svg_c


def test_upper_half_model():
    svg_u = render_svg(RenderSpec(model="upper_half"), 3)
    assert 'data-kind="semicircle"' in svg_u
    assert 'data-kind="vertical"' in svg_u


def test_upper_half_model_draws_only_plain_tessellations():
    diag = farey_diagram(golden, F(2, 1), 3)
    with pytest.raises(ValueError, match="^the upper half plane model draws no highlight$"):
        RenderSpec(model="upper_half", highlight=diag)
    spec = RenderSpec(model="upper_half")
    for obj in (diag, farey_tree(golden, F(2, 1), 2), roller_coaster(golden, 2)):
        with pytest.raises(ValueError, match="^the upper half plane model draws tessellations only$"):
            render_svg(spec, obj)


def test_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(model="poincare")
    with pytest.raises(ValueError, match="^tessellation depth must be >= 1$"):
        render_svg(RenderSpec(), 0)
    with pytest.raises(ValueError):
        RenderSpec(size_px=32)


def test_unsupported_objects():
    with pytest.raises(UnsupportedObject):
        render_svg(RenderSpec(), "nonsense")
    with pytest.raises(UnsupportedObject):
        render_svg(RenderSpec(), True)
