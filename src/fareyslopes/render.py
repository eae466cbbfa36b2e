"""SVG rendering: tessellations and diagrams in the disc, trees, coasters.

Fractions sit on the unit circle via the rational parametrization
p/q -> ((2pq)/(p^2+q^2), (p^2-q^2)/(q^2+p^2)), which puts 1/0 at the top and
increases anticlockwise; geodesics are circular arcs orthogonal to the
boundary (diameters when the endpoints are antipodal).  All floats are
formatted to six places so output bytes are reproducible.  JSON stays the
machine interface elsewhere; floats live only here.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

from .errors import UnsupportedObject
from .exact import ReducedFraction, Value
from .farey import FareyDiagram, FareyTree, FareyTriangle, RollerCoaster, TreeNode

__all__ = ["RenderSpec", "render_svg"]

_DEFAULT_STYLE = {
    "stroke": "#30343f",
    "stroke_width": 0.008,
    "boundary": "#888888",
    "highlight_fill": "#f2a65e",
    "highlight_opacity": 0.55,
    "accent": "#b03a48",
    "background": "#ffffff",
}


class RenderSpec(Value):
    """How to draw and how big; ``style`` overrides the default palette.

    ``model`` (the disc or the upper half plane) and ``highlight`` (a diagram
    whose triangles are filled) apply to tessellations; diagrams, trees and
    roller coasters are drawn in their own frames.  Only the disc draws a
    highlight, and only tessellations can be drawn in the upper half plane.
    """

    __slots__ = ("model", "highlight", "size_px", "style")

    def __init__(self, model: str = "disc", highlight: Optional[FareyDiagram] = None, size_px: int = 600,
                 style: Optional[dict] = None):
        if model not in ("disc", "upper_half"):
            raise ValueError("model must be 'disc' or 'upper_half'")
        if model == "upper_half" and highlight is not None:
            raise ValueError("the upper half plane model draws no highlight")
        if size_px < 64:
            raise ValueError("size_px must be >= 64")
        merged = dict(_DEFAULT_STYLE)
        merged.update(style or {})
        self._init(model, highlight, size_px, merged)


def _fmt(v: float) -> str:
    # shortest round-trip repr: deterministic, and parsed parameters satisfy
    # the geometric identities to float precision even for the tiniest arcs
    out = repr(float(v))
    return "0.0" if out == "-0.0" else out


def _circle_point(fr: ReducedFraction) -> Tuple[float, float]:
    """Exact rational point of p/q on the unit circle (1/0 at the top)."""
    p, q = fr.p, fr.q
    s = p * p + q * q
    return (2 * p * q / s, (p * p - q * q) / s)


def _svg_xy(pt: Tuple[float, float]) -> Tuple[float, float]:
    # flip y so "top" in mathematical coordinates is top on screen
    return (pt[0], -pt[1])


def _disc_arc(a: ReducedFraction, b: ReducedFraction) -> Tuple[str, Optional[Tuple[float, float]]]:
    """Path continuation from a's point to b's point (no leading M), and the
    arc's circle centre in SVG coordinates (None for a diameter)."""
    A, B = _circle_point(a), _circle_point(b)
    bx, by = _svg_xy(B)
    dot = A[0] * B[0] + A[1] * B[1]
    if abs(1 + dot) < 1e-12:
        return f"L {_fmt(bx)} {_fmt(by)}", None
    cx, cy = (A[0] + B[0]) / (1 + dot), (A[1] + B[1]) / (1 + dot)
    r = math.sqrt(cx * cx + cy * cy - 1)
    sweep = 1 if (A[0] - cx) * (B[1] - cy) - (A[1] - cy) * (B[0] - cx) < 0 else 0
    return f"A {_fmt(r)} {_fmt(r)} 0 0 {sweep} {_fmt(bx)} {_fmt(by)}", _svg_xy((cx, cy))


def _disc_edge(a: ReducedFraction, b: ReducedFraction, style: dict, cls: str) -> str:
    """One geodesic as an SVG path, with its circle centre in data attrs."""
    ax, ay = _svg_xy(_circle_point(a))
    segment, centre = _disc_arc(a, b)
    common = (
        f'class="{cls}" fill="none" stroke="{style["stroke"]}" '
        f'stroke-width="{_fmt(style["stroke_width"])}"'
    )
    if centre is None:
        return f'<path d="M {_fmt(ax)} {_fmt(ay)} {segment}" data-kind="diameter" {common}/>'
    return (
        f'<path d="M {_fmt(ax)} {_fmt(ay)} {segment}" data-kind="arc" '
        f'data-cx="{_fmt(centre[0])}" data-cy="{_fmt(centre[1])}" {common}/>'
    )


def _disc_triangle(tri: FareyTriangle, style: dict) -> str:
    u, v, w = tri.vertices
    ux, uy = _svg_xy(_circle_point(u))
    d = " ".join(
        [
            f"M {_fmt(ux)} {_fmt(uy)}",
            _disc_arc(u, v)[0],
            _disc_arc(v, w)[0],
            _disc_arc(w, u)[0],
            "Z",
        ]
    )
    return (
        f'<path d="{d}" class="face" fill="{style["highlight_fill"]}" '
        f'fill-opacity="{_fmt(style["highlight_opacity"])}" stroke="none"/>'
    )


def _svg_document(body: List[str], size_px: int, viewbox: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size_px}" '
        f'height="{size_px}" viewBox="{viewbox}">'
    )
    return "\n".join([head, *body, "</svg>"])


# --------------------------------------------------------------------------
# tessellation and diagrams


def _tessellation_edges(depth: int):
    """Fence of ideal triangles (k, k+1, 1/0) for k = -2..2, plus depth-1 mediant levels."""
    edges = []
    inf = ReducedFraction(1, 0)
    for k in range(-2, 4):
        edges.append((ReducedFraction(k, 1), inf))
    for k in range(-2, 3):
        edges.append((ReducedFraction(k, 1), ReducedFraction(k + 1, 1)))

    def subdivide(a: ReducedFraction, b: ReducedFraction, levels: int):
        if levels == 0:
            return
        m = a.mediant(b)
        edges.append((a, m))
        edges.append((m, b))
        subdivide(a, m, levels - 1)
        subdivide(m, b, levels - 1)

    for k in range(-2, 3):
        subdivide(ReducedFraction(k, 1), ReducedFraction(k + 1, 1), depth - 1)
    return edges


def _render_tessellation(spec: RenderSpec, depth: int) -> str:
    if spec.model == "upper_half":
        return _render_upper_half(spec, depth)
    highlight = spec.highlight.triangles if spec.highlight is not None else ()
    return _render_disc(
        spec, [tri for tri, _kind in highlight], _tessellation_edges(depth)
    )


def _render_diagram(spec: RenderSpec, diagram: FareyDiagram) -> str:
    triangles = [tri for tri, _kind in diagram.triangles]
    edges = {}  # first-seen order, each geodesic once whichever way it runs
    for u, v, w in (tri.vertices for tri in triangles):
        for a, b in ((u, v), (v, w), (w, u)):
            edges.setdefault(frozenset(((a.p, a.q), (b.p, b.q))), (a, b))
    return _render_disc(spec, triangles, list(edges.values()))


def _render_disc(
    spec: RenderSpec,
    triangles: Sequence[FareyTriangle],
    edges: Sequence[Tuple[ReducedFraction, ReducedFraction]],
) -> str:
    """Filled faces under geodesic edges in the disc, then its boundary."""
    style = spec.style
    body = [
        f'<rect x="-1.1" y="-1.1" width="2.2" height="2.2" '
        f'fill="{style["background"]}"/>',
        *(_disc_triangle(tri, style) for tri in triangles),
        *(_disc_edge(a, b, style, "geodesic") for a, b in edges),
        f'<circle cx="0" cy="0" r="1" fill="none" stroke="{style["boundary"]}" '
        f'stroke-width="{_fmt(style["stroke_width"])}"/>',
    ]
    return _svg_document(body, spec.size_px, "-1.1 -1.1 2.2 2.2")


def _render_upper_half(spec: RenderSpec, depth: int) -> str:
    """Same fence in the upper half plane: semicircles plus verticals."""
    style = spec.style
    top = 2.5
    body = [
        f'<rect x="-2.6" y="-{_fmt(top)}" width="6.4" height="{_fmt(top + 0.2)}" '
        f'fill="{style["background"]}"/>',
    ]
    sw = style["stroke_width"] * 2
    for a, b in _tessellation_edges(depth):
        if a.is_infinite or b.is_infinite:
            x = float(b if a.is_infinite else a)
            body.append(
                f'<path d="M {_fmt(x)} 0 L {_fmt(x)} -{_fmt(top)}" '
                f'data-kind="vertical" fill="none" stroke="{style["stroke"]}" '
                f'stroke-width="{_fmt(sw)}"/>'
            )
        else:
            xa, xb = sorted((float(a), float(b)))
            r = (xb - xa) / 2
            body.append(
                f'<path d="M {_fmt(xa)} 0 A {_fmt(r)} {_fmt(r)} 0 0 1 '
                f'{_fmt(xb)} 0" data-kind="semicircle" fill="none" '
                f'stroke="{style["stroke"]}" stroke-width="{_fmt(sw)}"/>'
            )
    body.append(
        f'<path d="M -2.6 0 L 3.8 0" fill="none" stroke="{style["boundary"]}" '
        f'stroke-width="{_fmt(sw)}"/>'
    )
    return _svg_document(body, spec.size_px, "-2.6 -2.6 6.4 2.7")


# --------------------------------------------------------------------------
# trees and roller coasters


def _render_tree(spec: RenderSpec, tree: FareyTree) -> str:
    style = spec.style
    positions: dict = {}
    cursor = [0.0]

    def place(node: TreeNode, depth: int):
        if node.children:
            for child in node.children:
                place(child, depth + 1)
            xs = [positions[id(c)][0] for c in node.children]
            x = sum(xs) / len(xs)
        else:
            x = cursor[0]
            cursor[0] += 1.0
        positions[id(node)] = (x, float(depth))

    place(tree.root, 0)
    width = max(cursor[0] - 1.0, 1.0)
    lines: List[str] = []
    nodes: List[str] = []

    def draw(node: TreeNode):
        x, y = positions[id(node)]
        for child in node.children:
            cx, cy = positions[id(child)]
            lines.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(cx)}" '
                f'y2="{_fmt(cy)}" stroke="{style["stroke"]}" '
                f'stroke-width="0.02"/>'
            )
            draw(child)
        nodes.append(
            f'<g><circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="0.14" '
            f'fill="{style["background"]}" stroke="{style["stroke"]}" '
            f'stroke-width="0.02"/>'
            f'<text x="{_fmt(x)}" y="{_fmt(y + 0.04)}" font-size="0.11" '
            f'text-anchor="middle" fill="{style["stroke"]}">{node.fraction}</text></g>'
        )

    draw(tree.root)
    depth_span = float(tree.depth) if tree.depth else 1.0
    body = [
        f'<rect x="-0.5" y="-0.5" width="{_fmt(width + 1.0)}" '
        f'height="{_fmt(depth_span + 1.0)}" fill="{style["background"]}"/>',
        *lines,
        *nodes,
    ]
    viewbox = f"-0.5 -0.5 {_fmt(width + 1.0)} {_fmt(depth_span + 1.0)}"
    return _svg_document(body, spec.size_px, viewbox)


def _render_coaster(spec: RenderSpec, rc: RollerCoaster) -> str:
    """Lattice picture: p/q at the point (q, p), fan line of slope theta."""
    style = spec.style
    pts = [(v.q, v.p) for v in rc.vertices if not v.is_infinite]
    if not pts:
        raise UnsupportedObject("roller coaster has no finite vertices")
    max_q = max(q for q, _ in pts)
    max_p = max(p for _, p in pts)
    span = max(max_q, max_p) + 1
    theta_val = rc.theta.approx()

    def sxy(q: float, p: float) -> Tuple[float, float]:
        return (q, -p)

    body = [
        f'<rect x="-1" y="-{_fmt(span + 1)}" width="{_fmt(span + 2)}" '
        f'height="{_fmt(span + 2)}" fill="{style["background"]}"/>',
    ]
    for gq in range(0, span + 1):
        x, y0 = sxy(gq, 0)
        _, y1 = sxy(gq, span)
        body.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y0)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(y1)}" stroke="#dddddd" stroke-width="0.02"/>'
        )
    for gp in range(0, span + 1):
        x0, y = sxy(0, gp)
        body.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y)}" x2="{_fmt(span)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="0.02"/>'
        )
    fx, fy = sxy(span, theta_val * span)
    body.append(
        f'<line x1="0" y1="0" x2="{_fmt(fx)}" y2="{_fmt(fy)}" '
        f'stroke="{style["accent"]}" stroke-width="0.04" '
        f'stroke-dasharray="0.15 0.1" data-kind="fan"/>'
    )
    path = " ".join(
        ("M" if i == 0 else "L") + f" {_fmt(q)} {_fmt(-p)}"
        for i, (q, p) in enumerate(pts)
    )
    body.append(
        f'<path d="{path}" fill="none" stroke="{style["stroke"]}" '
        f'stroke-width="0.05" data-kind="coaster"/>'
    )
    for (q, p) in pts:
        body.append(
            f'<circle cx="{_fmt(q)}" cy="{_fmt(-p)}" r="0.1" '
            f'fill="{style["accent"]}"/>'
        )
    viewbox = f"-1 -{_fmt(span + 1)} {_fmt(span + 2)} {_fmt(span + 2)}"
    return _svg_document(body, spec.size_px, viewbox)


# --------------------------------------------------------------------------
# entry point


def render_svg(
    spec: RenderSpec,
    obj: Union[int, FareyDiagram, FareyTree, RollerCoaster],
) -> str:
    """Render a tessellation depth, diagram, tree, or coaster to SVG text."""
    if isinstance(obj, bool):
        raise UnsupportedObject("cannot render a boolean")
    if isinstance(obj, int):
        if obj < 1:
            raise ValueError("tessellation depth must be >= 1")
        return _render_tessellation(spec, obj)
    if spec.model == "upper_half":
        raise ValueError("the upper half plane model draws tessellations only")
    if isinstance(obj, FareyDiagram):
        return _render_diagram(spec, obj)
    if isinstance(obj, FareyTree):
        return _render_tree(spec, obj)
    if isinstance(obj, RollerCoaster):
        return _render_coaster(spec, obj)
    raise UnsupportedObject(f"cannot render {type(obj).__name__}")
