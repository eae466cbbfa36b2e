"""End-to-end acceptance suite: one test per numbered criterion.

Each test prints a single PASS line with its elapsed time and pinned budget;
a failure anywhere in the body fails that criterion's line.  Heavy sweeps use
fixed seeds so reruns are bit-stable.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from fareyslopes.cfrac import EventuallyPeriodic
from fareyslopes.division import beads, divide, division_points, root_interval, ses_check
from fareyslopes.exact import INFINITY, ReducedFraction as F
from fareyslopes.farey import (
    bottom,
    cutting_sequence,
    farey_diagram,
    roller_coaster,
    slope_lt,
    theta_product,
)
from fareyslopes.invariants import (
    Stabilized,
    c_theta,
    construct_special_theta,
    d_chain,
    special_conditions_hold,
)
from fareyslopes.render import RenderSpec, render_svg
from fareyslopes.sheaves import (
    MINUS,
    LimitObjectDescriptor,
    StableClass,
    chi_pair,
    endo_dim_bound,
    enumerate_minimal_triangles,
    hom_ext_dims,
    kclass_colimit_check,
)

from _oracles import (
    boundary_lattice_points,
    cutting_runs_expected,
    game_rest_positions,
    interior_lattice_points,
    mediant_generated_triangles,
    pair_scan_triangles,
    random_theta,
    simplest_between,
)
from test_render import orthogonality_worst

golden = EventuallyPeriodic((1,), (1,))


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"criterion {number:2d}: PASS in {elapsed:5.2f}s (budget {budget_s:3d}s) - {label}")


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_criterion_01_golden_ratio_suite():
    with criterion(1, "golden-ratio convergents, cutting, c, endo bound", 1):
        for i in range(16):
            assert golden.convergent(i) == F(_fib(i + 2), _fib(i + 1))
        cut = cutting_sequence(golden, 15)
        assert cut.runs == tuple(("L" if i % 2 == 0 else "R", 1) for i in range(15))
        report = c_theta(golden)
        assert report.status == Stabilized(1)
        assert set(report.chain()) == {1}
        assert endo_dim_bound(LimitObjectDescriptor(golden, MINUS)).bound == 1


def test_criterion_02_minimal_triangle_bijection():
    with criterion(2, "rank-30 triangle set equals the mediant tree + Pick scan", 30):
        enum = enumerate_minimal_triangles(30)
        got = {(e.slope(), f.slope(), g.slope()) for e, f, g in enum}
        assert got == mediant_generated_triangles(30, 30)
        assert enum == pair_scan_triangles(30, 30)
        assert len(got) == len(enum)  # no duplicates
        for e, f, g in enum:
            v1, v2 = e.vector(), g.vector()
            assert interior_lattice_points(v1, v2) == 0
            assert boundary_lattice_points(v1, v2) == 0
            assert (f.vector() == (v1[0] + v2[0], v1[1] + v2[1]))


def _random_stable(rng):
    if rng.random() < 0.08:
        return StableClass(rng.randint(1, 6), 0)
    while True:
        d, r = rng.randint(-15, 15), rng.randint(1, 12)
        if math.gcd(abs(d), r) == 1:
            return StableClass(d, r)


def test_criterion_03_dimension_calculus():
    with criterion(3, "hom/ext vs chi on 1000 pairs + spot values", 5):
        rng = random.Random(103)
        done = 0
        while done < 1000:
            a, b = _random_stable(rng), _random_stable(rng)
            if a.is_torsion and b.is_torsion:
                continue
            hom, ext = hom_ext_dims(a, b)
            chi = chi_pair(a.vector(), b.vector())
            assert hom - ext == chi
            if a.slope() > b.slope():
                assert hom.is_zero()
            else:
                assert ext.is_zero()
            done += 1
        for n in range(0, 8):
            hom, ext = hom_ext_dims(StableClass(0, 1), StableClass(n, 1))
            assert (hom.dim, hom.ht) == (n, 1) and ext.is_zero()
        for m in range(1, 8):
            hom, ext = hom_ext_dims(StableClass(0, 1), StableClass(m, 0))
            assert (hom.dim, hom.ht) == (m, 0) and ext.is_zero()


def test_criterion_04_kclass_telescoping():
    with criterion(4, "K-class partial sums for 50 random slopes to depth 20", 5):
        rng = random.Random(104)
        for _ in range(50):
            assert kclass_colimit_check(random_theta(rng), 20).all_ok


def test_criterion_05_bounded_quotient_bound():
    with criterion(5, "endo bound lies in {1,4} for 100 slopes with digits 1,2", 5):
        rng = random.Random(105)
        for _ in range(100):
            seq = tuple(rng.choice((1, 2)) for _ in range(40))
            theta = EventuallyPeriodic(seq[:1], seq[1:])
            report = endo_dim_bound(LimitObjectDescriptor(theta, MINUS), budget=256)
            assert report.stabilized and report.c <= 2
            assert report.bound in (1, 4)
            assert report.bounded_by_two is True
            assert report.dim_candidates == (1, 2, 4)


def _random_slope(rng):
    if rng.random() < 0.1:
        return INFINITY
    return F(rng.randint(-6, 9), rng.randint(1, 6))


def test_criterion_06_bottom_and_product_oracles():
    with criterion(6, "bottom sweep on 200 pairs, product laws on 200 triples", 60):
        rng = random.Random(106)
        done = 0
        while done < 200:
            t1, t2 = random_theta(rng), random_theta(rng)
            if t1 == t2:
                continue
            if not slope_lt(t1, t2):
                t1, t2 = t2, t1
            assert bottom(t1, t2) == simplest_between(t1, t2)
            done += 1
        done = 0
        while done < 200:
            theta = random_theta(rng)
            a, b, c = (_random_slope(rng) for _ in range(3))
            ab = theta_product(a, b, theta)
            assert ab == theta_product(b, a, theta)
            assert theta_product(ab, c, theta) == theta_product(
                a, theta_product(b, c, theta), theta
            )
            assert theta_product(a, a, theta) == a
            if a != b and not (isinstance(ab, F) and ab in (a, b)):
                d1 = farey_diagram(theta, a, 20)
                d2 = farey_diagram(theta, b, 20)
                common = d1.triangle_keys() & d2.triangle_keys()
                walk = [tri for tri, _ in farey_diagram(theta, ab, 20).triangles]
                assert common == {frozenset(t.vertices) for t in walk[: len(common)]}
            done += 1


def test_criterion_07_division_suite():
    with criterion(7, "interval-division additivity, density, SES, level game", 120):
        rng = random.Random(107)
        thetas = [golden, EventuallyPeriodic((1,), (2,))]
        while len(thetas) < 10:
            t = random_theta(rng)
            if t not in thetas:
                thetas.append(t)

        for theta in thetas[:3]:
            r = theta.convergent(1)
            level = [root_interval(theta, r)]
            for _ in range(12):
                nxt = []
                for iv in level:
                    L, R = divide(iv)
                    assert L.length() + R.length() == iv.length()
                    assert L.a == iv.a and R.b == iv.b and L.b == R.a
                    nxt += (L, R)
                level = nxt

        for theta in thetas[:3]:
            r = theta.convergent(1)
            prev_gap = None
            for depth in range(1, 11):
                pts = division_points(theta, r, depth)
                vals = [p.value() for p in pts]
                assert vals == sorted(vals)
                gap = max(b - a for a, b in zip(vals, vals[1:]))
                if prev_gap is not None:
                    assert gap <= prev_gap + 1e-15
                prev_gap = gap
            lo, hi = theta.approx(30), theta.approx(60)
            for p in division_points(theta, r, 8):
                assert abs((p.m * lo + p.n) - (p.m * hi + p.n)) < 1e-9

        for theta in thetas:
            r = theta.convergent(1)
            pts = division_points(theta, r, 6)
            for c, e, d in itertools.combinations(pts, 3):
                assert ses_check(theta, r, c, e, d).passed

        for theta in thetas[:3]:
            r = theta.convergent(1)
            pts8 = division_points(theta, r, 8)
            for _ in range(40):
                i = rng.randrange(len(pts8) - 1)
                j = rng.randrange(i + 1, len(pts8))
                c, d = pts8[i], pts8[j]
                want = beads(theta, r, c, d).labels
                assert game_rest_positions(theta, r, c, d, 8) == want


def test_criterion_08_special_constructor():
    with criterion(8, "constructed slopes satisfy both conditions, chains grow", 10):
        for seed in ((1, 1, 2), (0, 2, 3), (2, 1, 1), (1, 3, 10), (3, 2, 5)):
            theta = construct_special_theta(*seed, depth=4)
            assert special_conditions_hold(theta)
            dc = d_chain(theta, 5)
            assert all(y > x for x, y in zip(dc, dc[1:]))
            assert all(y % x == 0 for x, y in zip(dc, dc[1:]))
            cc = c_theta(theta, budget=theta.available_depth()).chain()
            assert all(y > x for x, y in zip(cc, cc[1:]))
            assert len(cc) >= 4


def test_criterion_09_cutting_calibration():
    with criterion(9, "run lengths equal partial quotients for 100 slopes", 10):
        rng = random.Random(109)
        for _ in range(100):
            theta = random_theta(rng)
            assert cutting_sequence(theta, 15).runs == cutting_runs_expected(theta, 15)


def test_criterion_10_renderer():
    with criterion(10, "geodesics orthogonal to the boundary, stable bytes", 5):
        svg = render_svg(RenderSpec(), 6)
        worst, count = orthogonality_worst(svg)
        assert count > 300 and worst < 1e-6
        assert render_svg(RenderSpec(), 6) == svg
        diag = farey_diagram(golden, F(1, 0), 6)
        svg_d = render_svg(RenderSpec(), diag)
        worst_d, _ = orthogonality_worst(svg_d)
        assert worst_d < 1e-6
        assert render_svg(RenderSpec(), diag) == svg_d
        rc = roller_coaster(golden, 3)
        assert render_svg(RenderSpec(), rc) == render_svg(RenderSpec(), rc)
