import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fareyslopes.cfrac import EventuallyPeriodic, FinitePrefix
from fareyslopes.errors import NoPath, PrecisionExhausted
from fareyslopes.exact import INFINITY, ReducedFraction as F
from fareyslopes.farey import (
    FareyTriangle,
    _base_edge,
    bottom,
    cutting_sequence,
    farey_diagram,
    farey_tree,
    is_farey_geodesic,
    left_right_vertices,
    roller_coaster,
    shortest_path_bundle,
    slope_lt,
    theta_product,
)
from fareyslopes.lattice import theta_norm

from _oracles import (
    base_edge_descent,
    reference_diagram,
    cutting_runs_descent,
    cutting_runs_expected,
    interior_lattice_points,
    boundary_lattice_points,
    left_right_vertices_by_correction,
    random_theta,
    simplest_between,
)

golden = EventuallyPeriodic((1,), (1,))
sqrt2 = EventuallyPeriodic((1,), (2,))
sqrt3 = EventuallyPeriodic((1,), (1, 2))
x273 = EventuallyPeriodic((2,), (1, 2))     # ~2.732
x119 = EventuallyPeriodic((1,), (5,))       # ~1.1926
tiny = EventuallyPeriodic((0,), (10,))      # ~0.0990
x138 = EventuallyPeriodic((1, 2, 1), (2,))  # ~1.3694
zeta1 = EventuallyPeriodic((0,), (2,))      # sqrt2 - 1
zeta2 = EventuallyPeriodic((0,), (1, 2))    # sqrt3 - 1
golden601 = EventuallyPeriodic((1,) + (1,) * 600, (2,))  # shares 601 quotients with golden


def _shared_prefix_pair(rng):
    """Two random slopes agreeing on a random prefix (a0 in -5..5, up to
    twelve more quotients), or, one time in five, two unrelated slopes."""
    if rng.random() < 0.2:
        return random_theta(rng, lo=-3, hi=3), random_theta(rng, lo=-3, hi=3)
    shared = [rng.randint(-5, 5)] + [rng.randint(1, 6) for _ in range(rng.randint(0, 12))]

    def slope():
        pre = shared + [rng.randint(1, 6) for _ in range(rng.randint(0, 3))]
        return EventuallyPeriodic(pre, [rng.randint(1, 6) for _ in range(rng.randint(1, 3))])

    return slope(), slope()


# -- triangles and division vertices ------------------------------------------


def test_farey_triangle_validation():
    t = FareyTriangle((F(2, 1), INFINITY, F(1, 1)))
    assert t.vertices == (F(1, 1), F(2, 1), INFINITY)
    assert t.key() == frozenset({F(1, 1), F(2, 1), INFINITY})
    with pytest.raises(ValueError):
        FareyTriangle((F(1, 3), F(2, 3), F(1, 1)))  # 1/3 -- 2/3 is not an edge
    assert is_farey_geodesic(F(1, 2), F(1, 1))
    assert not is_farey_geodesic(F(1, 3), F(2, 3))


def test_left_right_vertices_golden_table():
    table = {
        (1, 0): ((2, 1), (1, 1)),
        (2, 1): ((5, 3), (3, 2)),
        (1, 1): ((2, 1), (3, 2)),
        (3, 2): ((5, 3), (8, 5)),
        (0, 1): ((1, 0), (1, 1)),
        (3, 1): ((2, 1), (1, 0)),
        (5, 2): ((2, 1), (3, 1)),
        (5, 1): ((4, 1), (1, 0)),
    }
    for (p, q), ((lp, lq), (rp, rq)) in table.items():
        assert left_right_vertices(golden, F(p, q)) == (F(lp, lq), F(rp, rq))


def test_left_right_vertices_past_float_range():
    # a 400-digit denominator overflows any float estimate of the translate
    big = 10**400
    r = F(big + 1, big)
    l1, r1 = left_right_vertices(golden, r)
    w, wl, wr = (theta_norm(x, golden) for x in (r, l1, r1))
    assert wl + wr == w and wl.sign() > 0 and wr.sign() > 0
    assert l1.is_farey_neighbor(r) and r1.is_farey_neighbor(r)
    assert (l1, r1) == (F(1, 1), F(big, big - 1))


_QUOTIENT = st.one_of(st.integers(1, 9), st.integers(1, 10**4))


@st.composite
def _theta_and_vertex(draw):
    """A FinitePrefix of 1-14 quotients, or an eventually periodic theta,
    with r a random fraction or a convergent or semiconvergent of theta
    (of a periodic completion, for a prefix)."""
    qs = [draw(st.integers(-6, 6))] + draw(st.lists(_QUOTIENT, max_size=13))
    full = EventuallyPeriodic(qs, draw(st.lists(_QUOTIENT, min_size=1, max_size=4)))
    theta = draw(st.sampled_from((FinitePrefix(qs), FinitePrefix(qs), full)))
    kind = draw(st.sampled_from(("random", "convergent", "semiconvergent")))
    if kind == "random":
        r = draw(st.one_of(st.just(INFINITY), st.builds(F, st.integers(-200, 200), st.integers(1, 60))))
    else:
        i = draw(st.integers(-1, 16))
        m = draw(st.integers(0, full.quotient(i + 2))) if kind == "semiconvergent" else 0
        (p, q), (pn, qn) = full.convergent_pair(i), full.convergent_pair(i + 1)
        r = F(p + m * pn, q + m * qn)
    return theta, r


def _outcome(fn, theta, r):
    try:
        return fn(theta, r)
    except PrecisionExhausted as exc:
        return "PrecisionExhausted", str(exc), exc.needed_depth


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_theta_and_vertex())
def test_left_right_vertices_matches_correction_oracle(case):
    theta, r = case
    assert _outcome(left_right_vertices, theta, r) == _outcome(left_right_vertices_by_correction, theta, r)


def test_left_right_vertices_with_integer_bracket_ends():
    # five quotients in, the floor's bracket ends are exactly 2 and 3; no
    # integer lies strictly between them, so the floor is 2
    theta = FinitePrefix([3, 1, 4163, 1, 1, 1])
    assert left_right_vertices(theta, F(16659, 4165)) == (F(49973, 12494), F(33314, 8329))


def test_left_right_vertices_norm_identities():
    rng = random.Random(13)
    for _ in range(150):
        theta = random_theta(rng, lo=0, hi=3)
        r = F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() > 0.1 else INFINITY
        l1, r1 = left_right_vertices(theta, r)
        w, wl, wr = (theta_norm(x, theta) for x in (r, l1, r1))
        assert wl + wr == w
        assert wl.sign() > 0 and wr.sign() > 0
        assert (w - wl).sign() > 0 and (w - wr).sign() > 0
        # children are Farey neighbors of the parent and of each other
        assert l1.is_farey_neighbor(r) and r1.is_farey_neighbor(r)
        assert l1.is_farey_neighbor(r1)


# -- diagrams ------------------------------------------------------------------


def test_golden_infinity_diagram():
    d = farey_diagram(golden, INFINITY, 4)
    assert [t.key() for t, _ in d.triangles] == [
        frozenset({INFINITY, F(1, 1), F(2, 1)}),
        frozenset({F(1, 1), F(2, 1), F(3, 2)}),
        frozenset({F(3, 2), F(2, 1), F(5, 3)}),
        frozenset({F(3, 2), F(5, 3), F(8, 5)}),
    ]
    assert [ty for _, ty in d.triangles] == ["Start", "L", "R", "L"]
    assert d.left_labels == [(1, F(2, 1)), (2, F(5, 3))]
    assert d.right_labels == [(1, F(1, 1)), (2, F(3, 2)), (3, F(8, 5))]


def test_golden_five_halves_diagram():
    d = farey_diagram(golden, F(5, 2), 4)
    assert [t.key() for t, _ in d.triangles] == [
        frozenset({F(5, 2), F(2, 1), F(3, 1)}),
        frozenset({F(2, 1), F(3, 1), INFINITY}),
        frozenset({F(1, 1), F(2, 1), INFINITY}),
        frozenset({F(1, 1), F(2, 1), F(3, 2)}),
    ]
    assert d.triangles[0][1] == "Start"
    assert d.triangles[1][1] == "L"


def test_base_edge_matches_descent():
    rng = random.Random(21)
    done = 0
    while done < 300:
        theta, r = _shared_prefix_pair(rng)
        if theta == r:
            continue
        assert _base_edge(theta, r) == base_edge_descent(theta, r)
        done += 1


def test_two_ended_diagram():
    d = farey_diagram(golden, sqrt2, 3)
    assert d.left_labels == [(-2, F(7, 5)), (-1, F(4, 3)), (0, F(1, 1)),
                             (1, F(2, 1)), (2, F(5, 3))]
    assert d.right_labels == [(-1, F(10, 7)), (0, F(3, 2)), (1, F(8, 5))]
    assert [t.key() for t, _ in d.triangles] == [
        frozenset({F(7, 5), F(10, 7), F(3, 2)}),
        frozenset({F(4, 3), F(7, 5), F(3, 2)}),
        frozenset({F(1, 1), F(4, 3), F(3, 2)}),
        frozenset({F(1, 1), F(3, 2), F(2, 1)}),
        frozenset({F(3, 2), F(5, 3), F(2, 1)}),
        frozenset({F(3, 2), F(8, 5), F(5, 3)}),
    ]


def _wide_slope(rng, shared=()):
    """A slope continuing `shared` (or with a0 in -6..6), quotients up to
    10^4 but mostly small."""
    pre = list(shared) or [rng.randint(-6, 6)]
    draw = lambda: rng.choice((1, 1, 2, 3, rng.randint(1, 60), rng.randint(1, 10**4)))
    pre += [draw() for _ in range(rng.randint(0, 3))]
    return EventuallyPeriodic(pre, [draw() for _ in range(rng.randint(1, 3))])


def test_diagrams_match_edge_search_walk():
    rng = random.Random(22)
    for _ in range(120):
        theta = _wide_slope(rng)
        d = rng.randint(1, 30)
        far = INFINITY if rng.random() < 0.3 else F(rng.randint(-60, 60), rng.randint(1, 12))
        assert farey_diagram(theta, far, d).to_dict() == reference_diagram(theta, far, d)
    done = 0
    while done < 120:
        theta = _wide_slope(rng)
        shared = [theta.quotient(i) for i in range(rng.randint(0, 5))]
        r = _wide_slope(rng, shared)
        if r == theta:
            continue
        d = rng.randint(1, 20)
        assert farey_diagram(theta, r, d).to_dict() == reference_diagram(theta, r, d)
        done += 1


def test_walks_make_no_sign_test_per_triangle(monkeypatch):
    # a walk 4x as long makes as many lattice_sign calls: only its frames,
    # never its triangles, ask for a sign
    calls = []
    for cls in (EventuallyPeriodic, FinitePrefix):
        def counting(self, m, n, _sign=cls.lattice_sign):
            calls.append((m, n))
            return _sign(self, m, n)
        monkeypatch.setattr(cls, "lattice_sign", counting)

    def signs(walk, depth):
        walk(depth)  # warm the module caches
        calls.clear()
        walk(depth)
        return len(calls)

    for walk in (
        lambda d: farey_diagram(golden, INFINITY, d),
        lambda d: farey_diagram(golden, sqrt2, d),
        # with two rational operands the walk starts from the second: beta_3 out to beta_3+d
        lambda d: theta_product(golden.convergent(3 + d), golden.convergent(3), golden),
    ):
        assert signs(walk, 160) == signs(walk, 40)


def _strictly_inside(z, u, v):
    return slope_lt(u, z) and slope_lt(z, v)


def _check_walk_edges(d):
    """Consecutive triangles share exactly one edge, crossed by the geodesic."""
    for (t1, _), (t2, _) in zip(d.triangles, d.triangles[1:]):
        shared = set(t1.vertices) & set(t2.vertices)
        assert len(shared) == 2
        u, v = sorted(shared)
        inside = sum(_strictly_inside(z, u, v) for z in (d.theta, d.far))
        assert inside == 1, f"edge ({u},{v}) does not straddle the geodesic"


def test_consecutive_triangles_share_a_straddling_edge():
    _check_walk_edges(farey_diagram(golden, INFINITY, 10))
    _check_walk_edges(farey_diagram(golden, F(5, 2), 8))
    _check_walk_edges(farey_diagram(golden, sqrt2, 6))
    rng = random.Random(14)
    for _ in range(25):
        theta = random_theta(rng)
        r = F(rng.randint(-6, 9), rng.randint(1, 5)) if rng.random() > 0.2 else INFINITY
        d = farey_diagram(theta, r, 8)
        _check_walk_edges(d)


def test_pick_interior_emptiness():
    # every emitted triangle, read as lattice triangles on each edge pair,
    # contains no lattice point beyond its vertices (denominators <= 50)
    tris = []
    for d in (farey_diagram(golden, INFINITY, 12),
              farey_diagram(golden, F(5, 2), 10),
              farey_diagram(sqrt2, INFINITY, 12),
              farey_diagram(golden, sqrt2, 8)):
        tris += [t for t, _ in d.triangles]
    tris += roller_coaster(golden, 8).triangles
    rng = random.Random(15)
    for _ in range(15):
        d = farey_diagram(random_theta(rng), INFINITY, 9)
        tris += [t for t, _ in d.triangles]

    checked = 0
    for tri in tris:
        if any(v.q > 50 for v in tri.vertices):
            continue
        for u, v in tri.edges():
            assert interior_lattice_points((u.p, u.q), (v.p, v.q)) == 0
            assert boundary_lattice_points((u.p, u.q), (v.p, v.q)) == 0
        checked += 1
    assert checked > 100


# -- cutting sequences ----------------------------------------------------------


def test_cutting_sequence_goldens():
    assert cutting_sequence(golden, 4).runs == (("L", 1), ("R", 1), ("L", 1), ("R", 1))
    assert cutting_sequence(sqrt2, 4).runs == (("L", 1), ("R", 2), ("L", 2), ("R", 2))
    assert cutting_sequence(EventuallyPeriodic((0,), (3,)), 2).runs == (("R", 3), ("L", 3))
    assert cutting_sequence(EventuallyPeriodic((2,), (2,)), 3).runs == (("L", 2), ("R", 2), ("L", 2))
    assert cutting_sequence(zeta2, 4).runs == (("R", 1), ("L", 2), ("R", 1), ("L", 2))
    cs = cutting_sequence(golden, 4)
    assert cs.letters() == "LRLR"


def test_cutting_sequence_calibration():
    rng = random.Random(16)
    for _ in range(40):
        theta = random_theta(rng)
        got = cutting_sequence(theta, 10).runs
        assert got == cutting_runs_expected(theta, 10)
        assert got == cutting_runs_descent(theta, 10)
    # large partial quotients and negative a0 against the letter-by-letter walk
    for theta in (
        EventuallyPeriodic((-7,), (10**4, 1)),
        EventuallyPeriodic((3, 2, 9999), (1, 2)),
        EventuallyPeriodic((0, 1), (5000, 3)),
        EventuallyPeriodic((-2, 10**4, 3), (7,)),
    ):
        assert cutting_sequence(theta, 4).runs == cutting_runs_descent(theta, 4)
    for _ in range(20):
        pre = [rng.randint(-4, 4)] + [rng.choice((1, 2, 9, 60, 700)) for _ in range(3)]
        theta = EventuallyPeriodic(pre, [rng.choice((1, 3, 400))])
        assert cutting_sequence(theta, 5).runs == cutting_runs_descent(theta, 5)


def test_cutting_sequence_negative_slope():
    # slopes below the unit interval are translated up (to a0 = 0) first
    neg = EventuallyPeriodic((-3,), (1,))
    assert cutting_sequence(neg, 6).runs == cutting_sequence(neg.translated(3), 6).runs


# -- the product ----------------------------------------------------------------


def test_theta_product_goldens():
    assert theta_product(F(3, 1), F(5, 2), golden) == F(3, 1)
    assert theta_product(F(5, 2), F(3, 1), golden) == F(3, 1)
    assert theta_product(F(3, 1), sqrt2, golden) == F(1, 1)
    assert theta_product(sqrt2, F(3, 1), golden) == F(1, 1)
    assert theta_product(F(3, 1), sqrt3, golden) == F(2, 1)
    assert theta_product(F(3, 1), x273, golden) == F(3, 1)
    assert theta_product(F(3, 1), tiny, golden) == INFINITY
    assert theta_product(F(3, 2), x119, golden) == F(3, 2)
    assert theta_product(INFINITY, sqrt2, golden) == F(1, 1)
    assert theta_product(sqrt2, x138, golden) == F(7, 5)
    assert theta_product(x138, sqrt2, golden) == F(7, 5)
    assert theta_product(F(5, 2), F(5, 2), golden) == F(5, 2)
    assert theta_product(sqrt2, sqrt2, golden) == sqrt2
    assert theta_product(golden, F(5, 2), golden) == golden


def test_theta_product_never_takes_prefixes_for_equal():
    # [1;1,1] may truncate golden or [1;1,1,(2)], whose products with 5/2
    # over golden are golden and 3/2
    assert theta_product(EventuallyPeriodic((1, 1, 1), (2,)), F(5, 2), golden) == F(3, 2)
    prefix = FinitePrefix((1, 1, 1))
    for r1, r2, theta in (
        (prefix, F(5, 2), prefix),
        (F(5, 2), prefix, prefix),
        (prefix, prefix, golden),
        (prefix, golden, sqrt2),
        (golden, F(5, 2), prefix),
    ):
        with pytest.raises(PrecisionExhausted) as info:
            theta_product(r1, r2, theta)
        assert info.value.needed_depth == 4
    # a fourth quotient tells the prefixes apart, and deeper ones give the product
    assert theta_product(FinitePrefix((1, 1, 1, 2, 2, 2)), F(5, 2), FinitePrefix((1,) * 6)) == F(3, 2)
    # an eventually periodic operand equal to theta still decides the product
    assert theta_product(golden, FinitePrefix((1, 1)), golden) == golden


def _random_slope(rng):
    if rng.random() < 0.1:
        return INFINITY
    return F(rng.randint(-6, 9), rng.randint(1, 6))


def test_theta_product_matches_diagram_intersection():
    rng = random.Random(17)
    depth = 20
    for _ in range(40):
        theta = random_theta(rng)
        r1, r2 = _random_slope(rng), _random_slope(rng)
        got = theta_product(r1, r2, theta)
        keys1 = farey_diagram(theta, r1, depth).triangle_keys()
        keys2 = farey_diagram(theta, r2, depth).triangle_keys()
        common = keys1 & keys2
        assert common, "deep enough diagrams always share the tail"
        result = farey_diagram(theta, got, depth)
        walk = [t.key() for t, _ in result.triangles]
        # the intersection is exactly the start of the result's walk
        assert common == set(walk[: len(common)])
    # irrational operands: their diagrams are two-ended
    done = 0
    while done < 80:
        theta = random_theta(rng)
        ops = [_random_slope(rng) if rng.random() < 0.4 else random_theta(rng) for _ in range(2)]
        if any(isinstance(x, EventuallyPeriodic) for x in ops[1:]) and rng.random() < 0.5:
            # share a prefix with theta so the product lies deep in the walk
            ops[1] = EventuallyPeriodic(
                [theta.quotient(i) for i in range(rng.randint(1, 4))], [rng.randint(1, 4)]
            )
        r1, r2 = ops
        if theta in ops or r1 == r2 or not any(isinstance(x, EventuallyPeriodic) for x in ops):
            continue
        got = theta_product(r1, r2, theta)
        assert got == theta_product(r2, r1, theta)
        common = farey_diagram(theta, r1, depth).triangle_keys() & farey_diagram(theta, r2, depth).triangle_keys()
        walk = [t.key() for t, _ in farey_diagram(theta, got, 2 * depth).triangles]
        assert common and common == set(walk[: len(common)])
        done += 1


def test_theta_product_commutative_associative():
    rng = random.Random(18)
    for _ in range(60):
        theta = random_theta(rng)
        a, b, c = (_random_slope(rng) for _ in range(3))
        ab, ba = theta_product(a, b, theta), theta_product(b, a, theta)
        assert ab == ba
        assert theta_product(ab, c, theta) == theta_product(a, theta_product(b, c, theta), theta)
        assert theta_product(a, a, theta) == a


# -- bottom -----------------------------------------------------------------------


def test_bottom_goldens():
    assert bottom(sqrt2, golden) == F(3, 2)
    assert bottom(golden, sqrt3) == F(5, 3)
    assert bottom(zeta1, zeta2) == F(1, 2)
    with pytest.raises(ValueError):
        bottom(golden, sqrt2)  # arguments out of order


def test_order_and_bottom_past_600_shared_quotients():
    # the first difference is at index 601 (odd): the larger quotient 2
    # makes golden601 the smaller slope
    assert slope_lt(golden601, golden) and not slope_lt(golden, golden601)
    value = Fraction(2)  # [1;1x600,2], evaluated from the last quotient up
    for _ in range(601):
        value = 1 + 1 / value
    assert bottom(golden601, golden) == F(value.numerator, value.denominator)


def test_bottom_scans_the_shared_prefix_once():
    # fresh slopes, so every read is counted: 2 x 602 to find k = 601, the
    # two quotients at k, and 601 to fill the memo up to convergent 600
    lo, hi = EventuallyPeriodic((1,) + (1,) * 600, (2,)), EventuallyPeriodic((1,), (1,))
    reads = []
    for slope in (lo, hi):
        slope.quotient = (lambda read: lambda k: reads.append(k) or read(k))(slope.quotient)
    assert bottom(lo, hi) == bottom(golden601, golden)
    assert len(reads) == 1807


def test_bottom_matches_denominator_sweep():
    rng = random.Random(19)
    done = 0
    while done < 40:
        t1, t2 = random_theta(rng), random_theta(rng)
        if t1 == t2:
            continue
        if not slope_lt(t1, t2):
            t1, t2 = t2, t1
        got = bottom(t1, t2)
        assert got == simplest_between(t1, t2)
        assert slope_lt(t1, got) and slope_lt(got, t2)
        done += 1


# -- trees ------------------------------------------------------------------------


def test_farey_tree_golden():
    t = farey_tree(golden, INFINITY, 3)
    leaves = t.root.leaves()
    assert len(leaves) == 8
    assert t.root.children[0].side == "l"
    assert t.root.children[0].fraction == F(2, 1)
    assert t.root.children[1].side == "r"
    vec = (0, 0)
    for leaf in leaves:
        w = theta_norm(leaf.fraction, golden)
        vec = (vec[0] + w.m, vec[1] + w.n)
    assert vec == (0, 1)  # the leaf norms tile |1/0| = 1 exactly


def test_farey_tree_matches_left_right_vertices():
    rng = random.Random(20)
    for _ in range(20):
        theta = random_theta(rng)
        r = _random_slope(rng)
        tree = farey_tree(theta, r, 3)

        def walk(node):
            if not node.children:
                return
            l, r_ = left_right_vertices(theta, node.fraction)
            assert node.children[0].fraction == l
            assert node.children[1].fraction == r_
            assert (node.children[0].side, node.children[1].side) == ("l", "r")
            walk(node.children[0])
            walk(node.children[1])

        walk(tree.root)


# -- roller coaster ----------------------------------------------------------------


def test_roller_coaster_golden():
    rc = roller_coaster(golden, 2)
    assert [t.key() for t in rc.triangles] == [
        frozenset({INFINITY, F(2, 1), F(1, 1)}),
        frozenset({F(1, 1), F(3, 2), F(2, 1)}),
        frozenset({F(2, 1), F(5, 3), F(3, 2)}),
        frozenset({F(3, 2), F(8, 5), F(5, 3)}),
    ]
    assert rc.labels[(F(1, 1), F(2, 1))] == INFINITY
    assert rc.labels[(F(1, 1), F(3, 2))] == F(2, 1)
    assert rc.classes[(F(1, 1), INFINITY)] == "exterior"
    assert rc.classes[(F(2, 1), INFINITY)] == "exterior"
    assert rc.classes[(F(1, 1), F(2, 1))] == "interior"
    assert rc.classes[(F(1, 1), F(3, 2))] == "exterior"
    assert rc.classes[(F(3, 2), F(2, 1))] == "interior"
    assert rc.classes[(F(5, 3), F(2, 1))] == "exterior"


def test_roller_coaster_edge_labels_are_vector_differences():
    for theta in (golden, sqrt2, x138, tiny):
        rc = roller_coaster(theta, 4)
        # edges at the truncation boundary complete one family deeper
        deeper = roller_coaster(theta, 5)
        base = rc.theta.convergent(0)  # rc.theta is the translated slope
        for (a, b), label in rc.labels.items():
            dp, dq = b.p - a.p, b.q - a.q
            if dq < 0 or (dq == 0 and dp < 0):
                dp, dq = -dp, -dq
            assert label == F(dp, dq)
            # edge + label always span a tessellation triangle ...
            FareyTriangle((a, b, label))
            # ... which belongs to the complex, except at the (beta_0, oo)
            # boundary edge whose labelled triangle sits just outside
            hits = sum({a, b, label} == t.key() for t in deeper.triangles)
            if (a, b) == (base, INFINITY):
                assert hits == 0
            else:
                assert hits == 1


def test_shortest_path_bundle():
    rc3 = roller_coaster(golden, 3)
    bundle = shortest_path_bundle(rc3, F(1, 1), F(8, 5))
    assert bundle == [F(2, 1), F(5, 3)]
    # the bundle realises the K-class difference of the endpoints
    assert (8 - 1, 5 - 1) == (2 + 5, 1 + 3)
    assert len(shortest_path_bundle(rc3, F(1, 1), F(5, 3))) == 2
    assert shortest_path_bundle(rc3, F(3, 2), F(3, 2)) == []
    with pytest.raises(NoPath):
        shortest_path_bundle(rc3, F(8, 5), F(1, 1))  # edges point upward
    with pytest.raises(NoPath):
        shortest_path_bundle(rc3, F(1, 7), F(8, 5))  # not a vertex


def test_coaster_edges_and_triangle_str():
    pairs = [(2, 1, 1, 0), (1, 1, 1, 0), (1, 1, 2, 1), (1, 1, 3, 2), (3, 2, 2, 1), (5, 3, 2, 1), (3, 2, 5, 3),
             (3, 2, 8, 5), (8, 5, 5, 3)]
    assert roller_coaster(golden, 2).edges() == [(F(a, b), F(c, d)) for a, b, c, d in pairs]
    triangles = farey_diagram(golden, INFINITY, 3).triangles
    assert [str(t) for t, _ in triangles] == ["(1/1, 2/1, 1/0)", "(1/1, 3/2, 2/1)", "(3/2, 5/3, 2/1)"]
