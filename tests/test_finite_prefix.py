"""FinitePrefix truncations of eventually periodic slopes: each answer of a
public function that takes a slope matches the full slope's, or
PrecisionExhausted names a depth that lets a longer prefix make progress.
Where the walking oracles answer on a truncation, the library answers too,
with the same result.  A guard keeps every such function covered."""

import inspect
import json
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import assume, given, settings, strategies as st

import fareyslopes
from fareyslopes.cfrac import (
    EventuallyPeriodic,
    FinitePrefix,
    compare_theta_rational,
    convergents,
    semiconvergent,
    semiconvergents,
)
from fareyslopes.division import (
    approximate_rank,
    beads,
    division_points,
    root_interval,
    rotated_rank,
    ses_check,
)
from fareyslopes.errors import PrecisionExhausted
from fareyslopes.exact import ReducedFraction
from fareyslopes.farey import (
    bottom,
    cutting_sequence,
    farey_diagram,
    farey_tree,
    left_right_vertices,
    roller_coaster,
    slope_lt,
    theta_product,
)
from fareyslopes.invariants import LowerBoundOnly, c_theta, d_chain
from fareyslopes.lattice import theta_norm
from fareyslopes.sheaves import (
    MINUS,
    PLUS,
    LimitObjectDescriptor,
    StableClass,
    endo_dim_bound,
    farey_type_image,
    hom_classify,
    kclass_colimit_check,
    witness_image_chain,
)

from _oracles import reference_diagram, theta_product_by_walk

_QUOTIENT = st.integers(1, 9)
_FRACTION = st.one_of(
    st.just(ReducedFraction(1, 0)),
    st.builds(ReducedFraction, st.integers(-120, 120), st.integers(1, 30)),
)


@st.composite
def _slope_pairs(draw):
    """Two eventually periodic slopes with a shared prefix of up to 40
    quotients and long preperiods; a0 may be negative, and the second
    slope's a0 is sometimes shifted so the pair differs at once."""
    shared = [draw(st.integers(-6, 6))] + draw(st.lists(_QUOTIENT, max_size=40))

    def slope(shift):
        pre = [shared[0] + shift] + shared[1:] + draw(st.lists(_QUOTIENT, max_size=12))
        return EventuallyPeriodic(pre, draw(st.lists(_QUOTIENT, min_size=1, max_size=4)))

    x, y = slope(0), slope(draw(st.sampled_from((0, 0, 0, 1, -2))))
    assume(x != y)
    return x, y


def _answer_from_prefixes(fn, slopes, lengths):
    """Call fn on FinitePrefix truncations of `slopes`; on PrecisionExhausted
    lengthen every truncation to needed_depth and call again.  Each needed
    depth must exceed the shortest truncation and every earlier one."""
    last = 0
    while True:
        try:
            return fn(*(FinitePrefix([s.quotient(i) for i in range(n)]) for s, n in zip(slopes, lengths)))
        except PrecisionExhausted as exc:
            assert exc.needed_depth > max(last, min(lengths))
            last = exc.needed_depth
            lengths = [max(n, last) for n in lengths]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_slope_pairs(), st.integers(1, 60), st.integers(1, 60), st.integers(1, 8))
def test_finite_prefix_matches_or_exhausts(pair, n1, n2, depth):
    x, y = pair
    lo, hi = (x, y) if slope_lt(x, y) else (y, x)
    assert _answer_from_prefixes(slope_lt, (x, y), (n1, n2)) == slope_lt(x, y)
    assert _answer_from_prefixes(bottom, (lo, hi), (n1, n2)) == bottom(lo, hi)
    runs = _answer_from_prefixes(lambda t: cutting_sequence(t, depth).runs, (x,), (n1,))
    assert runs == cutting_sequence(x, depth).runs
    for i in range(-1, 9):
        assert _answer_from_prefixes(lambda t: semiconvergents(t, i), (x,), (n1,)) == semiconvergents(x, i)
    for d in range(1, 5):
        # a coaster's text names its slope, which differs between prefix and slope
        coaster = _answer_from_prefixes(lambda t: dict(roller_coaster(t, d).to_dict(), theta=None), (x,), (n1,))
        assert coaster == dict(roller_coaster(x, d).to_dict(), theta=None)


def _shape(diagram):
    """A diagram without its slopes, whose text differs between a prefix and
    the full slope."""
    return diagram.triangles, diagram.left_labels, diagram.right_labels


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_slope_pairs(), st.integers(1, 60), _FRACTION, _FRACTION, st.integers(1, 30), st.booleans())
def test_finite_prefix_diagrams_and_products(pair, n, r, r2, depth, irrational):
    # theta is truncated; the operands stay exact, and the irrational one
    # may share up to 40 quotients with theta
    theta, other = pair
    want = _shape(farey_diagram(theta, r, depth))
    assert _answer_from_prefixes(lambda t: _shape(farey_diagram(t, r, depth)), (theta,), (n,)) == want
    second = other if irrational else r2
    want = theta_product(r, second, theta)
    assert _answer_from_prefixes(lambda t: theta_product(r, second, t), (theta,), (n,)) == want
    assert _answer_from_prefixes(lambda t: theta_product(second, r, t), (theta,), (n,)) == want


def _or_none(fn, *args):
    """fn(*args), or None when a prefix cannot decide it."""
    try:
        return fn(*args)
    except PrecisionExhausted:
        return None


def _truncated(theta, n):
    return FinitePrefix([theta.quotient(i) for i in range(n)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_slope_pairs(), st.integers(1, 30), _FRACTION, st.integers(1, 30), st.booleans())
def test_finite_prefix_diagrams_answer_where_the_oracle_does(pair, n, r, depth, irrational):
    theta, other = pair
    far = other if irrational else r
    prefix = _truncated(theta, n)
    want = _or_none(reference_diagram, prefix, far, depth)
    if want is not None:
        assert farey_diagram(prefix, far, depth).to_dict() == want
    shape = _answer_from_prefixes(lambda t: _shape(farey_diagram(t, far, depth)), (theta,), (n,))
    assert shape == _shape(farey_diagram(theta, far, depth))


_WIDE = st.one_of(st.integers(1, 4), st.integers(1, 10**4))


@st.composite
def _product_operands(draw):
    """theta with quotients up to 10^4 and two operands, each a fraction or
    an irrational sharing up to 5 quotients with theta."""
    theta = EventuallyPeriodic(
        [draw(st.integers(-5, 5))] + draw(st.lists(_WIDE, max_size=4)),
        draw(st.lists(_WIDE, min_size=1, max_size=3)),
    )

    def operand():
        if draw(st.booleans()):
            return draw(_FRACTION)
        shared = [theta.quotient(i) for i in range(draw(st.integers(0, 5)))]
        pre = (shared or [draw(st.integers(-5, 5))]) + draw(st.lists(_WIDE, max_size=3))
        return EventuallyPeriodic(pre, draw(st.lists(_WIDE, min_size=1, max_size=3)))

    return theta, operand(), operand()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_product_operands(), st.integers(1, 30))
def test_theta_product_matches_the_walk_oracle(operands, n):
    theta, r1, r2 = operands
    want = theta_product_by_walk(r1, r2, theta)
    assert theta_product(r1, r2, theta) == want
    assume(theta not in (r1, r2))  # a truncation of theta never equals theta
    prefix = _truncated(theta, n)
    oracle = _or_none(theta_product_by_walk, r1, r2, prefix)
    if oracle is not None:
        assert theta_product(r1, r2, prefix) == oracle
    assert _answer_from_prefixes(lambda t: theta_product(r1, r2, t), (theta,), (n,)) == want


def _unslope(report, *slopes):
    """The report's JSON with each slope's text replaced by its position, since
    a prefix and its slope print differently.  Distinct slope texts never
    contain one another: each is one bracketed string."""
    text = json.dumps(report.to_dict())
    for i, slope in enumerate(slopes):
        text = text.replace(str(slope), f"theta{i}")
    return text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_slope_pairs(), st.integers(1, 60), st.integers(1, 60), _FRACTION, st.integers(1, 6))
def test_finite_prefix_sheaves_match_or_exhaust(pair, n1, n2, r, depth):
    x, y = pair
    lo, hi = (x, y) if slope_lt(x, y) else (y, x)
    stable = StableClass.from_fraction(r)
    calls = [
        (lambda a, b: hom_classify(LimitObjectDescriptor(a, MINUS), LimitObjectDescriptor(b, MINUS), depth, 16), 2),
        (lambda a, b: hom_classify(LimitObjectDescriptor(a, MINUS), LimitObjectDescriptor(b, PLUS), depth, 16), 2),
        (lambda a: hom_classify(stable, LimitObjectDescriptor(a, MINUS), depth, 16), 1),
        (lambda a: hom_classify(LimitObjectDescriptor(a, MINUS), stable, depth, 16), 1),
        (lambda a: kclass_colimit_check(a, depth), 1),
    ]
    for fn, arity in calls:
        slopes, lengths = (x, y)[:arity], (n1, n2)[:arity]
        got = _answer_from_prefixes(lambda *t: _unslope(fn(*t), *t), slopes, lengths)
        assert got == _unslope(fn(*slopes), *slopes)
    assert _answer_from_prefixes(farey_type_image, (lo, hi), (n1, n2)) == farey_type_image(lo, hi)
    base = bottom(lo, hi)
    # l_0 itself, then l_-1 and l_1: the prefixes must carry each one-ended fan past its first label
    below, above = farey_diagram(lo, base, 1).left_labels[0][1], farey_diagram(hi, base, 1).right_labels[0][1]
    for point in (base, below, above):
        chain = _answer_from_prefixes(lambda a, b: _unslope(witness_image_chain(a, b, point), a, b), (lo, hi), (n1, n2))
        assert chain == _unslope(witness_image_chain(lo, hi, point), lo, hi)


def _lattice(x):
    return x.m, x.n


def _bead(bead):
    """A bead without its slope: its ends, labels, summands and rank."""
    return tuple(map(_lattice, bead.interval)), bead.labels, bead.summands, _lattice(bead.rank_theta)


def _ses(report):
    return _bead(report.sub), _bead(report.whole), _bead(report.quotient), report.passed


def _points(t, a):
    """The three drawn division points of t's tree at the drawn depth."""
    points = division_points(t, a.window, a.depth)
    return [points[k] for k in a.ends]


# One row per public function that takes a slope: the call on slope t and the
# drawn arguments `a`, answering with what does not name t.
_ROWS = {
    "compare_theta_rational": lambda t, a: compare_theta_rational(t, a.r),
    "convergents": lambda t, a: convergents(t, a.i + 1).rows,
    "semiconvergent": lambda t, a: semiconvergent(t, a.i, a.m),
    "theta_norm": lambda t, a: _lattice(theta_norm(a.r, t)),
    "d_chain": lambda t, a: d_chain(t, a.depth),
    "left_right_vertices": lambda t, a: left_right_vertices(t, a.r),
    "farey_tree": lambda t, a: dict(farey_tree(t, a.r, a.depth).to_dict(), theta=None),
    "root_interval": lambda t, a: root_interval(t, a.window).to_dict(),
    "rotated_rank": lambda t, a: _lattice(rotated_rank(a.stable, t)),
    "division_points": lambda t, a: [_lattice(x) for x in division_points(t, a.window, a.depth)],
    "beads": lambda t, a: _bead(beads(t, a.window, *_points(t, a)[0::2])),
    "ses_check": lambda t, a: _ses(ses_check(t, a.window, *_points(t, a))),
    "approximate_rank": lambda t, a: [_bead(b) for b in approximate_rank(t, a.window, a.target, a.tol)],
}

# The functions checked apart from the rows, with the test that checks each.
_COVERED_ELSEWHERE = {
    "slope_lt": "test_finite_prefix_matches_or_exhausts",
    "bottom": "test_finite_prefix_matches_or_exhausts",
    "cutting_sequence": "test_finite_prefix_matches_or_exhausts",
    "semiconvergents": "test_finite_prefix_matches_or_exhausts",
    "roller_coaster": "test_finite_prefix_matches_or_exhausts",
    "farey_diagram": "test_finite_prefix_diagrams_and_products",
    "theta_product": "test_finite_prefix_diagrams_and_products",
    "hom_classify": "test_finite_prefix_sheaves_match_or_exhaust",
    "farey_type_image": "test_finite_prefix_sheaves_match_or_exhaust",
    "kclass_colimit_check": "test_finite_prefix_sheaves_match_or_exhaust",
    "witness_image_chain": "test_finite_prefix_sheaves_match_or_exhaust",
    "bounded_quotients": "test_invariants.py::test_bounded_quotients_needed_depth_answers",
    "c_theta": "test_finite_prefix_entry_points_match_or_exhaust, as bounds only",
    "endo_dim_bound": "test_finite_prefix_entry_points_match_or_exhaust, as bounds only",
}


@st.composite
def _args(draw, x):
    """The arguments a row draws besides its slope x."""
    r, depth = draw(_FRACTION), draw(st.integers(1, 6))
    window = x.convergent(2 * draw(st.integers(0, 2)) + 1)  # above x by less than 1, as beads need
    length = Fraction(root_interval(x, window).real_length()).limit_denominator(10**6)
    return SimpleNamespace(
        r=r, stable=StableClass.from_fraction(r), i=draw(st.integers(-1, 8)), m=draw(st.integers(0, 9)), depth=depth,
        window=window, ends=sorted(draw(st.lists(st.integers(0, 2**depth), min_size=3, max_size=3, unique=True))),
        target=length * Fraction(draw(st.integers(1, 99)), 100), tol=Fraction(1, 10 ** draw(st.integers(1, 5))),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_slope_pairs(), st.integers(1, 60), st.data())
def test_finite_prefix_entry_points_match_or_exhaust(pair, n, data):
    x = pair[0]
    a = data.draw(_args(x))
    for name, row in _ROWS.items():
        assert _answer_from_prefixes(lambda t: row(t, a), (x,), (n,)) == row(x, a), name
    # c_theta folds a prefix's quotients into bounds only: each is a multiple
    # of the true c_i, which past the entries the full report lists is its limit
    full = c_theta(x)
    exact = lambda i: dict(full.c_values).get(i, full.status.c)
    report = _answer_from_prefixes(c_theta, (x,), (n,))
    assert isinstance(report.status, LowerBoundOnly)
    for i, bound in report.c_values:
        assert bound % exact(i) == 0
    # endo_dim_bound on a prefix says only what those bounds and the known
    # quotients can: nothing stabilises, and a quotient above 2 past a0
    # refutes the bound by two, which no prefix certifies
    endo = _answer_from_prefixes(lambda t: endo_dim_bound(LimitObjectDescriptor(t, MINUS)), (x,), (n,))
    assert (endo.stabilized, endo.c, endo.bound, endo.dim_candidates) == (False, None, None, None)
    for i, bound in enumerate(endo.chain):
        assert bound % exact(i) == 0
    assert endo.bounded_by_two is (False if max(endo.theta.quotients[1:]) > 2 else None)


# The annotations that name a slope, alone or inside another value: a Slope is
# a slope or a fraction, a LimitObjectDescriptor holds one, and a HomEnd may be
# a LimitObjectDescriptor.
_SLOPE_TYPES = ("IrrationalNumber", "Slope", "LimitObjectDescriptor", "HomEnd")


def test_every_slope_taking_entry_point_has_a_row():  # guard
    takes_slope = {
        name
        for names in fareyslopes._PUBLIC.values()
        for name in names.split()
        if inspect.isfunction(fn := getattr(fareyslopes, name))
        and any(kind in str(p.annotation) for p in inspect.signature(fn).parameters.values() for kind in _SLOPE_TYPES)
    }
    rows = set(_ROWS) | set(_COVERED_ELSEWHERE)
    assert sorted(takes_slope - rows) == []  # a slope-taking function without a row
    assert sorted(rows - takes_slope) == []  # a row whose function no longer takes a slope
