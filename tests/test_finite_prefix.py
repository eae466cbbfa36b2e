"""FinitePrefix truncations of eventually periodic slopes: each answer of
`slope_lt`, `bottom`, `cutting_sequence`, `semiconvergents`,
`roller_coaster`, `farey_diagram`, `theta_product` and the `sheaves`
functions that compare slopes matches the full slope's, or
PrecisionExhausted names a depth that lets a longer prefix make progress.
Where the walking oracles answer on a truncation, the library answers too,
with the same result."""

import json

from hypothesis import assume, given, settings, strategies as st

from fareyslopes.cfrac import EventuallyPeriodic, FinitePrefix, semiconvergents
from fareyslopes.errors import PrecisionExhausted
from fareyslopes.exact import ReducedFraction
from fareyslopes.farey import bottom, cutting_sequence, farey_diagram, roller_coaster, slope_lt, theta_product
from fareyslopes.sheaves import (
    MINUS,
    PLUS,
    LimitObjectDescriptor,
    StableClass,
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
