import itertools
import pickle
import random
import sys
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from fareyslopes.cfrac import (
    EventuallyPeriodic,
    FinitePrefix,
    GREATER,
    LESS,
    IrrationalNumber,
    compare_theta_rational,
    convergents,
    semiconvergent,
    semiconvergents,
)
from fareyslopes.errors import PrecisionExhausted
from fareyslopes.exact import INFINITY, ReducedFraction as F

from _oracles import random_theta

golden = EventuallyPeriodic((1,), (1,))
sqrt2 = EventuallyPeriodic((1,), (2,))


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# -- construction and canonical form ---------------------------------------


def test_period_canonicalisation():
    assert EventuallyPeriodic((1,), (2, 2)).period == (2,)
    assert EventuallyPeriodic((1,), (1, 2, 1, 2)).period == (1, 2)
    # a trailing preperiod entry equal to the period's last entry is absorbed
    a = EventuallyPeriodic((1, 2), (1, 2))
    b = EventuallyPeriodic((1,), (2, 1))
    assert a == b
    assert hash(a) == hash(b)


def test_construction_rejects_bad_quotients():
    with pytest.raises(ValueError):
        EventuallyPeriodic((), (1,))
    with pytest.raises(ValueError):
        EventuallyPeriodic((1,), ())
    with pytest.raises(ValueError):
        EventuallyPeriodic((1, 0), (1,))
    with pytest.raises(ValueError):
        EventuallyPeriodic((1,), (0,))
    with pytest.raises(ValueError):
        FinitePrefix(())
    with pytest.raises(ValueError):
        FinitePrefix((1, 1, 0))
    FinitePrefix((-3, 1, 1))  # negative a0 is fine


def test_from_string_round_trip():
    cases = [golden, sqrt2, EventuallyPeriodic((0, 1, 2), (1, 3)),
             FinitePrefix((1, 2, 3)), FinitePrefix((-2, 1))]
    for theta in cases:
        assert IrrationalNumber.from_string(str(theta)) == theta
    assert IrrationalNumber.from_string("[1;(1)]") == golden
    assert IrrationalNumber.from_string("[0;2,(1,3)]") == EventuallyPeriodic((0, 2), (1, 3))
    assert IrrationalNumber.from_string("[1; 2 , ( 3 ) ]") == EventuallyPeriodic((1, 2), (3,))
    with pytest.raises(ValueError):
        IrrationalNumber.from_string("1;(1)")
    with pytest.raises(ValueError):
        IrrationalNumber.from_string("[]")


# (slope, repr, str, pickle protocol 4, str after translated(-2))
_SLOPE_FORMS = [
    (EventuallyPeriodic((2, 3), (1, 4)), "EventuallyPeriodic([2, 3], [1, 4])", "[2;3,(1,4)]",
     b"\x80\x04\x95<\x00\x00\x00\x00\x00\x00\x00\x8c\x11fareyslopes.cfrac\x94\x8c\x12EventuallyPeriodic"
     b"\x94\x93\x94K\x02K\x03\x86\x94K\x01K\x04\x86\x94\x86\x94R\x94.", "[0;3,(1,4)]"),
    (EventuallyPeriodic((0,), (5,)), "EventuallyPeriodic([0], [5])", "[0;(5)]",
     b"\x80\x04\x958\x00\x00\x00\x00\x00\x00\x00\x8c\x11fareyslopes.cfrac\x94\x8c\x12EventuallyPeriodic"
     b"\x94\x93\x94K\x00\x85\x94K\x05\x85\x94\x86\x94R\x94.", "[-2;(5)]"),
    (FinitePrefix((7,)), "FinitePrefix([7])", "[7]",
     b"\x80\x04\x95.\x00\x00\x00\x00\x00\x00\x00\x8c\x11fareyslopes.cfrac\x94\x8c\x0cFinitePrefix"
     b"\x94\x93\x94K\x07\x85\x94\x85\x94R\x94.", "[5]"),
    (FinitePrefix((-1, 2, 3)), "FinitePrefix([-1, 2, 3])", "[-1;2,3]",
     b"\x80\x04\x955\x00\x00\x00\x00\x00\x00\x00\x8c\x11fareyslopes.cfrac\x94\x8c\x0cFinitePrefix"
     b"\x94\x93\x94J\xff\xff\xff\xffK\x02K\x03\x87\x94\x85\x94R\x94.", "[-3;2,3]"),
]


def test_slope_forms_are_pinned():  # guard
    for theta, text_repr, text, pickled, translated in _SLOPE_FORMS:
        assert (repr(theta), str(theta)) == (text_repr, text)
        assert pickle.dumps(theta, protocol=4) == pickled
        assert pickle.loads(pickled) == theta and hash(pickle.loads(pickled)) == hash(theta)
        assert str(theta.translated(-2)) == translated
        assert IrrationalNumber.from_string(str(theta)) == theta
    for (x, *_), (y, *_) in itertools.product(_SLOPE_FORMS, repeat=2):
        assert (x == y) == (x is y)
    # the same quotients, read as a period or as a prefix, are different slopes
    assert EventuallyPeriodic((0,), (5,)) != FinitePrefix((0, 5, 5))
    assert FinitePrefix((0, 5, 5)) != EventuallyPeriodic((0,), (5,))


# -- convergents -------------------------------------------------------------


def test_golden_convergents_are_fibonacci():
    for i in range(16):
        assert golden.convergent(i) == F(fib(i + 2), fib(i + 1))
    assert golden.convergent(-1) == INFINITY


def test_convergent_determinant_identity():
    rng = random.Random(3)
    for _ in range(30):
        theta = random_theta(rng)
        for i in range(-1, 14):
            p_i, q_i = theta.convergent_pair(i)
            p_n, q_n = theta.convergent_pair(i + 1)
            assert p_i * q_n - p_n * q_i == (-1) ** (i + 1)


def test_convergents_table():
    table = convergents(golden, 5)
    assert table.rows[0] == (-1, INFINITY, None)
    assert table.rows[1] == (0, F(1, 1), 1)
    assert table.rows[-1] == (5, F(13, 8), 1)
    assert table.fractions()[-1] == F(13, 8)
    with pytest.raises(ValueError):
        convergents(golden, -1)


def test_alternation_sandwich():
    rng = random.Random(4)
    for _ in range(30):
        theta = random_theta(rng)
        for i in range(8):
            even, odd = theta.convergent(2 * i), theta.convergent(2 * i + 1)
            assert compare_theta_rational(theta, even) == GREATER
            assert compare_theta_rational(theta, odd) == LESS
            assert even < odd


# -- exact comparison --------------------------------------------------------


def test_compare_against_float_oracle():
    rng = random.Random(5)
    for _ in range(1000):
        theta = random_theta(rng)
        r = INFINITY if rng.random() < 0.05 else F(rng.randint(-30, 30), rng.randint(1, 12))
        want = GREATER if theta.approx(30) > float(r) else LESS
        got = compare_theta_rational(theta, r)
        # float and exact answers only disagree within float noise of theta
        if abs(theta.approx(30) - float(r)) > 1e-9:
            assert got == want
    assert compare_theta_rational(golden, INFINITY) == LESS


def test_compare_near_convergents():
    # convergents themselves are the adversarial rationals
    for theta in (golden, sqrt2, EventuallyPeriodic((0,), (1, 2))):
        for i in range(12):
            beta = theta.convergent(i)
            want = GREATER if i % 2 == 0 else LESS
            assert compare_theta_rational(theta, beta) == want


# -- finite prefixes fail loudly ----------------------------------------------


def test_finite_prefix_precision():
    theta = FinitePrefix((1, 1, 1, 1))
    assert theta.available_depth() == 3
    assert theta.convergent(3) == F(5, 3)
    with pytest.raises(PrecisionExhausted) as e:
        theta.convergent(4)
    assert e.value.needed_depth >= 5
    # a comparison decided by the known prefix still succeeds
    assert compare_theta_rational(theta, F(10, 1)) == LESS
    assert compare_theta_rational(theta, F(-10, 1)) == GREATER
    # ... but the golden ratio's deeper convergents are undecidable from it
    with pytest.raises(PrecisionExhausted):
        compare_theta_rational(theta, F(fib(12), fib(11)))


def test_translated():
    assert golden.translated(2) == EventuallyPeriodic((3,), (1,))
    assert golden.translated(-1).quotient(0) == 0
    pre = FinitePrefix((2, 3, 4)).translated(-5)
    assert pre.quotients == (-3, 3, 4)


def test_threads_filling_one_memo_agree_with_one_thread():
    # four threads race to fill a fresh slope's memo; each fill writes the
    # slot it computed, so the memo holds the same entries as a lone fill
    want = EventuallyPeriodic((1,), (1, 2, 3))
    want.convergent_pair(3000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            theta = EventuallyPeriodic((1,), (1, 2, 3))
            barrier = threading.Barrier(4)

            def fill():
                barrier.wait()
                theta.convergent_pair(3000)

            threads = [threading.Thread(target=fill) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert theta._memo[: len(want._memo)] == want._memo
    finally:
        sys.setswitchinterval(interval)


# -- semiconvergents ----------------------------------------------------------


def test_semiconvergent_rows():
    # golden: all quotients 1, so each row is just (beta_i, beta_{i+2})
    row = semiconvergents(golden, 0)
    assert row == [F(1, 1), F(3, 2)]
    row = semiconvergents(golden, -1)
    assert row == [INFINITY, F(2, 1)]
    # sqrt2: a_{i+2} = 2 gives rows of three
    row = semiconvergents(sqrt2, 0)
    assert row == [F(1, 1), F(4, 3), F(7, 5)]
    assert row[0] == sqrt2.convergent(0) and row[-1] == sqrt2.convergent(2)
    with pytest.raises(ValueError):
        semiconvergents(golden, -2)


def test_negative_indices_below_minus_one_are_rejected():
    # a warm memo must not answer index -2 with the entry at its end
    theta = EventuallyPeriodic((1,), (1,))
    assert theta.convergent(6) == F(21, 13)
    with pytest.raises(ValueError, match="starts at -1"):
        theta.convergent_pair(-2)
    with pytest.raises(ValueError, match="starts at i = -1"):
        semiconvergent(theta, -2, 1)
    assert theta.convergent_pair(-1) == (1, 0)
    assert semiconvergent(theta, -1, 1) == F(2, 1)


def test_semiconvergent_row_on_a_prefix_names_the_first_missing_quotient():
    # convergent i + 1 is read before quotient i + 2
    with pytest.raises(PrecisionExhausted) as exc:
        semiconvergents(FinitePrefix((1, 2)), 2)
    assert exc.value.needed_depth == 3


def test_semiconvergents_are_farey_neighbors():
    rng = random.Random(6)
    for _ in range(25):
        theta = random_theta(rng)
        for i in range(-1, 6):
            row = semiconvergents(theta, i)
            assert row[0] == theta.convergent(i)
            assert row[-1] == theta.convergent(i + 2)
            for a, b in zip(row, row[1:]):
                assert a.is_farey_neighbor(b)
            for m, beta in enumerate(row):
                assert semiconvergent(theta, i, m) == beta


# -- closed-form sign against Gosper's bracket on a prefix --------------------

# extremes: quotients >= 10^5, long preperiods and periods, negative a0
_QUOTIENT = st.one_of(st.integers(1, 9), st.integers(10**5, 10**6))


@st.composite
def _surds(draw):
    pre = [draw(st.integers(-10**6, 10**6))] + draw(st.lists(_QUOTIENT, max_size=40))
    return EventuallyPeriodic(pre, draw(st.lists(_QUOTIENT, min_size=1, max_size=16)))


@st.composite
def _lattice_pairs(draw, theta):
    """(m, n) with |m|, |n| up to 10^400, or next to a convergent: a multiple
    of (q_k, -p_k + e) with e in {-1, 0, 1}, so |m*theta + n| is tiny."""
    if draw(st.booleans()):
        big = st.integers(-(10**400), 10**400)
        return draw(big), draw(big)
    p, q = theta.convergent_pair(draw(st.integers(-1, 80)))
    k = draw(st.sampled_from((1, -1, 10**50)))
    return k * q, k * (-p + draw(st.integers(-1, 1)))


def _prefix_sign(theta, m, n):
    """sign(m*theta + n) from Gosper's bracket on a FinitePrefix with
    theta's quotients, lengthened until it decides."""
    depth = 4
    while True:
        try:
            return FinitePrefix([theta.quotient(i) for i in range(depth)]).lattice_sign(m, n)
        except PrecisionExhausted as exc:
            assert exc.needed_depth > depth
            depth = 2 * exc.needed_depth


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data(), _surds())
def test_closed_form_sign_matches_sandwich(data, theta):
    m, n = data.draw(_lattice_pairs(theta))
    want = _prefix_sign(theta, m, n)
    assert theta.lattice_sign(m, n) == want
    assert theta.lattice_sign(-m, -n) == -want
    if m > 0:
        assert compare_theta_rational(theta, F(-n, m)) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data(), _surds(), st.one_of(st.none(), st.integers(1, 60)))
def test_floor_ratio_brackets_the_ratio(data, theta, known):
    a, b = data.draw(_lattice_pairs(theta))
    c, d = data.draw(_lattice_pairs(theta))
    if c == d == 0:
        c = 1
    if known is None:
        k = theta.floor_ratio(a, b, c, d)
    # a FinitePrefix of theta's first `known` quotients answers, or names a
    # longer prefix, which then makes progress
    while known is not None:
        try:
            k = FinitePrefix([theta.quotient(i) for i in range(known)]).floor_ratio(a, b, c, d)
            known = None
        except PrecisionExhausted as exc:
            assert exc.needed_depth > known
            known = exc.needed_depth
    s = _prefix_sign(theta, c, d)
    # k <= (a*theta + b)/(c*theta + d) < k + 1
    assert s * _prefix_sign(theta, a - k * c, b - k * d) >= 0
    assert s * _prefix_sign(theta, a - (k + 1) * c, b - (k + 1) * d) < 0


def test_closed_form_sign_spot_values():
    assert golden.lattice_sign(0, 0) == 0
    assert golden.lattice_sign(0, 7) == 1
    assert golden.lattice_sign(5, -8) == 1 and golden.lattice_sign(8, -13) == -1
    assert sqrt2.lattice_sign(2378, -3363) == -1  # 3363/2378 is above sqrt 2
    neg = EventuallyPeriodic((-3, 100000), (1, 100000))
    assert neg.lattice_sign(1, 3) == 1 and neg.lattice_sign(1, 2) == -1
    assert sqrt2.floor_ratio(1, 0, 0, 1) == 1
    assert sqrt2.floor_ratio(1000, 0, 0, 1) == 1414
    assert sqrt2.floor_ratio(0, 1, 1, -1) == 2  # 1/(sqrt 2 - 1) = 2.414...
    assert golden.floor_ratio(-1, 0, 0, 1) == -2
    # a0 is fed before the first test: theta = [-3; ...] lies below 1
    assert EventuallyPeriodic((-3,), (7,)).floor_ratio(1, 0, 0, 1) == -3
    # [1] leaves theta anywhere in (1, 2): 2*theta is open, theta is not
    assert FinitePrefix((1,)).floor_ratio(1, 0, 0, 1) == 1
    with pytest.raises(PrecisionExhausted) as e:
        FinitePrefix((1,)).floor_ratio(2, 0, 0, 1)
    assert e.value.needed_depth == 2
    for theta in (golden, FinitePrefix((1, 2))):
        with pytest.raises(ValueError):
            theta.floor_ratio(1, 0, 0, 0)
    # q_i*theta - p_i sits just below 0 for odd i and just above it for even
    # i, so its floor is -1 or 0 however close it gets
    for theta in (golden, sqrt2, EventuallyPeriodic((-2, 7), (100000, 3))):
        for i in range(40):
            p, q = theta.convergent_pair(i)
            assert theta.floor_ratio(q, -p, 0, 1) == -(i % 2)
            assert theta.floor_ratio(-q, p, 0, -1) == -(i % 2)
            assert theta.floor_ratio(q, 3 - p, 0, 1) == 3 - i % 2
            if theta.lattice_sign(1, -1) > 0:  # theta > 1: (7 theta + q theta - p)/theta
                assert theta.floor_ratio(7 + q, -p, 1, 0) == 7 - i % 2


def test_sandwich_stops_at_the_first_deciding_convergent():
    # [1;1,1,1] leaves theta in (8/5, 5/3): that decides 3/2, and 144/89
    # inside it needs a fifth quotient
    theta = FinitePrefix((1, 1, 1, 1))
    assert theta.lattice_sign(2, -3) == 1
    assert compare_theta_rational(theta, F(3, 2)) == GREATER
    assert theta.lattice_sign(0, -1) == -1 and FinitePrefix((5,)).lattice_sign(0, 0) == 0
    with pytest.raises(PrecisionExhausted) as e:
        theta.lattice_sign(89, -144)
    assert e.value.needed_depth == 5


def test_prefix_sign_uses_every_known_quotient():
    # every completion of [1] lies in (1, 2), and of [1;2,3] in (10/7, 13/9)
    assert FinitePrefix((1,)).lattice_sign(1, -1) == 1
    assert FinitePrefix((1, 2, 3)).lattice_sign(7, -10) == 1
    assert FinitePrefix((1, 2, 3)).lattice_sign(-9, 13) == 1
    with pytest.raises(PrecisionExhausted) as e:
        FinitePrefix((1, 2, 3)).lattice_sign(16, -23)  # 23/16 = [1;2,3,2]
    assert e.value.needed_depth == 4


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data(), _surds())
def test_ratio_quotients_are_the_continued_fraction(data, theta):
    a, b = data.draw(_lattice_pairs(theta))
    c, d = data.draw(_lattice_pairs(theta))
    assume(a * d != b * c)  # a Mobius image of an irrational is irrational
    stream = theta.ratio_quotients(a, b, c, d)
    next(stream)
    for k in range(12):
        n = next(stream)
        assert k == 0 or n >= 1
        # n <= (a*theta + b)/(c*theta + d) < n + 1, by the closed-form sign
        s = theta.lattice_sign(c, d)
        assert s * theta.lattice_sign(a - n * c, b - n * d) > 0
        assert s * theta.lattice_sign(a - (n + 1) * c, b - (n + 1) * d) < 0
        a, b, c, d = c, d, a - n * c, b - n * d


def test_ratio_quotients_cap():
    # [1;1] leaves theta in (3/2, 2), so (theta - 1)/(2 - theta) is only
    # known to exceed 1: a cap of 1 answers, and the stream ends there
    half = FinitePrefix((1, 1))
    stream = half.ratio_quotients(1, -1, -1, 2)
    next(stream)
    assert stream.send(1) == 1
    with pytest.raises(StopIteration):
        next(stream)
    for cap in (None, 2):
        stream = half.ratio_quotients(1, -1, -1, 2)
        next(stream)
        with pytest.raises(PrecisionExhausted) as e:
            stream.send(cap)
        assert e.value.needed_depth == 3
    # a quotient decided below the cap comes out whole, and the stream goes on
    stream = EventuallyPeriodic((1,), (2,)).ratio_quotients(0, 1, 1, -1)
    next(stream)
    assert [stream.send(5), stream.send(3), next(stream)] == [2, 2, 2]
