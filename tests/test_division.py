import copy
import dataclasses
import gc
import itertools
import math
import pickle
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fareyslopes import division
from fareyslopes.cfrac import GREATER, EventuallyPeriodic, FinitePrefix, compare_theta_rational
from fareyslopes.division import (
    _DEPTH_CAP,
    DivisionInterval,
    _require_window,
    approximate_rank,
    beads,
    divide,
    division_points,
    root_interval,
    rotated_rank,
    ses_check,
)
from fareyslopes.errors import MismatchedTheta, NotDivisionPoint, PrecisionExhausted, TolTooTight
from fareyslopes.exact import ReducedFraction as F
from fareyslopes.lattice import ThetaLatticeElement, theta_norm
from fareyslopes.sheaves import StableClass

from _oracles import (
    cover_recursive,
    division_points_sorted,
    game_rest_positions,
    locate_descent,
    random_theta,
)

golden = EventuallyPeriodic((1,), (1,))
PHI = (1 + math.sqrt(5)) / 2

root2 = root_interval(golden, F(2, 1))
_A, _B = divide(root2)
_AA, _AB = divide(_A)
_BA, _BB = divide(_B)
p0, p1, p2, p3, p4 = root2.a, _AA.b, _A.b, _BA.b, root2.b


def test_root_and_divide_at_infinity():
    root_inf = root_interval(golden, F(1, 0))
    assert root_inf.a == ThetaLatticeElement(0, 0, golden)
    assert root_inf.b == ThetaLatticeElement(0, 1, golden)
    L, R = divide(root_inf)
    assert (L.vertex, R.vertex) == (F(2, 1), F(1, 1))
    lens = sorted(iv.real_length() for iv in (L, R))
    assert abs(lens[0] - (2 - PHI)) < 1e-9
    assert abs(lens[1] - (PHI - 1)) < 1e-9
    assert L.length() + R.length() == root_inf.length()
    assert L.b == R.a


def test_interval_is_its_left_end_and_label():
    iv = DivisionInterval(p0, F(3, 2))
    assert iv.b == p0 + theta_norm(F(3, 2), golden)
    assert iv.length() == theta_norm(F(3, 2), golden)
    twin = DivisionInterval(ThetaLatticeElement(0, 0, golden), F(3, 2))
    assert twin == iv and hash(twin) == hash(iv)
    assert DivisionInterval(p0, F(5, 3)) != iv
    for parent in (root2, _A, _B, _AB):
        L, R = divide(parent)
        assert L.a == parent.a and L.b == R.a and R.b == parent.b


def test_golden_two_tree():
    assert abs(root2.real_length() - (2 - PHI)) < 1e-9
    assert (_A.vertex, _B.vertex) == (F(5, 3), F(3, 2))
    assert (_AA.vertex, _AB.vertex) == (F(13, 8), F(8, 5))
    assert (_BA.vertex, _BB.vertex) == (F(5, 3), F(8, 5))
    want = [13 - 8 * PHI, 5 * PHI - 8, 5 - 3 * PHI, 5 * PHI - 8]
    for iv, w in zip((_AA, _AB, _BA, _BB), want):
        assert abs(iv.real_length() - w) < 1e-9


def _window_fraction(theta):
    # the first odd-index convergent lies above theta and within distance 1
    return theta.convergent(1)


def test_divide_tiles_random():
    rng = random.Random(30)
    for _ in range(40):
        theta = random_theta(rng)
        iv = root_interval(theta, _window_fraction(theta))
        for _ in range(5):
            L, R = divide(iv)
            assert L.a == iv.a and R.b == iv.b and L.b == R.a
            assert L.length() + R.length() == iv.length()
            assert theta_norm(L.vertex, theta) + theta_norm(R.vertex, theta) == theta_norm(
                iv.vertex, theta
            )
            assert L.real_length() > 0 and R.real_length() > 0
            iv = L if rng.random() < 0.5 else R


def test_division_points_structure():
    for depth in (1, 2, 3):
        assert len(division_points(golden, F(1, 0), depth)) == 2**depth + 1
    pts10 = division_points(golden, F(1, 0), 10)
    vals10 = [p.value() for p in pts10]
    assert all(b > a for a, b in zip(vals10, vals10[1:]))
    assert max(b - a for a, b in zip(vals10, vals10[1:])) < 0.09
    prev_gap = None
    for depth in range(1, 11):
        vs = [p.value() for p in division_points(golden, F(1, 0), depth)]
        g = max(b - a for a, b in zip(vs, vs[1:]))
        if prev_gap is not None:
            assert g <= prev_gap + 1e-15
        prev_gap = g
    with pytest.raises(ValueError):
        division_points(golden, F(1, 0), 0)


def test_division_points_float_cross_check():
    pts = division_points(golden, F(2, 1), 8)
    lo, hi = golden.approx(30), golden.approx(60)
    vals = []
    for p in pts:
        a, b = p.m * lo + p.n, p.m * hi + p.n
        assert abs(a - b) < 1e-9
        vals.append(b)
    assert vals == sorted(vals)


def test_beads_goldens():
    whole = beads(golden, F(2, 1), p0, p4)
    assert whole.labels == (F(2, 1),)
    assert whole.summands.kclass() == (2, 1)
    assert whole.rank_theta == root2.length()

    mid2 = beads(golden, F(2, 1), p1, p3)
    assert mid2.labels == (F(8, 5), F(5, 3))
    assert [(str(c), s, m) for c, s, m in mid2.summands.summands] == [
        ("O(8/5)", 1, 1),
        ("O(5/3)", 0, 1),
    ]
    assert mid2.summands.kclass() == (-3, -2)
    assert abs(mid2.rank_theta.value() - (2 * PHI - 3)) < 1e-9

    pre3 = beads(golden, F(2, 1), p0, p3)
    assert pre3.labels == (F(5, 3), F(5, 3))
    assert pre3.summands.summands == ((StableClass(5, 3), 0, 2),)

    assert beads(golden, F(2, 1), p0, p1).labels == (F(13, 8),)

    assert rotated_rank(mid2.summands, golden) == mid2.rank_theta
    assert rotated_rank(StableClass(2, 1), golden) == theta_norm(F(2, 1), golden)


def test_beads_windows_depth4():
    pts4 = division_points(golden, F(2, 1), 4)
    for c, d in itertools.combinations(pts4, 2):
        b = beads(golden, F(2, 1), c, d)
        assert b.rank_theta == d - c
        assert b.summands.in_heart(golden)
        # the phase order: shifted summands (slope below theta) first, then by slope
        phases = [(compare_theta_rational(golden, v) == GREATER, v) for v in b.labels]
        assert all(x >= y for x, y in zip(phases, phases[1:]))


def test_bead_builds_compare_each_label_once(monkeypatch):
    # a label's phase, class and norm are stored once per tree: building all
    # C(65, 2) windows asks one sign per distinct label, plus two for the window;
    # a new slope object starts with no tree
    theta = EventuallyPeriodic((1,), (1,))
    pts = division_points(theta, F(2, 1), 6)
    calls = []

    def counting(self, m, n, _sign=EventuallyPeriodic.lattice_sign):
        calls.append((m, n))
        return _sign(self, m, n)

    monkeypatch.setattr(EventuallyPeriodic, "lattice_sign", counting)
    for c, d in itertools.combinations(pts, 2):
        beads(theta, F(2, 1), c, d)
    labels = {iv.vertex for iv in division._tree(theta, F(2, 1)).nodes.values()}
    assert len(labels) == 13
    assert len(calls) <= len(labels) + 2


def test_beads_match_game_oracle():
    assert game_rest_positions(golden, F(2, 1), p1, p3, 2) == (F(8, 5), F(5, 3))
    for n in (2, 3, 4, 5):
        assert game_rest_positions(golden, F(2, 1), p1, p3, n) == (F(8, 5), F(5, 3))
        assert game_rest_positions(golden, F(2, 1), p0, p4, n) == (F(2, 1),)
    assert game_rest_positions(golden, F(2, 1), p0, p3, 3) == (F(5, 3), F(5, 3))

    rng = random.Random(31)
    done = 0
    while done < 12:
        theta = random_theta(rng)
        r = _window_fraction(theta)
        pts = division_points(theta, r, 3)
        i = rng.randrange(len(pts) - 1)
        j = rng.randrange(i + 1, len(pts))
        c, d = pts[i], pts[j]
        want = beads(theta, r, c, d).labels
        assert game_rest_positions(theta, r, c, d, 4) == want
        assert game_rest_positions(theta, r, c, d, 5) == want
        done += 1


def test_ses_goldens():
    rep = ses_check(golden, F(2, 1), p1, p2, p3)
    assert rep.passed
    rep = ses_check(golden, F(2, 1), p0, p2, p4)
    assert rep.passed
    assert rep.sub.labels == (F(5, 3),) and rep.quotient.labels == (F(3, 2),)
    rep = ses_check(golden, F(2, 1), p0, p1, p3)
    assert rep.passed and rep.quotient.labels == (F(8, 5), F(5, 3))
    assert rep.class_additive and rep.rank_additive
    assert rep.phase_sub_ok and rep.phase_quot_ok


def test_ses_exhaustive_depth4():
    pts4 = division_points(golden, F(2, 1), 4)
    count = 0
    for c, e, d in itertools.combinations(pts4, 3):
        assert ses_check(golden, F(2, 1), c, e, d).passed
        count += 1
    assert count == math.comb(len(pts4), 3) == 680


def test_window_and_point_errors():
    for bad in (F(1, 0), F(3, 1), F(1, 1), F(8, 5)):
        with pytest.raises(ValueError):
            beads(golden, bad, p0, p1)
    with pytest.raises(NotDivisionPoint, match="outside"):
        beads(golden, F(2, 1), p0, ThetaLatticeElement(1, 0, golden))
    with pytest.raises(NotDivisionPoint, match="within depth 64"):
        beads(golden, F(2, 1), p0, ThetaLatticeElement(2, -3, golden))
    with pytest.raises(ValueError):
        ses_check(golden, F(2, 1), p0, p0, p4)


def test_approximate_rank():
    chain = approximate_rank(golden, F(2, 1), 0.2, 1e-4)
    vals = [b.rank_theta.value() for b in chain]
    assert all(y > x for x, y in zip(vals, vals[1:]))
    assert all(v <= 0.2 for v in vals)
    assert 0.2 - vals[-1] < 1e-4
    assert len(chain) <= 30
    assert chain[0].labels == (F(5, 3),)
    assert {b.interval[0] for b in chain} == {root2.a}
    with pytest.raises(ValueError):
        approximate_rank(golden, F(2, 1), 0.5, 1e-4)
    with pytest.raises(ValueError):
        approximate_rank(golden, F(2, 1), 0.2, -1.0)
    # Fraction raises OverflowError and ZeroDivisionError on these
    with pytest.raises(ValueError, match="^target must be a finite rational, not inf$"):
        approximate_rank(golden, F(2, 1), float("inf"), 1e-4)
    with pytest.raises(ValueError, match="^tol must be a finite rational, not '1/0'$"):
        approximate_rank(golden, F(2, 1), 0.2, "1/0")
    # the library's own fractions are exact values too, but 1/0 has no value
    rank = approximate_rank(golden, F(2, 1), F(1, 5), F(1, 10**9))
    assert rank == approximate_rank(golden, F(2, 1), Fraction(1, 5), Fraction(1, 10**9))
    with pytest.raises(ValueError, match=r"^target must be a finite rational, not ReducedFraction\(1, 0\)$"):
        approximate_rank(golden, F(2, 1), F(1, 0), 1e-4)
    with pytest.raises(TolTooTight):
        approximate_rank(golden, F(2, 1), 0.2, 1e-30)


def test_approximate_rank_is_exact():
    # a depth-30 float put this chain's last rank 2.09e-7 below the target
    target, tol = Fraction("0.12232177361220535"), Fraction("1e-8")
    try:
        chain = approximate_rank(golden, F(2, 1), target, tol)
    except TolTooTight:
        return
    p, q = target.numerator, target.denominator
    low = target - tol
    signs = [golden.lattice_sign(q * b.rank_theta.m, q * b.rank_theta.n - p) for b in chain]
    assert all(sign <= 0 for sign in signs)
    last = chain[-1].rank_theta
    assert golden.lattice_sign(low.denominator * last.m, low.denominator * last.n - low.numerator) > 0
    # the range check is exact too: |2|_golden = 3 - golden lies in (0.38196, 0.38197)
    with pytest.raises(ValueError, match="strictly between"):
        approximate_rank(golden, F(2, 1), Fraction("0.38197"), tol)
    assert approximate_rank(golden, F(2, 1), Fraction("0.38196"), Fraction(1, 10))


_P = ThetaLatticeElement
_X, _OUT = _P(2, -3, golden), _P(1, 0, golden)  # inside but not a point; outside
silver = EventuallyPeriodic((1,), (2,))


def _on_silver(x):
    return _P(x.m, x.n, silver)


# what the comparison-based code raised; a cold and a warm tree must agree
_RAISES = [
    (lambda: beads(golden, F(1, 0), p0, p1), ValueError, "need slope(r) > theta"),
    (lambda: beads(golden, F(3, 1), p0, p1), ValueError, "need slope(r) - theta < 1"),
    (lambda: beads(golden, F(8, 5), p0, p1), ValueError, "need slope(r) > theta"),
    (lambda: beads(golden, F(2, 1), p0, _OUT), NotDivisionPoint, "ThetaLatticeElement(1, 0) lies outside the root interval"),
    (lambda: beads(golden, F(2, 1), p0, _X), NotDivisionPoint, "ThetaLatticeElement(2, -3) is not a division point within depth 64"),
    (lambda: beads(golden, F(2, 1), p1, p1), ValueError, "need c < d"),
    (lambda: beads(golden, F(2, 1), p3, p1), ValueError, "need c < d"),
    (lambda: beads(golden, F(2, 1), p4, _X), ValueError, "need c < d"),
    (lambda: beads(golden, F(2, 1), _on_silver(p0), _on_silver(p2)), MismatchedTheta, "elements live over different θ"),
    (lambda: beads(golden, F(2, 1), p0, _on_silver(p2)), MismatchedTheta, "elements live over different θ"),
    (lambda: ses_check(golden, F(2, 1), p0, p0, p4), ValueError, "need c < e < d (strictly)"),
    (lambda: ses_check(golden, F(2, 1), p0, p4, _X), ValueError, "need c < e < d (strictly)"),
    (lambda: ses_check(golden, F(2, 1), _X, p0, p4), ValueError, "need c < e < d (strictly)"),
    (lambda: ses_check(golden, F(2, 1), p4, p2, _OUT), ValueError, "need c < e < d (strictly)"),
    (lambda: ses_check(golden, F(2, 1), p0, _X, p4), NotDivisionPoint, "ThetaLatticeElement(2, -3) is not a division point within depth 64"),
    (lambda: ses_check(golden, F(2, 1), p0, p4, _OUT), NotDivisionPoint, "ThetaLatticeElement(1, 0) lies outside the root interval"),
    (lambda: ses_check(golden, F(3, 1), p0, p2, p4), ValueError, "need slope(r) - theta < 1"),
    (lambda: ses_check(golden, F(3, 1), p4, p2, p0), ValueError, "need c < e < d (strictly)"),
    (lambda: ses_check(golden, F(2, 1), *map(_on_silver, (p0, p1, p2))), ValueError, "need c < e < d (strictly)"),
    (lambda: ses_check(golden, F(2, 1), p0, p1, _on_silver(p2)), MismatchedTheta, "elements live over different θ"),
    (lambda: ses_check(golden, F(2, 1), _on_silver(p0), p1, p2), MismatchedTheta, "elements live over different θ"),
]


def test_errors_do_not_depend_on_what_the_tree_holds():
    golden._trees.clear()
    silver._trees.clear()
    for warm in (False, True):
        for call, kind, message in _RAISES:
            with pytest.raises(kind) as info:
                call()
            assert type(info.value) is kind and str(info.value) == message
        for theta, r in ((golden, F(2, 1)), (silver, F(3, 2)), (golden, F(3, 1))):
            division_points(theta, r, 6)


def _outcome(fn):
    try:
        return ("ok", fn())
    except PrecisionExhausted as exc:
        return ("PrecisionExhausted", str(exc), exc.needed_depth)
    except (NotDivisionPoint, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _beads_by_comparison(theta, r, c, d):
    _require_window(theta, r)
    if not c < d:
        raise ValueError("need c < d")
    root = root_interval(theta, r)
    locate_descent(root, c, _DEPTH_CAP)
    locate_descent(root, d, _DEPTH_CAP)
    return tuple(cover_recursive(root, c, d, _DEPTH_CAP))


_QUOTIENT = st.one_of(st.integers(1, 9), st.integers(1, 10**4))


@st.composite
def _slopes(draw):
    """A slope with a0 in -6..6 and quotients up to 10^4, or a finite prefix
    of one, with r = convergent 1 inside the bead window."""
    pre = [draw(st.integers(-6, 6))] + draw(st.lists(_QUOTIENT, min_size=1, max_size=5))
    theta = EventuallyPeriodic(pre, draw(st.lists(_QUOTIENT, min_size=1, max_size=3)))
    if draw(st.booleans()):
        theta = FinitePrefix([theta.quotient(i) for i in range(draw(st.integers(2, 10)))])
    return theta, theta.convergent(1)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_slopes(), st.integers(1, 8), st.booleans(), st.data())
def test_tree_matches_comparison_oracles(slope, depth, warm, data):
    theta, r = slope
    want = _outcome(lambda: division_points_sorted(theta, r, depth))
    if warm:
        assert _outcome(lambda: division_points(theta, r, depth)) == want
    else:
        assert not theta._trees  # each example draws a new slope object
    if want[0] != "ok":
        return
    points = want[1]
    probes = points + [_P(x.m, x.n + 1, theta) for x in points[:: max(1, len(points) // 3)]]
    pairs = st.lists(st.integers(0, len(probes) - 1), min_size=2, max_size=2, unique=True)
    for _ in range(8):
        i, j = sorted(data.draw(pairs))
        c, d = (probes[i], probes[j]) if data.draw(st.integers(0, 5)) else (probes[j], probes[i])
        got = _outcome(lambda: beads(theta, r, c, d).labels)
        assert got == _outcome(lambda: _beads_by_comparison(theta, r, c, d))
    assert _outcome(lambda: division_points(theta, r, depth)) == want


_SLOTTED = {
    "ThetaLatticeElement": lambda: p1,
    "ReducedFraction": lambda: F(8, 5),
    "DivisionInterval": lambda: _AB,
    "StableClass": lambda: StableClass(5, 3),
    "SheafClass": lambda: beads(golden, F(2, 1), p1, p3).summands,
    "BeadObject": lambda: beads(golden, F(2, 1), p1, p3),
    "SESReport": lambda: ses_check(golden, F(2, 1), p0, p1, p3),
}


@pytest.mark.parametrize("name", sorted(_SLOTTED))
def test_value_types_are_slotted(name):
    value = _SLOTTED[name]()
    assert type(value).__name__ == name and not hasattr(value, "__dict__")
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
    field = type(value).__slots__[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


def _fill(theta):
    """A depth-8 division tree, beads and SES checks, all kept by theta."""
    pts = division_points(theta, F(2, 1), 8)
    for i in range(0, 240, 16):
        assert ses_check(theta, F(2, 1), pts[i], pts[i + 5], pts[i + 16]).passed
    assert beads(theta, F(2, 1), pts[0], pts[-1]).labels == (F(2, 1),)


def _tree_calls(theta, points):
    """Bead windows, SES checks and the depth-6 points of one slope's tree,
    over points given as (m, n): a list of zero-argument calls."""
    pts = [_P(m, n, theta) for m, n in points]
    windows = [(0, 64), (1, 63), (5, 40), (17, 18), (33, 47)]
    calls = [lambda i=i, j=j: beads(theta, F(2, 1), pts[i], pts[j]).to_dict() for i, j in windows]
    calls += [lambda i=i: ses_check(theta, F(2, 1), pts[i], pts[i + 3], pts[i + 9]).to_dict() for i in range(0, 55, 6)]
    calls.append(lambda: [(x.m, x.n) for x in division_points(theta, F(2, 1), 6)])
    return calls


def test_threads_sharing_a_tree_agree_with_one_thread():
    # four threads grow a fresh slope's tree from different calls at once;
    # each tree entry is stored after the ones it needs, so no thread meets a
    # half-stored split and every answer matches a lone run's
    points = [(x.m, x.n) for x in division_points(golden, F(2, 1), 6)]
    want = [call() for call in _tree_calls(EventuallyPeriodic((1,), (1,)), points)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls = _tree_calls(EventuallyPeriodic((1,), (1,)), points)
            barrier = threading.Barrier(4)
            got = [{} for _ in range(4)]

            def run(t):
                barrier.wait()
                for n in range(len(calls)):  # thread t starts at a different call
                    i = (n + 4 * t) % len(calls)
                    try:
                        got[t][i] = calls[i]()
                    except Exception as exc:  # recorded, so the assert below shows it
                        got[t][i] = exc

            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for answers in got:
                assert [answers[i] for i in range(len(calls))] == want
    finally:
        sys.setswitchinterval(interval)


def test_slope_state_is_freed_with_the_slope():
    theta = EventuallyPeriodic((1,), (1,))
    _fill(theta)
    ref = weakref.ref(theta)
    del theta
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "make", [lambda: EventuallyPeriodic((1,), (1,)), lambda: FinitePrefix((1,) * 40)], ids=["periodic", "prefix"]
)
def test_slope_copies_carry_no_state(make):
    theta = make()
    _fill(theta)
    assert pickle.dumps(theta) == pickle.dumps(make())
    for twin in (copy.copy(theta), copy.deepcopy(theta), pickle.loads(pickle.dumps(theta))):
        assert type(twin) is type(theta) and twin == theta and hash(twin) == hash(theta)
        assert (twin._memo, twin._splits, twin._trees) == ([(1, 0)], {}, {})


def test_replace_on_division_interval():
    iv = dataclasses.replace(_AB, vertex=F(5, 3))
    assert iv == DivisionInterval(_AB.a, F(5, 3)) and iv.b == _AB.a + theta_norm(F(5, 3), golden)
    assert dataclasses.replace(_AB) == _AB


def test_to_dict_shapes():
    mid2 = beads(golden, F(2, 1), p1, p3)
    d = mid2.to_dict()
    assert d["labels"] == ["8/5", "5/3"]
    assert d["interval"][0] == {"m": -8, "n": 13}
    rep = ses_check(golden, F(2, 1), p0, p1, p3)
    assert rep.to_dict()["passed"] is True
    assert root2.to_dict()["vertex"] == "2/1"
