import ast
import inspect
import itertools
import math
import operator
import os
import random
import subprocess
import sys

import pytest
import sympy
from sympy import factorint

import fareyslopes
from fareyslopes import invariants
from fareyslopes.cfrac import EventuallyPeriodic, FinitePrefix
from fareyslopes.errors import PrecisionExhausted, SeedRejected
from fareyslopes.invariants import (
    CThetaReport,
    LowerBoundOnly,
    Stabilized,
    bounded_quotients,
    c_theta,
    construct_special_theta,
    d_chain,
    special_conditions_hold,
)

from _oracles import (
    c_theta_by_refolding,
    c_theta_by_state_cycle,
    random_theta,
    special_conditions_by_factoring,
)

golden = EventuallyPeriodic((1,), (1,))
sqrt2 = EventuallyPeriodic((1,), (2,))


# -- c(theta) -----------------------------------------------------------------


def test_golden_stabilizes_to_one():
    rep = c_theta(golden)
    assert rep.status == Stabilized(1)
    assert set(rep.chain()) == {1}


def test_known_stabilized_values():
    # [0; 1, 2, (1, 3)]: q2 = 3 and every even quotient from a4 on is 3
    rep = c_theta(EventuallyPeriodic((0, 1, 2), (1, 3)))
    assert rep.status == Stabilized(3)
    assert rep.chain()[0] == 1 and rep.chain()[1] == 3
    # sqrt2: q0 = 1, so c_0 = 1 and the whole chain collapses
    assert c_theta(sqrt2).status == Stabilized(1)


# the {"type": name, field: ...} shape that the benchmark's stored digests
# (bench/ops.py:canon) hash
_REPORT_DICTS = {
    "[1;(1)]": {
        "type": "CThetaReport", "theta": "[1;(1)]", "c_values": [[0, 1], [1, 1], [2, 1]],
        "status": {"type": "Stabilized", "c": 1},
    },
    "[0;1,2,(1,3)]": {
        "type": "CThetaReport", "theta": "[0;1,2,(1,3)]", "c_values": [[0, 1], [1, 3], [2, 3], [3, 3], [4, 3]],
        "status": {"type": "Stabilized", "c": 3},
    },
    "[1;1,1,1,6,1,110,1,1040910]": {
        "type": "CThetaReport", "theta": "[1;1,1,1,6,1,110,1,1040910]",
        "c_values": [[0, 1], [1, 2], [2, 10], [3, 510]], "status": {"type": "LowerBoundOnly", "last": 510},
    },
}


def test_report_to_dict_keeps_the_digest_shape():
    thetas = [golden, EventuallyPeriodic((0, 1, 2), (1, 3)), construct_special_theta(1, 1, 1, 3)]
    assert isinstance(thetas[-1], FinitePrefix)
    assert {str(theta): c_theta(theta).to_dict() for theta in thetas} == _REPORT_DICTS


def test_chain_is_a_divisibility_chain():
    rng = random.Random(10)
    for _ in range(60):
        theta = random_theta(rng)
        rep = c_theta(theta)
        chain = rep.chain()
        assert isinstance(rep.status, Stabilized)
        for ci, cj in zip(chain, chain[1:]):
            assert cj % ci == 0
        # the stabilized value is a multiple of every recorded c_i
        for ci in chain:
            assert rep.status.c % ci == 0


def test_brute_force_fold_agrees():
    # fold many even-index quotients literally and compare prefixes
    rng = random.Random(11)
    for _ in range(40):
        theta = random_theta(rng)
        rep = c_theta(theta)
        for i, c_i in rep.c_values:
            _, q2i = theta.convergent_pair(2 * i)
            g = q2i
            for j in range(2 * i + 2, 2 * i + 400, 2):
                g = math.gcd(g, theta.quotient(j))
            assert g == c_i


@pytest.mark.parametrize("period", [(1, 10007), (2, 10007)])
def test_long_state_cycle_stabilizes(period):
    # the (phase, q mod A) state cycle here is about 2A = 20014 steps long
    theta = EventuallyPeriodic((0,), period)
    rep = c_theta(theta)
    assert rep.status == Stabilized(1)
    assert len(rep.c_values) > 20000
    for i, c_i in rep.c_values[:60]:
        _, q2i = theta.convergent_pair(2 * i)
        assert c_i == math.gcd(q2i, *(theta.quotient(j) for j in range(2 * i + 2, 2 * i + 8, 2)))


def test_c_theta_matches_state_cycle_oracle():
    # A, the gcd of the even-index tail quotients, is forced above 1 by
    # scaling the period quotients the even steps reach, so the cycle of
    # (phase, q_2i mod A, q_2i+1 mod A) is long and c may exceed 1
    rng = random.Random(14)
    thetas = [golden, EventuallyPeriodic((0, 1, 2), (1, 3)), EventuallyPeriodic((0,), (1, 10007))]
    for _ in range(400):
        big_a = rng.choice((2, 3, 4, 6, 10, 12, 30, 97))
        pre = [rng.randint(-5, 5)] + [rng.randint(1, 40) for _ in range(rng.randint(0, 5))]
        ell = rng.randint(1, 4)
        period = [
            rng.randint(1, 20) * (big_a if ell % 2 or (len(pre) + j) % 2 == 0 else 1)
            for j in range(ell)
        ]
        thetas.append(EventuallyPeriodic(pre, period))
    limits = set()
    for theta in thetas:
        rep = c_theta(theta)
        c_values, c = c_theta_by_state_cycle(theta)
        assert (rep.c_values, rep.status) == (c_values, Stabilized(c)), theta
        limits.add(c > 1)
    assert limits == {True, False}


def test_finite_prefix_lower_bounds():
    theta = FinitePrefix((1,) * 12)
    rep = c_theta(theta)
    assert isinstance(rep.status, LowerBoundOnly)
    assert rep.status.last == 1
    # true c_i divides every reported fold
    full = c_theta(golden)
    for (i, bound), (_, exact) in zip(rep.c_values, full.c_values):
        assert bound % exact == 0
    with pytest.raises(PrecisionExhausted):
        c_theta(FinitePrefix((5, 3)))
    with pytest.raises(ValueError):
        c_theta(golden, budget=1)


def test_c_theta_on_a_prefix_matches_the_refolding_oracle():
    # even quotients from a set with common factors, so that the folded gcds
    # exceed 1; budgets on both sides of the prefix's depth, odd and even
    rng = random.Random(35)
    raised, seen = [], set()
    for _ in range(600):
        a0 = rng.randint(-6, 6)
        theta = FinitePrefix([a0] + [rng.choice((1, 2, 3, 4, 6, 12, 30)) for _ in range(rng.randint(0, 59))])
        budget = rng.randint(2, 70)
        try:
            c_values, last = c_theta_by_refolding(theta, budget)
        except PrecisionExhausted as expected:
            with pytest.raises(PrecisionExhausted) as got:
                c_theta(theta, budget)
            assert (str(got.value), got.value.needed_depth) == (str(expected), expected.needed_depth)
            raised.append(theta.available_depth())
            continue
        assert c_theta(theta, budget).to_dict() == {
            "type": "CThetaReport",
            "theta": str(theta),
            "c_values": [[i, c] for (i, c) in c_values],
            "status": {"type": "LowerBoundOnly", "last": last},
        }, (theta, budget)
        seen.add((min(theta.available_depth(), budget) % 2, last > 1, a0 <= 0))
    assert raised and max(raised) == 1
    assert seen == set(itertools.product((0, 1), (False, True), (False, True)))


# -- d chain ------------------------------------------------------------------


def test_d_chain_golden():
    assert d_chain(golden, 6) == [1] * 6


def test_d_chain_rejects_a_negative_n():
    assert d_chain(golden, 0) == []
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        d_chain(golden, -1)


def test_d_chain_matches_denominator_gcd():
    rng = random.Random(12)
    for _ in range(40):
        theta = random_theta(rng)
        ds = d_chain(theta, 8)
        for i, d in enumerate(ds):
            _, q2i = theta.convergent_pair(2 * i)
            _, q2i2 = theta.convergent_pair(2 * i + 2)
            assert d == math.gcd(q2i, q2i2)


# -- invariant checks under python -O ----------------------------------------

_PREAMBLE = """
import sys
import fareyslopes.division as div
from fareyslopes.cfrac import EventuallyPeriodic
from fareyslopes.exact import ReducedFraction as F
from fareyslopes.invariants import d_chain
if not sys.flags.optimize:
    sys.exit("not running under python -O")
golden = EventuallyPeriodic((1,), (1,))
"""
_BEADS = "pts = div.division_points(golden, F(2, 1), 2); div.beads(golden, F(2, 1), pts[1], pts[4])"
_BROKEN = {
    # a_{2i+2} disagrees with the memoized convergents from i = 1 on
    "gcd(q_2, a_4) != gcd(q_2, q_4)": "golden.convergent_pair(8); golden.quotient = lambda i: 6; d_chain(golden, 3)",
    # the cover drops a label, so the pieces no longer tile [c, d]
    "piece norms must tile the interval exactly": "tree = div._DivisionTree; cover = tree.cover; "
    "tree.cover = lambda *a: cover(*a)[:-1]; " + _BEADS,
    "rotated rank must match": "rank = div.rotated_rank; div.rotated_rank = lambda s, t: rank(s, t) + rank(s, t); "
    + _BEADS,
}


def _last_error_under_python_O(script):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fareyslopes.__file__))}
    done = subprocess.run(
        [sys.executable, "-O", "-c", _PREAMBLE + script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    return done.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize("message", sorted(_BROKEN))
def test_invariant_checks_run_under_python_O(message):
    assert _last_error_under_python_O(_BROKEN[message]) == f"AssertionError: {message}"


def test_stored_label_norms_are_checked_under_python_O():
    # the stored norm of the label 3/2, which the bead's cover holds, is off by one
    corrupt = (
        "tree = div._tree(golden, F(2, 1)); phase, cls, (m, n) = tree.label(F(3, 2)); "
        "tree.labels[F(3, 2)] = (phase, cls, (m, n + 1)); "
    )
    want = "AssertionError: piece norms must tile the interval exactly"
    assert _last_error_under_python_O(corrupt + _BEADS) == want


def _src_nodes():
    """(file name, node) for every syntax node of the library's source."""
    src = os.path.dirname(fareyslopes.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            yield from ((name, node) for node in ast.walk(tree))


def test_src_has_no_bare_asserts():
    # python -O strips assert statements; every check in the library raises
    found = [f"{name}:{node.lineno}" for name, node in _src_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def _is_functools_cache(node) -> bool:
    caches = ("lru_cache", "cache")
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(alias.name in caches for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr in caches and getattr(node.value, "id", None) == "functools"


def test_src_has_no_functools_caches():
    # a slope keeps its own memo, freed with it; a module-level cache keyed
    # by slopes would keep every slope it has seen alive
    found = [f"{name}:{node.lineno}" for name, node in _src_nodes() if _is_functools_cache(node)]
    assert found == []


def _imports_dataclasses(stmt) -> bool:
    if isinstance(stmt, ast.Import):
        return any(alias.name == "dataclasses" for alias in stmt.names)
    return isinstance(stmt, ast.ImportFrom) and stmt.module == "dataclasses"


def test_no_module_imports_dataclasses():
    # the value types derive eq, hash and repr from exact.Value, so no call
    # pays for importing dataclasses; only Value's error path, assigning to
    # or deleting a field of a frozen value, loads it for FrozenInstanceError
    error_path, found = set(), []
    for name, node in _src_nodes():
        if name == "exact.py" and isinstance(node, ast.FunctionDef) and node.name in ("__setattr__", "__delattr__"):
            error_path.update((name, id(inner)) for inner in ast.walk(node))
        elif _imports_dataclasses(node) and (name, id(node)) not in error_path:
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_src_has_no_unreferenced_private_names():
    # a module-level private function, class or constant that no code in
    # the library reads any more is left over from a change that moved on
    defined, used = {}, set()
    for name, node in _src_nodes():
        if isinstance(node, ast.Module):
            for stmt in node.body:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                for ident in [getattr(stmt, "name", None)] + [getattr(t, "id", None) for t in targets]:
                    if ident and ident.startswith("_") and not ident.startswith("__"):
                        defined[ident] = f"{name}:{stmt.lineno} {ident}"
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.Attribute, ast.alias)):
            used.add(getattr(node, "attr", None) or node.name)
    assert sorted(where for ident, where in defined.items() if ident not in used) == []


# -- quotient bounds ----------------------------------------------------------


def test_bounded_quotients():
    assert bounded_quotients(golden) == (1, None)
    assert bounded_quotients(sqrt2) == (2, None)
    assert bounded_quotients(EventuallyPeriodic((9, 1, 7), (2,))) == (7, None)
    pre = FinitePrefix((1, 3, 2, 5))
    assert bounded_quotients(pre, depth=3) == (5, 3)
    with pytest.raises(PrecisionExhausted):
        bounded_quotients(pre, depth=9)
    with pytest.raises(ValueError):
        bounded_quotients(pre, depth=0)


def test_bounded_quotients_needed_depth_answers():
    # a_6 is the seventh quotient: the hint asks for 7, not the 6 already held
    quotients = (2, 1, 4, 1, 1, 1, 3, 1)
    with pytest.raises(PrecisionExhausted, match=r"^prefix of 6 quotients cannot answer depth 6$") as short:
        bounded_quotients(FinitePrefix(quotients[:6]), 6)
    assert bounded_quotients(FinitePrefix(quotients[: short.value.needed_depth]), 6) == (4, 6)


# -- the constructor ----------------------------------------------------------


def test_constructor_conditions_hold():
    for a0, a1, a2 in ((1, 1, 2), (0, 2, 3), (2, 1, 1), (1, 3, 10)):
        theta = construct_special_theta(a0, a1, a2, depth=4)
        assert theta.quotients[:3] == (a0, a1, a2)
        assert special_conditions_hold(theta)


def test_constructor_chains_grow():
    theta = construct_special_theta(1, 1, 2, depth=5)
    ds = d_chain(theta, 5)
    assert all(b > a for a, b in zip(ds, ds[1:]))
    assert all(b % a == 0 for a, b in zip(ds, ds[1:]))
    chain = c_theta(theta).chain()
    assert all(b > a for a, b in zip(chain, chain[1:]))
    # each step's gcd is exactly the radical of the previous even denominator
    for i, d in enumerate(ds):
        _, q2i = theta.convergent_pair(2 * i)
        assert d == math.prod(factorint(q2i))


def test_constructor_rejections():
    with pytest.raises(SeedRejected):
        construct_special_theta(1, 1, 4, depth=2)  # a2 not squarefree
    with pytest.raises(SeedRejected):
        construct_special_theta(1, 0, 2, depth=2)
    with pytest.raises(ValueError):
        construct_special_theta(1, 1, 2, depth=-1)
    # depth 0 is just the seed
    assert construct_special_theta(1, 1, 2, depth=0).quotients == (1, 1, 2)


def test_conditions_match_factoring_oracle():
    # prefixes built like the constructor's, each even quotient rad(q_{2k})
    # times a small cofactor, so both conditions hold and fail
    rng = random.Random(13)
    outcomes = set()
    for _ in range(300):
        qs = [rng.randint(-3, 3), rng.randint(1, 4), rng.randint(1, 4)]
        for _ in range(rng.randint(1, 4)):
            qs.append(rng.randint(1, 3))
            _, q = FinitePrefix(qs).convergent_pair(len(qs) - 2)
            qs.append(math.prod(factorint(q)) * rng.randint(1, 8))
        want = special_conditions_by_factoring(FinitePrefix(qs))
        assert special_conditions_hold(FinitePrefix(qs)) == want, qs
        outcomes.add(want)
    assert outcomes == {True, False}


def test_conditions_reject_tampering():
    theta = construct_special_theta(1, 1, 2, depth=3)
    qs = list(theta.quotients)
    qs[4] += 1  # break condition (1) at the first constructed index
    assert not special_conditions_hold(FinitePrefix(qs))


def _smallest_prime_not_dividing(n):
    p = 2
    while n % p == 0 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


def test_fresh_prime_matches_brute_force():
    # the constructor's fresh prime: the smallest prime not dividing q_{2k}*q_{2k+1}
    primorials = list(itertools.accumulate((2, 3, 5, 7, 11, 13, 17, 19, 23, 29), operator.mul))
    for n in [*range(1, 2001), *primorials]:
        assert invariants._fresh_prime(n) == _smallest_prime_not_dividing(n), n
    assert invariants._fresh_prime(primorials[-1]) == 31


# -- factoring without sympy --------------------------------------------------

_MR_BOUND = 3317044064679887385961981  # a strong pseudoprime to bases 2..41
_PSEUDOPRIMES = [
    561, 1105, 1729,  # Carmichael numbers
    1171 * 2341 * 3511,  # a Carmichael number with every factor past trial division
    2047, 3215031751, 3825123056546413051, 318665857834031151167461,  # strong pseudoprimes
]
_PAST_TRIAL = [1031 * 1033, 1031**2, 2**61 - 1, (2**61 - 1) * (2**31 - 1)]


def test_isprime_and_nextprime_match_sympy(monkeypatch):
    hard = _PSEUDOPRIMES + _PAST_TRIAL
    want = [sympy.isprime(n) for n in range(-2, 20000)]
    want_next = [sympy.nextprime(n) for n in range(-2, 3000)]
    want_hard = {n: sympy.isprime(n) for n in hard + [_MR_BOUND]}
    # below the bound no answer needs sympy
    monkeypatch.setattr(sympy, "isprime", None)
    assert [invariants.isprime(n) for n in range(-2, 20000)] == want
    assert [invariants.nextprime(n) for n in range(-2, 3000)] == want_next
    below = [n for n in hard if n < _MR_BOUND]
    assert [invariants.isprime(n) for n in below] == [want_hard[n] for n in below]
    monkeypatch.undo()
    assert {n: invariants.isprime(n) for n in want_hard} == want_hard


# the largest pseudoprime and the bound are left out: sympy takes ~0.4 s to
# split each, and isprime above covers them
@pytest.mark.parametrize("n", _PSEUDOPRIMES[:-1] + _PAST_TRIAL)
def test_factorint_matches_sympy(n):
    assert invariants.factorint(n) == factorint(n)


def test_seed_grid_quotients_match_sympy_helpers(monkeypatch):
    seeds = [(a0, a1, a2) for a0 in range(4) for a1 in (1, 2, 3) for a2 in (1, 2, 3, 5, 6, 7, 10)]
    ours = [construct_special_theta(*seed, depth=4).quotients for seed in seeds]
    for name in ("factorint", "isprime", "nextprime"):
        monkeypatch.setattr(invariants, name, getattr(sympy, name))
    assert [construct_special_theta(*seed, depth=4).quotients for seed in seeds] == ours


def test_tracer_binds_the_factoring_helpers():
    # bench/tracer.py wraps these module-level functions by name (its
    # SYMPY_NAMES); without one of them a traced bench run fails
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    (names,) = [
        ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "SYMPY_NAMES"
    ]
    assert sorted(names) == ["factorint", "isprime", "nextprime"]
    for name in names:
        fn = vars(invariants)[name]
        assert inspect.isfunction(fn) and fn.__module__ == invariants.__name__
