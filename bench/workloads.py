"""The four workloads: seeded op lists, how each op runs, and how it is checked.

A workload is a list of *specs*: plain tuples of strings and integers that
fix one public-API call.  ``specs(workload, seed)`` gives the ops of one pass
for a seed; ``specs(workload, None)`` gives the workload's whole *pool*, the
finite set every seed draws from.  ``expected/<workload>.json`` stores one
digest per pool spec, so any seed's ops can be checked against stored
digests.  Why each workload exists:

* division-sweep -- criterion 7's shape: four fixed slopes, the division
  tree, division points, bead windows and an SES sweep over point triples.
  Millions of shallow comparisons and heavy reuse of cached tree pieces.
* deep-walks -- one slope per pass driven deep (diagrams, cutting sequences,
  two-ended diagrams, products, shared-prefix bottoms) plus a ladder of one
  huge partial quotient a_k.  Few calls, deep convergents, no division work.
  It keeps the pair of slopes sharing 601 quotients, on which the library
  gives up after 512.
* random-slopes -- a stream of many distinct small-quotient slopes, each used
  briefly (one op = fourteen calls on one slope) by the walk, invariant,
  sheaf and render layers.  Little reuse; the library's caches only grow.
* cli-cold -- the README's CLI commands, one fresh interpreter each, so
  interpreter start and the library import dominate.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import oracle

WORKLOADS = ("division-sweep", "deep-walks", "random-slopes", "cli-cold")

GOLDEN = "[1;(1)]"
# Shares its first 601 quotients with GOLDEN; slope_lt and bottom on this pair
# raise AssertionError at the commit that introduced the benchmark.
GOLDEN_601 = "[1;" + ",".join(["1"] * 600) + ",(2)]"


class CheckFailed(Exception):
    """An op returned a result that fails an independent exact check."""


def key(spec) -> str:
    return json.dumps(spec, separators=(",", ":"))


# --------------------------------------------------------------------------
# seeded generation (the benchmark's own, independent of the test suite)


def canonical(pre, period) -> str:
    """Canonical text of [pre; (period)]: minimal period, then minimal
    preperiod, so equal values get equal text."""
    pre, period = list(pre), list(period)
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            period = period[:d]
            break
    while len(pre) > 1 and pre[-1] == period[-1]:
        pre.pop()
        period = [period[-1]] + period[:-1]
    return str(oracle.Slope(pre, period))


def _small_slope(rng: random.Random) -> str:
    a0 = rng.randint(0, 4)
    pre = [a0] + [rng.randint(1, 4) for _ in range(rng.randint(0, 2))]
    period = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    return canonical(pre, period)


def _small_fraction(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return "1/0"
    return oracle.fraction_str(oracle.reduce(rng.randint(-6, 9), rng.randint(1, 6)))


def _stable_class(rng: random.Random) -> str:
    if rng.random() < 0.08:
        return f"{rng.randint(1, 6)}/0"
    while True:
        d, r = rng.randint(-15, 15), rng.randint(1, 12)
        if math.gcd(abs(d), r) == 1:
            return f"{d}/{r}"


def _bundle_pair(rng: random.Random) -> tuple:
    """Two stable classes, not both torsion (their hom space is undetermined)."""
    while True:
        a, b = _stable_class(rng), _stable_class(rng)
        if not (a.endswith("/0") and b.endswith("/0")):
            return (a, b)


def _ordered(x: str, y: str) -> tuple:
    sx, sy = oracle.Slope.parse(x), oracle.Slope.parse(y)
    return (x, y) if oracle.slope_lt(sx, sy) else (y, x)


# -- division-sweep --------------------------------------------------------

# (theta, far end r = convergent 1): r - theta lies in (0, 1), the bead window.
DIVISION_SLOPES = (("[1;(1)]", "2/1"), ("[1;(2)]", "3/2"), ("[0;1,(2,3)]", "1/1"), ("[2;(1,3)]", "3/1"))
TREE_LEVELS = 10
POINT_DEPTHS = 8
SWEEP_DEPTH = 6  # bead windows and SES triples use the 2**6 + 1 points of this level
SWEEP_POINTS = 2 ** SWEEP_DEPTH + 1
SES_POINTS = 22  # one point from each of 22 consecutive blocks: 1540 triples
BEAD_WINDOWS = 40


def _division(seed):
    out = []
    rng = random.Random(f"division-sweep:{seed}")
    for t in range(len(DIVISION_SLOPES)):
        out += [("divide_level", t, level) for level in range(1, TREE_LEVELS + 1)]
        out += [("division_points", t, d) for d in range(1, POINT_DEPTHS + 1)]
        pairs = list(itertools.combinations(range(SWEEP_POINTS), 2))
        if seed is None:
            out += [("beads", t, i, j) for i, j in pairs]
            continue
        out += [("beads", t, i, j) for i, j in rng.sample(pairs, BEAD_WINDOWS)]
        cuts = [SWEEP_POINTS * b // SES_POINTS for b in range(SES_POINTS + 1)]
        chosen = [rng.randrange(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        out += [("ses", t, i, j, k) for i, j, k in itertools.combinations(chosen, 3)]
    return out


# -- deep-walks ------------------------------------------------------------

WALK_DEPTHS = (20, 40, 80, 160)
TWO_ENDED_DEPTHS = (10, 20, 40, 80)
PRODUCT_DEPTHS = (12, 24, 48)
PREFIX_LENGTHS = (8, 32, 128)
BIG_QUOTIENTS = (10, 100, 1000, 10000)
_PERIODS = sorted(set(itertools.permutations((1, 1, 2, 3))))


def _deep_slope_ops(theta: str) -> list:
    s = oracle.Slope.parse(theta)
    partner = canonical([s.pre[0] + 1], list(reversed(s.period)))
    out = [("diagram", theta, "1/0", d) for d in WALK_DEPTHS]
    out += [("cutting", theta, d) for d in WALK_DEPTHS]
    out += [("two_ended", theta, partner, d) for d in TWO_ENDED_DEPTHS]
    for k in PRODUCT_DEPTHS:
        a, b = s.convergent(k), s.convergent(k + 3)
        out.append(("product", theta, oracle.fraction_str(a), oracle.fraction_str(b), k))
    for n in PREFIX_LENGTHS:
        quotients = s.quotients(n + 1)
        other = canonical(quotients, [s.quotient(n + 1) + 1])
        out.append(("bottom",) + _ordered(theta, other))
        out.append(("slope_lt", theta, other))
    return out


def _deep(seed):
    slopes = [canonical([a0], p) for a0 in (0, 1, 2) for p in _PERIODS]
    if seed is None:
        out = [op for theta in slopes for op in _deep_slope_ops(theta)]
        out += [("cutting", canonical([0], [a, c]), 2) for a in BIG_QUOTIENTS for c in (1, 2, 3, 4)]
    else:
        rng = random.Random(f"deep-walks:{seed}")
        out = _deep_slope_ops(rng.choice(slopes))
        out += [("cutting", canonical([0], [a, rng.randint(1, 4)]), 2) for a in BIG_QUOTIENTS]
    out.append(("bottom",) + _ordered(GOLDEN, GOLDEN_601))
    out.append(("slope_lt", GOLDEN, GOLDEN_601))
    return out


# -- random-slopes ---------------------------------------------------------

POOL_SLOPES = 512
PASS_SLOPES = 256


def _slope_pool() -> list:
    rng = random.Random("random-slopes:pool")
    pool = []
    seen = set()
    while len(pool) < POOL_SLOPES:
        theta = _small_slope(rng)
        if theta not in seen:
            seen.add(theta)
            pool.append(theta)
    return pool


def _random_slope_ops(pool: list, i: int) -> list:
    theta, other = pool[i], pool[(i + 1) % len(pool)]
    rng = random.Random(f"random-slopes:{i}")
    a, b = _small_fraction(rng), _small_fraction(rng)
    far = _small_fraction(rng)
    seed3 = (rng.randint(0, 3), rng.randint(1, 3), rng.choice((1, 2, 3, 5, 6, 7, 10)))
    return [
        ("bottom",) + _ordered(theta, other),
        ("product", theta, a, b, 0),
        ("cutting", theta, 15),
        ("kclass", theta, 20),
        ("c_theta", theta),
        ("endo_bound", theta),
        ("hom_ext",) + _bundle_pair(rng),
        ("classify", theta + "-", other + "-"),
        ("classify", _stable_class(rng), theta + "+"),
        ("enumerate", 2 + i % 4),
        ("construct",) + seed3 + (3,),
        ("diagram", theta, far, 6),
        ("render_diagram", theta, far, 6),
        ("coaster", theta, 3),
    ]


def _random(seed):
    """One op per slope: the slope's whole brief use, so an op's latency is
    the cost of one fresh slope.  The pool lists the calls one by one."""
    pool = _slope_pool()
    if seed is None:
        return [call for i in range(len(pool)) for call in _random_slope_ops(pool, i)]
    chosen = random.Random(f"random-slopes:{seed}").sample(range(len(pool)), PASS_SLOPES)
    return [("session", i, _random_slope_ops(pool, i)) for i in chosen]


# -- cli-cold --------------------------------------------------------------

SVG_OUT = ".bench_out/tess.svg"

# One list of interchangeable argument vectors per README command; the seed
# picks one of each and shuffles their order.
CLI_COMMANDS = (
    [["cf", "convergents", t, "-n", n] for t in ("[1;(1)]", "[1;(2)]", "[0;1,(2,3)]") for n in ("6", "12")],
    [["cf", "ctheta", t] for t in ("[0;1,2,(1,3)]", "[1;(1)]", "[2;(2,4)]")],
    [["cf", "construct", "--seed", s, "--depth", "4"] for s in ("1,1,2", "0,2,3", "2,1,1")],
    [["farey", "diagram", t, "1/0", "--depth", d] for t in ("[1;(1)]", "[1;(2)]") for d in ("6", "10")],
    [["farey", "cutting", t, "--depth", "8"] for t in ("[1;(2)]", "[0;(1,3)]", "[2;1,(1,2)]")],
    [["farey", "bottom", a, b] for a, b in (("[1;(2)]", "[1;(1)]"), ("[0;(3)]", "[0;2,(1)]"))],
    [["farey", "product", p, q, "--theta", t] for p, q, t in (("3/2", "1/0", "[1;(1)]"), ("5/3", "2/1", "[1;(2)]"))],
    [["sheaf", "chi", a, b] for a, b in (("0/1", "3/1"), ("1/2", "2/3"))],
    [["sheaf", "hom", a, b] for a, b in (("0/1", "1/1"), ("1/2", "3/1"))],
    [["sheaf", "enumerate", "--max-rank", k] for k in ("2", "3")],
    [["sheaf", "classify", "[1;(2)]-", "[1;(1)]+", "--depth", "4"]],
    [["divide", "points", "[1;(1)]", "2/1", "--depth", d] for d in ("3", "4")],
    [["divide", "beads", "[1;(1)]", "2/1", "(0,0)", "(-3,5)"]],
    [["divide", "ses", "[1;(1)]", "2/1", "(0,0)", "(-3,5)", "(-1,2)"]],
    [["render", "svg", "tessellation", "--depth", d, "--out", SVG_OUT] for d in ("5", "6")],
    [["render", "svg", "coaster", "--theta", t, "--depth", "3", "--format", "json"] for t in ("[1;(1)]", "[1;(2)]")],
    [["sheaf", "hom", "2/4", "1/1"], ["farey", "bottom", "[1;(1)]", "garbage"]],  # exit 2
    [["cf", "convergents", "[1;1,1]", "-n", "8"], ["farey", "cutting", "[1;2,3]", "--depth", "8"]],  # exit 3
    [["farey", "bottom", GOLDEN_601, GOLDEN]],
)


def cli_exit_code(argv) -> int:
    if argv in CLI_COMMANDS[-3]:
        return 2
    if argv in CLI_COMMANDS[-2]:
        return 3
    return 0


def _cli(seed):
    if seed is None:
        return [("cli",) + tuple(argv) for variants in CLI_COMMANDS for argv in variants]
    rng = random.Random(f"cli-cold:{seed}")
    out = [("cli",) + tuple(rng.choice(variants)) for variants in CLI_COMMANDS]
    rng.shuffle(out)
    return out


def specs(workload: str, seed):
    """The ops of one pass for ``seed``, or the whole pool for ``None``."""
    build = {"division-sweep": _division, "deep-walks": _deep, "random-slopes": _random, "cli-cold": _cli}
    out = build[workload](seed)
    if seed is None:  # a pool lists each distinct op once
        out = list(dict.fromkeys(out))
    return out


def tags(spec) -> dict:
    """Size parameters of an op, kept on its span to give scaling series."""
    kind = spec[0]
    if kind in ("diagram", "two_ended", "cutting"):
        out = {"D": spec[-1]}
        if kind == "cutting" and spec[-1] == 2:  # the big-quotient ladder
            out = {"a_k": oracle.Slope.parse(spec[1]).period[0]}
        return out
    if kind == "product" and spec[-1]:
        return {"D": spec[-1]}
    if kind in ("bottom", "slope_lt"):
        x, y = (oracle.Slope.parse(s) for s in spec[1:3])
        return {"shared_prefix": oracle.first_difference(x, y)}
    return {}
