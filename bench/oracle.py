"""Independent exact continued-fraction arithmetic for the benchmark's checks.

Nothing here imports the library: slopes are (preperiod, period) tuples of
partial quotients, fractions are (p, q) integer pairs with q >= 0, and every
answer comes from comparing quotient sequences, not from the library's
convergent sandwich or mediant walks.  The checks built on it therefore hold
whatever the library's algorithms become.
"""

from __future__ import annotations

import math
import re

_CF_RE = re.compile(r"^\s*\[\s*(-?\d+)\s*(?:;\s*(.*?))?\s*\]\s*$")


class Slope:
    """The quadratic irrational [a0; pre..., (period...)]."""

    def __init__(self, preperiod, period):
        if not preperiod or not period:
            raise ValueError("need a0 and a nonempty period")
        self.pre = tuple(int(a) for a in preperiod)
        self.period = tuple(int(a) for a in period)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        m = _CF_RE.match(text)
        if not m:
            raise ValueError(f"not a periodic continued fraction: {text!r}")
        rest = (m.group(2) or "").strip()
        pm = re.match(r"^(.*?)\(\s*([^()]*)\s*\)\s*$", rest)
        if not pm:
            raise ValueError(f"no period in {text!r}")
        head = pm.group(1).strip().rstrip(",")
        pre = [int(m.group(1))] + ([int(t) for t in head.split(",")] if head else [])
        return cls(pre, [int(t) for t in pm.group(2).split(",")])

    def quotient(self, i: int) -> int:
        if i < len(self.pre):
            return self.pre[i]
        return self.period[(i - len(self.pre)) % len(self.period)]

    def quotients(self, n: int) -> list:
        return [self.quotient(i) for i in range(n)]

    def cycle_end(self) -> int:
        """An index past which the quotient stream has repeated a full period."""
        return len(self.pre) + len(self.period)

    def convergent(self, i: int) -> tuple:
        """(p_i, q_i) by the three-term recurrence, i >= -1."""
        p0, q0, p1, q1 = 0, 1, 1, 0
        for k in range(i + 1):
            a = self.quotient(k)
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        return (p1, q1)

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.pre[1:])
        tail = "(" + ",".join(str(a) for a in self.period) + ")"
        return f"[{self.pre[0]};{inner + ',' if inner else ''}{tail}]"


def fraction_quotients(p: int, q: int) -> list:
    """Canonical continued fraction of p/q (q > 0): last quotient >= 2 unless
    it is the only one."""
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return out


def reduce(p: int, q: int) -> tuple:
    if q < 0:
        p, q = -p, -q
    if q == 0:
        return (1, 0)
    g = math.gcd(abs(p), q)
    return (p // g, q // g)


def parse_fraction(text: str) -> tuple:
    head, _, tail = text.strip().partition("/")
    return reduce(int(head), int(tail) if tail else 1)


def fraction_str(f: tuple) -> str:
    return f"{f[0]}/{f[1]}"


def first_difference(x: Slope, y: Slope) -> int:
    """Index of the first differing quotient of two distinct slopes."""
    limit = max(x.cycle_end(), y.cycle_end()) + len(x.period) * len(y.period) + 1
    for k in range(limit):
        if x.quotient(k) != y.quotient(k):
            return k
    raise ValueError("the two slopes are equal")


def slope_lt(x: Slope, y: Slope) -> bool:
    """x < y for distinct irrationals: quotient order alternates with depth."""
    k = first_difference(x, y)
    return (x.quotient(k) < y.quotient(k)) != (k % 2 == 1)


def theta_gt(theta: Slope, f: tuple) -> bool:
    """theta > p/q, infinity greatest."""
    p, q = f
    if q == 0:
        return False
    b = fraction_quotients(p, q)
    for k, bk in enumerate(b):
        ak = theta.quotient(k)
        if ak != bk:
            return (ak > bk) != (k % 2 == 1)
    # Past the rational's last quotient b_n theta has a finite tail where the
    # rational has an infinite one; a smaller tail at depth n + 1 lowers the
    # value exactly when n + 1 is even.
    return len(b) % 2 == 1


def from_quotients(quotients) -> tuple:
    p0, q0, p1, q1 = 0, 1, 1, 0
    for a in quotients:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return reduce(p1, q1)


def simplest_between(x: Slope, y: Slope) -> tuple:
    """The minimal-denominator fraction strictly between two irrationals:
    the common quotient prefix followed by the smaller differing quotient
    plus one."""
    k = first_difference(x, y)
    return from_quotients(x.quotients(k) + [min(x.quotient(k), y.quotient(k)) + 1])


def cutting_runs(theta: Slope, depth: int) -> list:
    """Run lengths of the cutting sequence: a_0, a_1, ... starting with L
    above 1; a_1, a_2, ... starting with R inside the unit interval (slopes
    below it are translated up, which leaves the tail unchanged)."""
    if theta.quotient(0) >= 1:
        lengths, first = theta.quotients(depth), "L"
    else:
        lengths, first = [theta.quotient(i + 1) for i in range(depth)], "R"
    other = "R" if first == "L" else "L"
    return [[first if i % 2 == 0 else other, n] for i, n in enumerate(lengths)]


def lattice_sign(theta: Slope, m: int, n: int) -> int:
    """Sign of m*theta + n."""
    if m == 0:
        return (n > 0) - (n < 0)
    above = theta_gt(theta, reduce(-n, m))
    return (1 if above else -1) * (1 if m > 0 else -1)


def theta_norm(theta: Slope, f: tuple) -> tuple:
    """|p/q|_theta = |q*theta - p| as the positive lattice pair (m, n)."""
    p, q = f
    if q == 0:
        return (0, 1)
    return (q, -p) if theta_gt(theta, f) else (-q, p)
