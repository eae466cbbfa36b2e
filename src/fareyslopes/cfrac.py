"""Irrational numbers as partial-quotient streams, and their convergents.

Two kinds of stream:

* ``EventuallyPeriodic`` — a genuine quadratic irrational given by a
  preperiod (starting with a₀ ∈ ℤ) and a nonempty repeating period; both are
  canonicalised at construction (minimal period, then minimal preperiod) so
  that structural equality decides value equality.
* ``FinitePrefix`` — only finitely many quotients are known.  Any question
  whose answer is not forced by the known quotients raises
  ``PrecisionExhausted`` carrying the depth that would have been consumed.

No floating representation enters any predicate here; floats appear only in
the convenience ``approx`` used by rendering and test oracles.
"""

from __future__ import annotations

import itertools
import re
from typing import Union

from .errors import PrecisionExhausted
from .exact import ReducedFraction, Value

_CF_RE = re.compile(
    r"^\s*\[\s*(-?\d+)\s*(?:;\s*(.*?))?\s*\]\s*$"
)


def _continuants(quotients):
    """(p, q, p′, q′): the last two convergents p/q, p′/q′ of [quotients]."""
    p, q, p_prev, q_prev = 1, 0, 0, 1
    for a in quotients:
        p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
    return p, q, p_prev, q_prev


def _minimal_period(period):
    """Smallest primitive period whose repetition gives ``period``."""
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[: d] * (n // d):
            return period[:d]


class IrrationalNumber:
    """Base class; use EventuallyPeriodic or FinitePrefix.

    The base holds the state and the contract.  Each instance keeps its own
    memo of convergents, splits (fractions and ints only) and division trees;
    the trees point back to it, so only the cyclic GC frees them.  A subclass
    gives its constructor arguments as ``_args()``, and equality, hash,
    pickling, repr, text and translation are derived from them here.
    """

    def __init__(self):
        self._memo, self._splits, self._trees = [(1, 0)], {}, {}

    def _args(self) -> tuple:
        """The constructor arguments, as tuples; the first one starts with a₀."""
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._args() == other._args())

    def __hash__(self):
        return hash(self._args())

    def __reduce__(self):
        return type(self), self._args()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(str(list(arg)) for arg in self._args())})"

    def translated(self, k: int) -> "IrrationalNumber":
        """The slope theta + k: same quotients except a0 shifted by k."""
        head, *rest = self._args()
        return type(self)((head[0] + k,) + head[1:], *rest)

    def quotient(self, i: int) -> int:
        raise NotImplementedError

    # -- convergent machinery (shared) --------------------------------

    def _ensure(self, i: int) -> None:
        """Extend the (p, q) memo so that convergent i is available."""
        # memo[k] holds (p, q) for convergent index k-1; memo[0] = (1, 0).
        # Each step reads the length once, as k, and writes slot k + 1, so
        # threads filling one memo at once write equal values to equal slots.
        while len(self._memo) < i + 2:
            k = len(self._memo) - 1  # convergent index to compute
            a = self.quotient(k)
            (p1, q1), (p2, q2) = self._memo[k], self._memo[k - 1] if k else (0, 1)
            self._memo[k + 1 : k + 2] = [(a * p1 + p2, a * q1 + q2)]

    def convergent(self, i: int) -> ReducedFraction:
        """β_i = p_i/q_i for i ≥ −1 (β₋₁ = 1/0)."""
        return ReducedFraction(*self.convergent_pair(i))

    def convergent_pair(self, i: int) -> tuple:
        """Raw (p_i, q_i) without reduction (always already coprime)."""
        if i < -1:
            raise ValueError("convergent index starts at -1")
        self._ensure(i)
        return self._memo[i + 1]

    def lattice_sign(self, m: int, n: int) -> int:
        """Sign of mθ + n, from Gosper's bracket on (m n; 0 1).

        Fed θ's quotients as in ``ratio_quotients``, the bracket's lower row
        (c d) starts at (0 1), is (1 0) after a₀, and every later quotient is
        ≥ 1, so from then on c ≥ 1 and d ≥ 0: no sign needs flipping, and
        the lower row is never read.  mθ + n lies strictly between a/c and
        (a + b)/(c + d), so its sign is decided when a·(a + b) ≥ 0: it is
        the sign of a + (a + b), 0 only for m = n = 0.  A FinitePrefix
        raises PrecisionExhausted at the first quotient that still leaves it
        open.
        """
        a, b = m, n
        for k in itertools.count():
            a, b = a * self.quotient(k) + b, a
            if a * (a + b) >= 0:
                return (2 * a + b > 0) - (2 * a + b < 0)

    def ratio_quotients(self, a: int, b: int, c: int, d: int):
        """The continued-fraction quotients of (aθ + b)/(cθ + d), as a stream.

        Gosper's homographic algorithm (HAKMEM 101): feeding θ's quotient t
        replaces (a b; c d) by (at + b  a; ct + d  c), so after a₀ … a_{k−1}
        the ratio is (aθ_k + b)/(cθ_k + d) for the complete quotient θ_k > 1.
        Once c and c + d share a sign (made nonnegative) it lies strictly
        between a/c and (a + b)/(c + d), and its floor n is decided when no
        integer lies strictly between them.  Yielding n turns (a b; c d)
        into (c d; a − nc b − nd), the matrix of 1/(ratio − n).  Prime the
        generator with ``next``; ``send(cap)`` then yields cap, and ends, as
        soon as the bracket's lower end reaches cap.  A FinitePrefix raises
        PrecisionExhausted at the first quotient it lacks.
        """
        if c == 0 and d == 0:
            raise ValueError("c*theta + d must be nonzero")
        cap = yield
        for k in itertools.count():
            t = self.quotient(k)
            a, b, c, d = a * t + b, a, c * t + d, c
            if c <= 0 and c + d <= 0:
                a, b, c, d = -a, -b, -c, -d
            while c >= 0 and c + d >= 0:
                if c > 0 and c + d > 0:
                    n = min(a // c, (a + b) // (c + d))
                    if a <= (n + 1) * c and a + b <= (n + 1) * (c + d):
                        cap = yield n
                        a, b, c, d = c, d, a - n * c, b - n * d
                        if c == d == 0:
                            return  # a rational ratio (ad = bc) has no more
                        continue
                if cap is not None and a >= cap * c and a + b >= cap * (c + d):
                    yield cap
                    return
                break

    def floor_ratio(self, a: int, b: int, c: int, d: int) -> int:
        """⌊(aθ + b)/(cθ + d)⌋, the first of ``ratio_quotients``; c = d = 0 is a ValueError."""
        stream = self.ratio_quotients(a, b, c, d)
        next(stream)
        return next(stream)

    def approx(self, depth: int = 30) -> float:
        """Float estimate from the depth-th convergent (oracle/render use only)."""
        try:
            p, q = self.convergent_pair(depth)
        except PrecisionExhausted:
            p, q = self.convergent_pair(self.available_depth())
        return p / q

    def available_depth(self) -> int:
        """Largest index i such that quotient(i) is known without error."""
        raise NotImplementedError

    # -- textual form --------------------------------------------------

    def __str__(self):
        """The form "[a0;a1,...]", with a period last as "(p1,...)", that ``from_string`` reads."""
        head, *period = self._args()
        rest = [str(a) for a in head[1:]] + ["(" + ",".join(str(a) for a in p) + ")" for p in period]
        return f"[{head[0]};{','.join(rest)}]" if rest else f"[{head[0]}]"

    @staticmethod
    def from_string(text: str):
        """Parse "[a0;a1,a2,...]" with an optional "(p1,p2,...)" period tail.

        Text that does not parse raises "not a continued fraction"; parsed
        quotients that no slope has raise the constructor's own message.
        """
        m = _CF_RE.match(text)
        try:
            if not m:
                raise ValueError
            pre = [int(m.group(1))]
            period = None
            rest = (m.group(2) or "").strip()
            if rest:
                pm = re.match(r"^(.*?)\(\s*([^()]*)\s*\)\s*$", rest)
                if pm:
                    # a preperiod before "(" ends in exactly one comma
                    *head, end = pm.group(1).split(",")
                    if end.strip():
                        raise ValueError
                    pre += [int(t) for t in head]
                    period = [int(t) for t in pm.group(2).split(",")]
                else:
                    pre += [int(t) for t in rest.split(",")]
        except ValueError:
            raise ValueError(f"not a continued fraction: {text!r}") from None
        if period is not None:
            return EventuallyPeriodic(pre, period)
        return FinitePrefix(pre)


class EventuallyPeriodic(IrrationalNumber):
    """Quadratic irrational [a₀; a₁, …, a_k, (b₁, …, b_ℓ)]."""

    def __init__(self, preperiod, period):
        preperiod = [int(a) for a in preperiod]
        period = [int(a) for a in period]
        if not preperiod:
            raise ValueError("a0 must be given explicitly")
        if not period:
            raise ValueError("period must be nonempty (rationals are not irrational)")
        if any(a < 1 for a in preperiod[1:]) or any(a < 1 for a in period):
            raise ValueError("partial quotients a_i must be >= 1 for i >= 1")
        period = _minimal_period(period)
        # Minimal preperiod: absorb trailing repeats into the period phase.
        while len(preperiod) > 1 and preperiod[-1] == period[-1]:
            preperiod = preperiod[:-1]
            period = [period[-1]] + period[:-1]
        self.preperiod = tuple(preperiod)
        self.period = tuple(period)
        super().__init__()
        # θ as a quadratic surd.  The purely periodic tail φ = [b₁; b₂, …]
        # solves φ = (pφ + p′)/(qφ + q′), so qφ² − (p − q′)φ − p′ = 0.  φ is
        # reduced (φ > 1, conjugate in (−1, 0)), hence
        # φ = (p − q′ + √Δ)/(2q) with Δ = (p − q′)² + 4qp′, and
        # θ = (Pφ + P′)/(Qφ + Q′) with Qφ + Q′ > 0.
        big_p, big_q, big_p1, big_q1 = _continuants(self.preperiod)
        p, q, p1, q1 = _continuants(self.period)
        self._surd = (big_p, big_q, big_p1, big_q1, p - q1, 2 * q)
        self._disc = (p - q1) ** 2 + 4 * q * p1

    def quotient(self, i: int) -> int:
        if i < 0:
            raise ValueError("quotient index starts at 0")
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def available_depth(self) -> int:
        return 10 ** 9  # effectively unbounded

    def _surd_coords(self, m: int, n: int) -> tuple:
        """(u, x) with mθ + n = (u + x·√Δ)/(2q(Qφ + Q′)), a positive denominator."""
        big_p, big_q, big_p1, big_q1, t, two_q = self._surd
        x = m * big_p + n * big_q
        return x * t + two_q * (m * big_p1 + n * big_q1), x

    def lattice_sign(self, m: int, n: int) -> int:
        """Sign of mθ + n in closed form: the sign of u + x·√Δ.

        |u| > |x|·√Δ exactly when u² > x²Δ, and then u decides; otherwise x
        does (Δ is not a square, so the two never balance unless u = x = 0,
        which happens only for m = n = 0).  No convergent is computed.
        """
        u, x = self._surd_coords(m, n)
        if u * u > x * x * self._disc:
            return 1 if u > 0 else -1
        return (x > 0) - (x < 0)

    def _args(self) -> tuple:
        return self.preperiod, self.period


class FinitePrefix(IrrationalNumber):
    """An irrational known only through finitely many partial quotients."""

    def __init__(self, quotients):
        quotients = [int(a) for a in quotients]
        if not quotients:
            raise ValueError("a0 must be given explicitly")
        if any(a < 1 for a in quotients[1:]):
            raise ValueError("partial quotients a_i must be >= 1 for i >= 1")
        self.quotients = tuple(quotients)
        super().__init__()

    def quotient(self, i: int) -> int:
        if i < 0:
            raise ValueError("quotient index starts at 0")
        if i >= len(self.quotients):
            raise PrecisionExhausted(
                f"prefix of {len(self.quotients)} quotients cannot answer depth {i}",
                needed_depth=i + 1,
            )
        return self.quotients[i]

    def available_depth(self) -> int:
        return len(self.quotients) - 1

    def _args(self) -> tuple:
        return (self.quotients,)


# -- comparison ------------------------------------------------------------

GREATER = 1
LESS = -1


def compare_theta_rational(theta: IrrationalNumber, r: ReducedFraction) -> int:
    """Exact order of θ against r ∈ ℚ∞: +1 when θ > r, −1 when θ < r.

    This is the sign of qθ − p for r = p/q, read off ``theta.lattice_sign``:
    closed form for EventuallyPeriodic θ, Gosper's bracket otherwise.  The
    same formula gives θ < ∞ = 1/0, as the sign of −1.  Equality never
    occurs (θ is irrational).  For FinitePrefix sources a PrecisionExhausted
    escapes when the known quotients do not decide.
    """
    return theta.lattice_sign(r.q, -r.p)


def common_prefix(x: IrrationalNumber, y: IrrationalNumber) -> int:
    """The first index k where the partial quotients of distinct x and y differ.

    Their shared quotients a₀ … a_{k−1} give the same convergents, which
    either slope's memo holds.  Canonical EventuallyPeriodic values that
    differ also differ in some quotient, so the scan ends; a FinitePrefix
    that runs out first raises PrecisionExhausted, even when both prefixes
    are the same.
    """
    if isinstance(x, EventuallyPeriodic) and x == y:
        raise ValueError("slopes must be distinct")
    k = 0
    while x.quotient(k) == y.quotient(k):
        k += 1
    return k


def _first_difference(x: IrrationalNumber, y: IrrationalNumber) -> tuple[int, int, int]:
    """(order of x against y, first index k where they differ, the smaller
    of their quotients at k), from one scan of the shared prefix.

    The complete quotient at k lies strictly between a_k and a_k + 1, so the
    larger a_k gives the larger number when k is even and the smaller one
    when k is odd.
    """
    k = common_prefix(x, y)
    a, b = x.quotient(k), y.quotient(k)
    return (LESS if (a < b) == (k % 2 == 0) else GREATER), k, min(a, b)


def compare_irrationals(x: IrrationalNumber, y: IrrationalNumber) -> int:
    """Exact order of two distinct irrationals: +1 when x > y, −1 when x < y,
    decided at the first index where their quotients differ."""
    return _first_difference(x, y)[0]


Slope = Union[ReducedFraction, IrrationalNumber]


def slope_lt(a: Slope, b: Slope) -> bool:
    """Exact a < b on the real line (infinity greatest), any kinds.

    Two irrationals are ordered by their first differing partial quotient
    a_k, b_k: a < b when a_k < b_k at even k and when a_k > b_k at odd k.
    Equal irrationals raise ValueError.
    """
    if isinstance(a, ReducedFraction):
        if isinstance(b, ReducedFraction):
            return a < b
        return compare_theta_rational(b, a) == GREATER
    if isinstance(b, ReducedFraction):
        return compare_theta_rational(a, b) == LESS
    return compare_irrationals(a, b) == LESS


def _slopes_equal(a: Slope, b: Slope) -> bool:
    """a == b where equality is decided: never for a FinitePrefix."""
    if isinstance(a, FinitePrefix) or isinstance(b, FinitePrefix):
        return False
    return isinstance(a, ReducedFraction) == isinstance(b, ReducedFraction) and a == b


def _require_distinct(a: Slope, b: Slope) -> None:
    """PrecisionExhausted when a FinitePrefix agrees with the other
    irrational on every known quotient, so the two may be equal."""
    if isinstance(a, ReducedFraction) or isinstance(b, ReducedFraction):
        return
    if isinstance(a, FinitePrefix) or isinstance(b, FinitePrefix):
        common_prefix(a, b)


def bottom(theta: IrrationalNumber, theta2: IrrationalNumber) -> ReducedFraction:
    """The unique simplest fraction strictly between theta and theta2.

    Smallest denominator, ties broken toward the smaller fraction.  With k
    the first index where the partial quotients a_k, b_k differ, it is the
    common prefix followed by min(a_k, b_k) + 1: [a0; a1, ..., a_{k-1},
    min(a_k, b_k) + 1] (for k = 0 the integer min(a0, b0) + 1).  Requires
    theta < theta2.
    """
    order, k, low = _first_difference(theta, theta2)
    if order != LESS:
        raise ValueError("need theta < theta2")
    return semiconvergent(theta, k - 2, low + 1) if k else ReducedFraction(low + 1, 1)


# -- convergent and semiconvergent tables -----------------------------------


class ConvergentTable(Value):
    """Rows (i, β_i, a_i) for i = −1..n; a₋₁ is reported as None."""

    __slots__ = ("theta", "rows")

    def __init__(self, theta: IrrationalNumber, rows: list):
        self._init(theta, rows)

    def fractions(self):
        return [beta for (_, beta, _) in self.rows]


def convergents(theta: IrrationalNumber, n: int) -> ConvergentTable:
    """The table of convergents β₋₁ = 1/0, β₀, …, β_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rows = [(-1, ReducedFraction(1, 0), None)]
    for i in range(n + 1):
        rows.append((i, theta.convergent(i), theta.quotient(i)))
    return ConvergentTable(theta, rows)


def semiconvergents(theta: IrrationalNumber, i: int) -> list:
    """The row of ``semiconvergent``: β_{i,m} for m = 0..a_{i+2}.

    The first entry is β_i and the last is β_{i+2}; consecutive entries are
    Farey neighbours.  Convergent i + 1 is read before quotient i + 2.
    """
    head = semiconvergent(theta, i, 0)
    return [head] + [semiconvergent(theta, i, m) for m in range(1, theta.quotient(i + 2) + 1)]


def semiconvergent(theta: IrrationalNumber, i: int, m: int) -> ReducedFraction:
    """β_{i,m} = (p_i + m·p_{i+1})/(q_i + m·q_{i+1}), without the whole row."""
    if i < -1:
        raise ValueError("semiconvergent row starts at i = -1")
    p_i, q_i = theta.convergent_pair(i)
    p_n, q_n = theta.convergent_pair(i + 1)
    if m < 0:
        raise ValueError("m must be >= 0")
    return ReducedFraction(p_i + m * p_n, q_i + m * q_n)
