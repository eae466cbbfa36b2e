"""Divisibility invariants of a quotient stream, and the CRT constructor.

The central object is the chain c_i = gcd(q_{2i}, a_{2i+2}, a_{2i+4}, …) of
gcds of even-index convergent denominators with the even-index quotients past
them; c_i divides c_j for j ≥ i, and the limit (eventual constant) is the
invariant c.  For an eventually periodic stream the tail gcd is the gcd of
one full cycle of even-index period quotients, so every c_i is computed
exactly and the chain is *certified* constant past the preperiod, where the
length of the cycle it lists has a closed form.  A finite prefix can only
ever give lower bounds.

The constructor at the bottom produces quotient prefixes whose chain grows
strictly forever: every prime of q_{2i} divides a_{2i+2} exactly once and a
fresh prime joins at every step — the Chinese-remainder recipe.
"""

from __future__ import annotations

import math

from .cfrac import EventuallyPeriodic, FinitePrefix, IrrationalNumber
from .errors import PrecisionExhausted, PrimePickerExhausted, SeedRejected
from .exact import Value

# -- report types ------------------------------------------------------------
# to_dict keeps the {"type": name, field: ...} shape that the benchmark's
# stored digests (bench/ops.py:canon) hash


class Stabilized(Value):
    __slots__ = ("c",)

    def __init__(self, c: int):
        self._init(c)

    def to_dict(self) -> dict:
        return {"type": "Stabilized", "c": self.c}


class LowerBoundOnly(Value):
    __slots__ = ("last",)

    def __init__(self, last: int):
        self._init(last)

    def to_dict(self) -> dict:
        return {"type": "LowerBoundOnly", "last": self.last}


class CThetaReport(Value):
    __slots__ = ("theta", "c_values", "status")

    def __init__(self, theta: IrrationalNumber, c_values: list, status):
        self._init(theta, c_values, status)  # c_values: (i, c_i); status: Stabilized or LowerBoundOnly

    def chain(self):
        return [c for (_, c) in self.c_values]

    def to_dict(self) -> dict:
        return {
            "type": "CThetaReport",
            "theta": str(self.theta),
            "c_values": [[i, c] for (i, c) in self.c_values],
            "status": None if self.status is None else self.status.to_dict(),
        }


# -- the c invariant ---------------------------------------------------------


def c_theta(theta: IrrationalNumber, budget: int = 64) -> CThetaReport:
    """The chain c_i = gcd(q_{2i}, a_{2i+2}, a_{2i+4}, …) and its limit.

    The report holds the pairs (i, c_i) and a status, Stabilized(c) or
    LowerBoundOnly(last), and is built once the chain is complete.

    The tail gcds G_i = gcd(a_{2i+2}, a_{2i+4}, …) are folded once, backward
    from the last listed entry: G_i = gcd(a_{2i+2}, G_{i+1}) and
    c_i = gcd(q_{2i}, G_i).  The fold starts from one of two tails.

    EventuallyPeriodic input starts from A, the gcd of one full cycle of
    even-index period quotients past the preperiod, and always stabilises:
    A divides every even-index quotient there, so q_{2i} mod A and hence
    c_i = gcd(q_{2i}, A) are constant.  The chain lists the preperiod
    entries, then that constant once per step of the cycle of states
    (period phase, q_{2i} mod A, q_{2i+1} mod A), whose length is found in
    closed form, plus the entry where the first state repeats.

    FinitePrefix input starts from G = 0 at the cutoff min(available depth,
    budget) and reports LowerBoundOnly: the true c_i divides each reported
    value (deeper quotients can only shrink a gcd), so no limit is claimed —
    the report is divisibility-chain evidence only.  Entries that would fold
    no quotient at all (bare q_{2i}) are not evidence and are omitted.
    """
    if budget < 2:
        raise ValueError("budget must be >= 2")
    if isinstance(theta, EventuallyPeriodic):
        n = (len(theta.preperiod) + 1) // 2  # entries inside the preperiod
        ell = len(theta.period)
        # Past the preperiod A divides every a_{2i+2}, so q_{2i+2} ≡ q_{2i}
        # ≡ Q (mod A) and c_i = gcd(Q, A) from here on, while q_{2i+1} mod A
        # steps by Q·a_{2i+3}.  The state (phase, q_{2i} mod A, q_{2i+1}
        # mod A) therefore first returns after L = ℓ·A / gcd(A, Q·S) steps,
        # S being the sum of the odd-index quotients over one period, and the
        # chain lists that cycle once, closing with its repeated entry.
        A = math.gcd(*(theta.quotient(2 * j + 2) for j in range(n, n + ell)))
        Q = theta.convergent_pair(2 * n)[1] % A
        S = sum(theta.quotient(2 * j + 3) for j in range(n, n + ell))
        c = math.gcd(Q, A)
        L = ell * A // math.gcd(A, Q * S)
        tail, g = [(j, c) for j in range(n, n + L + 1)], A
    else:
        n = min(theta.available_depth(), budget) // 2
        if n < 1:
            raise PrecisionExhausted(
                "need at least the quotient a2 to fold a gcd", needed_depth=3
            )
        tail, g = [], 0
    head = []
    for i in range(n - 1, -1, -1):
        g = math.gcd(theta.quotient(2 * i + 2), g)
        head.append((i, math.gcd(theta.convergent_pair(2 * i)[1], g)))
    status = Stabilized(tail[0][1]) if tail else LowerBoundOnly(head[0][1])
    return CThetaReport(theta, head[::-1] + tail, status)


def d_chain(theta: IrrationalNumber, n: int) -> list:
    """d_i = gcd(q_{2i}, a_{2i+2}) for i = 0..n−1.

    The identity gcd(q_{2i}, q_{2i+2}) = gcd(q_{2i}, a_{2i+2}) — immediate
    from q_{2i+2} = a_{2i+2}·q_{2i+1} + q_{2i} and coprimality of
    consecutive denominators — is cross-checked on every entry, also under
    ``python -O``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    for i in range(n):
        _, q2i = theta.convergent_pair(2 * i)
        a = theta.quotient(2 * i + 2)
        d = math.gcd(q2i, a)
        _, q2i2 = theta.convergent_pair(2 * i + 2)
        if d != math.gcd(q2i, q2i2):
            raise AssertionError(f"gcd(q_{2 * i}, a_{2 * i + 2}) != gcd(q_{2 * i}, q_{2 * i + 2})")
        out.append(d)
    return out


def bounded_quotients(theta: IrrationalNumber, depth: int = 0):
    """(max of a₁..a_depth, verified depth); for an eventually periodic
    stream the bound is global and exact, signalled by verified depth None."""
    if isinstance(theta, EventuallyPeriodic):
        pool = list(theta.preperiod[1:]) + list(theta.period)
        return (max(pool), None)
    if depth < 1:
        raise ValueError("depth must be >= 1 for a finite prefix")
    theta.quotient(depth)  # a short prefix raises here, asking for a_depth's own place
    return (max(theta.quotient(i) for i in range(1, depth + 1)), depth)


# -- the CRT constructor ------------------------------------------------------

# Only the constructor factors integers.  Trial division by 2 and the odd
# numbers below 2**10 leaves a cofactor that is prime below 2**20, and below
# _MR_BOUND Miller–Rabin with the first 13 prime bases is exact (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
# sympy is imported only for a composite cofactor, or one at or above the
# bound, so every other entry point, and most constructions, skip its import.

_TRIAL = 1 << 10
_MR_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strip_small(n: int) -> tuple[dict, int]:
    """({p: e} for the factors p < 2**10 of n, the cofactor of n past them).

    A cofactor below 2**20 is 1 or prime; n < 1 is returned unchanged."""
    factors = {}
    p = 2
    while p < _TRIAL and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
        p += 1 if p == 2 else 2
    return factors, n


def _settled_prime(m: int) -> bool | None:
    """Whether m > 1, free of factors below 2**10, is prime; None at or
    above _MR_BOUND, where only sympy can tell."""
    if m < _TRIAL * _TRIAL:
        return True
    if m >= _MR_BOUND:
        return None
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:  # x never reached m − 1; a 1 reached by squaring proves m composite
            return False
    return True


def factorint(n: int) -> dict:
    """The prime factorization {p: e} of n, equal to sympy's ``factorint(n)``.

    Factors below 2**10 are found by trial division and a prime cofactor is
    settled in-library; sympy factors only a composite cofactor, or one at or
    above _MR_BOUND, and its factors join the dict."""
    factors, rest = _strip_small(n)
    if rest != 1:
        if rest > 1 and _settled_prime(rest):
            factors[rest] = 1
        else:
            from sympy import factorint

            factors.update(factorint(rest))
    return factors


def isprime(n: int) -> bool:
    """Whether n is prime: exact in-library below _MR_BOUND, sympy above."""
    factors, rest = _strip_small(n)
    if factors or rest < 2:
        return factors == {n: 1}
    settled = _settled_prime(rest)
    if settled is None:
        from sympy import isprime

        return isprime(n)
    return settled


def nextprime(n: int) -> int:
    """The smallest prime greater than n, as sympy's ``nextprime`` gives it."""
    p = max(n + 1, 2)
    while not isprime(p):
        p += 1
    return p


def _fresh_prime(forbidden: int) -> int:
    """Smallest prime not dividing ``forbidden``, searched up to 10**6."""
    p = 2
    while p <= 10**6:
        if forbidden % p:
            return p
        p = nextprime(p)
    raise PrimePickerExhausted(f"no fresh prime below {10**6}")


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """x ≡ r1 (mod m1), x ≡ r2 (mod m2) for coprime m1, m2; smallest x ≥ 1."""
    inv = pow(m1, -1, m2)
    x = (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2)
    return x if x else m1 * m2


def construct_special_theta(
    a0: int,
    a1: int,
    a2: int,
    depth: int,
) -> FinitePrefix:
    """Quotient prefix a₀..a_{2·depth+2} making the d- and c-chains grow.

    Each constructed even quotient is rad(q_{2k})·x where x solves
      x ≡ −q_{2k+1}⁻¹ · (q_{2k}/rad(q_{2k}))  (mod P_fresh)
      x ≡ 1                                    (mod P) for every P | q_{2k}
    with P_fresh the smallest prime not dividing q_{2k}·q_{2k+1} (searched
    up to 10**6; PrimePickerExhausted past it).  Then every
    prime of q_{2k} divides a_{2k+2} exactly once and P_fresh | q_{2k+2},
    so one fresh prime joins q_{2k+2} per step.  Odd quotients are 1 (any
    positive value works).

    depth counts constructed steps: depth 0 returns just the seed.
    """
    if a1 < 1 or a2 < 1:
        raise SeedRejected("a1 and a2 must be positive")
    if any(e > 1 for e in factorint(a2).values()):
        raise SeedRejected(f"a2 = {a2} is not squarefree")
    if depth < 0:
        raise ValueError("depth must be >= 0")

    quotients = [a0, a1, a2]
    q_prev, q_cur = a1, a2 * a1 + 1  # q_1, q_2
    for _ in range(depth):
        quotients.append(1)  # a_{2k+1}
        q_odd = q_cur + q_prev
        fac = factorint(q_cur)
        rad = math.prod(fac)
        cof = q_cur // rad
        fresh = _fresh_prime(q_cur * q_odd)
        target = (-pow(q_odd, -1, fresh) * cof) % fresh
        x = _crt_pair(1, rad, target, fresh) if rad > 1 else (target or fresh)
        a_even = rad * x
        quotients.append(a_even)
        q_prev, q_cur = q_odd, a_even * q_odd + q_cur
    return FinitePrefix(quotients)


def special_conditions_hold(theta: FinitePrefix) -> bool:
    """Verify, at every constructed even index 2i ≥ 4:
    (1) each prime of q_{2i−2} divides a_{2i} exactly once, and
    (2) q_{2i} has a prime that q_{2i−2} lacks.

    Only q_{2i−2} is factored.  (1) tests each of its primes against
    a_{2i}; (2) holds when dividing every prime shared with q_{2i−2} out of
    q_{2i} leaves more than 1."""
    top = theta.available_depth()
    for idx in range(4, top + 1, 2):
        _, q_prev = theta.convergent_pair(idx - 2)
        _, q_here = theta.convergent_pair(idx)
        a = theta.quotient(idx)
        if any(a % prime or a % (prime * prime) == 0 for prime in factorint(q_prev)):
            return False
        rest, shared = q_here, math.gcd(q_here, q_prev)
        while shared > 1:
            rest //= shared
            shared = math.gcd(rest, shared)
        if rest == 1:
            return False
    return True
