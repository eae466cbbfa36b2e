"""The rank-two lattice L_θ = ℤθ + ℤ and its antisymmetric pairing.

An element is a pair (m, n) standing for the real number mθ + n.  Because θ
is irrational the sign of any nonzero element is decidable exactly:
``IrrationalNumber.lattice_sign`` reads it off θ's quadratic-surd form or,
for a finite prefix, off Gosper's bracket on its quotients.

The pairing is χ((m, n), (m', n')) = m'n − mn'; it is ℤ-bilinear and
antisymmetric, and on the positive lifts of two fractions its absolute value
recovers the fraction determinant.
"""

from __future__ import annotations

import math

from .cfrac import GREATER, IrrationalNumber, compare_theta_rational
from .errors import MismatchedTheta
from .exact import ReducedFraction, Value, _setters


class ThetaLatticeElement(Value):
    """The element m·θ + n of L_θ.  (0, 0) is allowed and has sign 0."""

    __slots__ = ("m", "n", "theta")

    def __init__(self, m: int, n: int, theta: IrrationalNumber):
        _set_m(self, m)
        _set_n(self, n)
        _set_theta(self, theta)

    def _check(self, other: "ThetaLatticeElement") -> None:
        if self.theta is not other.theta and self.theta != other.theta:
            raise MismatchedTheta("elements live over different θ")

    # -- linear structure ---------------------------------------------

    def __add__(self, other: "ThetaLatticeElement") -> "ThetaLatticeElement":
        self._check(other)
        return ThetaLatticeElement(self.m + other.m, self.n + other.n, self.theta)

    def __sub__(self, other: "ThetaLatticeElement") -> "ThetaLatticeElement":
        self._check(other)
        return ThetaLatticeElement(self.m - other.m, self.n - other.n, self.theta)

    def __neg__(self) -> "ThetaLatticeElement":
        return ThetaLatticeElement(-self.m, -self.n, self.theta)

    def scaled(self, k: int) -> "ThetaLatticeElement":
        return ThetaLatticeElement(k * self.m, k * self.n, self.theta)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ThetaLatticeElement)
            and self.m == other.m
            and self.n == other.n
            and self.theta == other.theta
        )

    def __hash__(self):
        return hash((self.m, self.n))

    # -- exact sign and order ------------------------------------------

    def sign(self) -> int:
        """Sign of the real value mθ + n, computed exactly."""
        return self.theta.lattice_sign(self.m, self.n)

    def __lt__(self, other: "ThetaLatticeElement") -> bool:
        self._check(other)
        return self.theta.lattice_sign(self.m - other.m, self.n - other.n) < 0

    def __le__(self, other: "ThetaLatticeElement") -> bool:
        return self == other or self < other

    # -- views ----------------------------------------------------------

    def value(self, depth: int = 30) -> float:
        """Float estimate of mθ + n (render/test oracle use only)."""
        return self.m * self.theta.approx(depth) + self.n

    def is_primitive(self) -> bool:
        return math.gcd(abs(self.m), abs(self.n)) == 1

    def __repr__(self):
        return f"ThetaLatticeElement({self.m}, {self.n})"


_set_m, _set_n, _set_theta = _setters(ThetaLatticeElement)


def chi(x: ThetaLatticeElement, y: ThetaLatticeElement) -> int:
    """χ((m, n), (m', n')) = m'n − mn'."""
    if x.theta != y.theta:
        raise MismatchedTheta("χ needs both elements over the same θ")
    return y.m * x.n - x.m * y.n


def theta_norm(r: ReducedFraction, theta: IrrationalNumber) -> ThetaLatticeElement:
    """|p/q|_θ = |qθ − p| as the positive primitive lattice lift.

    Returns (q, −p) when θ > p/q and (−q, p) when θ < p/q; the same rule
    lifts ∞ = 1/0, which lies above θ, to (0, 1) of value 1.
    """
    if compare_theta_rational(theta, r) == GREATER:
        return ThetaLatticeElement(r.q, -r.p, theta)
    return ThetaLatticeElement(-r.q, r.p, theta)


def norm_to_fraction(x: ThetaLatticeElement) -> ReducedFraction:
    """Inverse of theta_norm on positive primitive elements."""
    if not x.is_primitive():
        raise ValueError("lattice element is not primitive")
    if x.sign() <= 0:
        raise ValueError("only positive elements are norms of fractions")
    # (q, −p) ↦ p/q and (−q, p) ↦ p/q collapse to ReducedFraction(−n, m),
    # whose constructor normalises the sign of the denominator; (0, 1) ↦ 1/0.
    return ReducedFraction(-x.n, x.m)
