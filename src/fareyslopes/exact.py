"""Exact arithmetic on ℚ∞ = ℚ ∪ {∞}.

A ``ReducedFraction`` is a primitive integral vector (p, q) in the closed
upper half plane minus the origin: gcd(|p|, q) = 1, q ≥ 0, and the single
point at infinity is 1/0.  The real-line order extends to ∞ by making it
larger than every finite value; cross-multiplication p·q' < p'·q realises
that order uniformly because ∞ contributes (1, 0).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import total_ordering

_FRACTION_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+))?\s*$")


@total_ordering
@dataclass(frozen=True, slots=True)
class ReducedFraction:
    """A reduced fraction p/q with q ≥ 0; q = 0 encodes ∞ = 1/0."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if q == 0 and p == 0:
            raise ValueError("0/0 is not a point of the projective line")
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1  # the projective line has a single point at infinity
        else:
            g = math.gcd(abs(p), q)
            p, q = p // g, q // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    # -- construction ------------------------------------------------

    @classmethod
    def infinity(cls) -> "ReducedFraction":
        return cls(1, 0)

    @classmethod
    def from_string(cls, text: str) -> "ReducedFraction":
        """Parse "p/q" (or a bare integer "n" as n/1)."""
        m = _FRACTION_RE.match(text)
        if not m:
            raise ValueError(f"not a fraction: {text!r}")
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) is not None else 1
        return cls(p, q)

    # -- predicates and views ----------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def as_fraction(self):
        """The value as a ``fractions.Fraction``, imported here since nothing else needs it."""
        from fractions import Fraction

        if self.is_infinite:
            raise ValueError("∞ has no finite value")
        return Fraction(self.p, self.q)

    def __float__(self) -> float:
        if self.is_infinite:
            return math.inf
        return self.p / self.q

    # -- order (real line; ∞ greater than everything) ----------------

    def __lt__(self, other: "ReducedFraction") -> bool:
        return self.p * other.q < other.p * self.q

    # -- arithmetic helpers ------------------------------------------

    def mediant(self, other: "ReducedFraction") -> "ReducedFraction":
        return ReducedFraction(self.p + other.p, self.q + other.q)

    def det(self, other: "ReducedFraction") -> int:
        """Determinant p·q' − p'·q of the two lifted vectors."""
        return self.p * other.q - other.p * self.q

    def is_farey_neighbor(self, other: "ReducedFraction") -> bool:
        """True when the pair spans an edge of the Farey tessellation."""
        return abs(self.det(other)) == 1

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def __repr__(self) -> str:
        return f"ReducedFraction({self.p}, {self.q})"


INFINITY = ReducedFraction(1, 0)
ZERO = ReducedFraction(0, 1)
