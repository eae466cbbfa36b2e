"""Exact arithmetic on ℚ∞ = ℚ ∪ {∞}.

A ``ReducedFraction`` is a primitive integral vector (p, q) in the closed
upper half plane minus the origin: gcd(|p|, q) = 1, q ≥ 0, and the single
point at infinity is 1/0.  The real-line order extends to ∞ by making it
larger than every finite value; cross-multiplication p·q' < p'·q realises
that order uniformly because ∞ contributes (1, 0).

All of the library's value types (fractions, lattice points, triangles, the
c(θ) reports, the classes and reports of sheaves, division intervals, bead
objects and SES reports) are plain slotted classes on the ``Value`` base
below rather than dataclasses: a class lists its fields in ``__slots__`` and
sets each once in its own ``__init__``, and the base derives equality, hash,
repr, pickling and frozen-ness from that list, so no CLI call imports
``dataclasses`` and the dozen modules it pulls in (``inspect``, ``ast``,
``dis``, ...), nor generates code for each class.

Types built on hot paths (a fraction, a lattice element, the division types)
set fields through their slot descriptors' ``__set__``, taken once at import
and about as cheap as a plain assignment; ``_set`` is the slow general path.
"""

from __future__ import annotations

import math
import re
from functools import total_ordering

_FRACTION_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+))?\s*$")
_set = object.__setattr__  # how an __init__ sets a field of a frozen value


class Value:
    """Base of the value types: the fields are the names in ``__slots__``.

    As ``@dataclass(frozen=True)`` would: ``==`` holds between instances of one
    class with equal fields (else NotImplemented), the hash is that of the
    field tuple, the repr reads ``Name(field=value, ...)``, and assigning or
    deleting an attribute raises ``dataclasses.FrozenInstanceError``.  Copies
    and pickles rebuild through ``__init__``, whose parameters follow
    ``__slots__``.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, from an ``__init__``."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only a failing call loads dataclasses

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class MutableValue(Value):
    """A ``Value`` whose fields may be reassigned, and so is unhashable."""

    __slots__ = ()
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


@total_ordering
class ReducedFraction(Value):
    """A reduced fraction p/q with q ≥ 0; q = 0 encodes ∞ = 1/0."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if q == 0 and p == 0:
            raise ValueError("0/0 is not a point of the projective line")
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1  # the projective line has a single point at infinity
        else:
            g = math.gcd(abs(p), q)
            p, q = p // g, q // g
        _set_p(self, p)
        _set_q(self, q)

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

    # the base's, unrolled: every walk, split and dict of fractions runs these
    def __eq__(self, other):
        if other.__class__ is not ReducedFraction:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

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


def _setters(cls) -> tuple:
    """The ``__set__`` of each slot descriptor of cls, in ``__slots__`` order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


_set_p, _set_q = _setters(ReducedFraction)
INFINITY = ReducedFraction(1, 0)
ZERO = ReducedFraction(0, 1)
