"""Exact interval division, bead objects, and rotated-rank approximation.

A root interval of length |r|_theta (a lattice element, never a float) is
split recursively: each piece carries a fraction label, and the two children
of a piece carry the left/right child vertices of its label's diagram, with
lengths |l1|_theta and |r1|_theta summing exactly to the parent length.  The
division points of this binary tree are dense; unions of pieces between two
division points are encoded by bead objects (direct sums of shifted stable
classes read off a drop-and-merge game), whose rotated rank is exactly the
interval length.  Chains of bead objects then realise any target rank below
|r|_theta in the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple, Union

from .cfrac import GREATER, LESS, IrrationalNumber, compare_theta_rational
from .errors import NotDivisionPoint, TolTooTight
from .exact import ReducedFraction
from .farey import left_right_vertices
from .lattice import ThetaLatticeElement, theta_norm
from .sheaves import SheafClass, StableClass

__all__ = [
    "DivisionInterval",
    "BeadObject",
    "SESReport",
    "root_interval",
    "divide",
    "division_points",
    "beads",
    "ses_check",
    "rotated_rank",
    "approximate_rank",
]

_DEPTH_CAP = 64


# --------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class DivisionInterval:
    """An interval [a, b] in L_theta with b - a = |vertex|_theta.

    The endpoints are exact lattice elements; the vertex is the fraction
    labelling this piece of the division tree.
    """

    a: ThetaLatticeElement
    b: ThetaLatticeElement
    vertex: ReducedFraction

    def __post_init__(self):
        if self.b - self.a != theta_norm(self.vertex, self.a.theta):
            raise ValueError("interval length must equal the vertex's norm")

    @property
    def theta(self) -> IrrationalNumber:
        return self.a.theta

    def length(self) -> ThetaLatticeElement:
        return self.b - self.a

    def real_length(self, depth: int = 30) -> float:
        return self.length().value(depth)

    def to_dict(self) -> dict:
        return {
            "a": {"m": self.a.m, "n": self.a.n},
            "b": {"m": self.b.m, "n": self.b.n},
            "vertex": str(self.vertex),
        }


def root_interval(theta: IrrationalNumber, r: ReducedFraction) -> DivisionInterval:
    """The interval [0, |r|_theta] that the tree of r's diagram divides."""
    origin = ThetaLatticeElement(0, 0, theta)
    return DivisionInterval(origin, origin + theta_norm(r, theta), r)


@lru_cache(maxsize=1 << 16)
def divide(iv: DivisionInterval) -> Tuple[DivisionInterval, DivisionInterval]:
    """Split an interval at c = a + |l1|_theta.

    The children carry the left and right child vertices of the parent
    label's diagram; their lengths sum to the parent length exactly (the
    parent's norm lift is the signed difference of the children's).
    Everything involved is immutable, so results are memoized: exhaustive
    sweeps revisit the same tree nodes constantly.
    """
    l1, r1 = left_right_vertices(iv.theta, iv.vertex)
    c = iv.a + theta_norm(l1, iv.theta)
    return DivisionInterval(iv.a, c, l1), DivisionInterval(c, iv.b, r1)


def division_points(
    theta: IrrationalNumber, r: ReducedFraction, depth: int
) -> List[ThetaLatticeElement]:
    """All endpoints of tree pieces at depth <= depth, sorted exactly.

    Contains 2**depth + 1 distinct points (theta irrational makes
    m*theta + n injective); the largest gap is nonincreasing in depth.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    root = root_interval(theta, r)
    points = {root.a, root.b}
    level = [root]
    for _ in range(depth):
        nxt = []
        for iv in level:
            left, right = divide(iv)
            points.add(left.b)
            nxt.append(left)
            nxt.append(right)
        level = nxt
    return sorted(points)


# --------------------------------------------------------------------------
# bead objects


@dataclass(frozen=True)
class BeadObject:
    """The direct sum of shifted stable classes covering [c, d].

    ``labels`` lists the rest-position vertices left to right after the
    drop-and-merge game; ``summands`` groups consecutive equal labels into a
    sheaf class (shift 1 for slopes below theta); ``rank_theta`` is the
    exact interval length d - c, which equals the rotated rank of the class.
    """

    interval: Tuple[ThetaLatticeElement, ThetaLatticeElement]
    labels: Tuple[ReducedFraction, ...]
    summands: SheafClass
    rank_theta: ThetaLatticeElement

    def to_dict(self) -> dict:
        c, d = self.interval
        return {
            "interval": [{"m": c.m, "n": c.n}, {"m": d.m, "n": d.n}],
            "labels": [str(v) for v in self.labels],
            "summands": self.summands.to_dict(),
            "rank_theta": {
                "m": self.rank_theta.m,
                "n": self.rank_theta.n,
                "value": self.rank_theta.value(),
            },
        }


def _require_window(theta: IrrationalNumber, r: ReducedFraction) -> None:
    """The canonical bead construction needs 0 < slope(r) - theta < 1."""
    if r.is_infinite or compare_theta_rational(theta, r) != LESS:
        raise ValueError("need slope(r) > theta")
    shifted = ReducedFraction(r.p - r.q, r.q)
    if compare_theta_rational(theta, shifted) != GREATER:
        raise ValueError("need slope(r) - theta < 1")


def _locate(root: DivisionInterval, x: ThetaLatticeElement, cap: int) -> None:
    """Check that x is a tree endpoint within depth cap (raise otherwise)."""
    if x == root.a or x == root.b:
        return
    if not (root.a < x < root.b):
        raise NotDivisionPoint(f"{x!r} lies outside the root interval")
    iv = root
    for _ in range(cap):
        left, right = divide(iv)
        mid = left.b
        if x == mid:
            return
        iv = left if x < mid else right
    raise NotDivisionPoint(f"{x!r} is not a division point within depth {cap}")


def _cover(
    iv: DivisionInterval,
    c: ThetaLatticeElement,
    d: ThetaLatticeElement,
    fuel: int,
) -> List[ReducedFraction]:
    """Rest positions of the bead game on [c, d] inside iv, left to right.

    A piece whose interval is exactly [c, d] is a single rest position;
    otherwise split and recurse on the parts on each side of the midpoint.
    The result is the ordered list of maximal tree pieces covered by [c, d],
    which is what dropping level-n beads and merging full branches leaves.
    """
    if c == iv.a and d == iv.b:
        return [iv.vertex]
    if fuel == 0:
        raise NotDivisionPoint("bead cover descended past the depth cap")
    left, right = divide(iv)
    mid = left.b
    if d <= mid:
        return _cover(left, c, d, fuel - 1)
    if mid <= c:
        return _cover(right, c, d, fuel - 1)
    return _cover(left, c, mid, fuel - 1) + _cover(right, mid, d, fuel - 1)


@lru_cache(maxsize=1 << 16)
def _shift_for(theta: IrrationalNumber, label: ReducedFraction) -> int:
    return 1 if compare_theta_rational(theta, label) == GREATER else 0


def _phase_key(
    theta: IrrationalNumber, label: ReducedFraction
) -> Tuple[int, ReducedFraction]:
    """Lexicographic phase surrogate: shift first, slope second.

    Shifted summands (slope < theta) sit strictly above every unshifted one,
    and within a shift the phase grows with the slope; no trigonometry is
    needed to compare.
    """
    return (_shift_for(theta, label), label)


@lru_cache(maxsize=1 << 15)
def beads(
    theta: IrrationalNumber,
    r: ReducedFraction,
    c: ThetaLatticeElement,
    d: ThetaLatticeElement,
    cap: int = _DEPTH_CAP,
) -> BeadObject:
    """Play the bead game on [c, d] and return the resulting object.

    c and d must be division points of the tree for r (NotDivisionPoint
    otherwise, with a depth cap of ``cap``), with c < d, and r must satisfy
    the slope window 0 < slope(r) - theta < 1.  Summands collect the rest
    positions left to right, shift 1 for labels below theta; the class and
    rotated rank are additive over the pieces by construction, which is
    checked, also under ``python -O``.  The result is immutable and memoized
    (ses_check hits every window three ways).
    """
    _require_window(theta, r)
    root = root_interval(theta, r)
    if not c < d:
        raise ValueError("need c < d")
    _locate(root, c, cap)
    _locate(root, d, cap)
    labels = tuple(_cover(root, c, d, cap))

    runs: List[Tuple[StableClass, int, int]] = []
    for label in labels:
        cls = StableClass.from_fraction(label)
        shift = _shift_for(theta, label)
        if runs and runs[-1][0] == cls and runs[-1][1] == shift:
            prev = runs[-1]
            runs[-1] = (prev[0], prev[1], prev[2] + 1)
        else:
            runs.append((cls, shift, 1))
    sheaf = SheafClass(tuple(runs))

    length = d - c
    total = ThetaLatticeElement(0, 0, theta)
    for label in labels:
        total = total + theta_norm(label, theta)
    if total != length:
        raise AssertionError("piece norms must tile the interval exactly")
    if rotated_rank(sheaf, theta) != length:
        raise AssertionError("rotated rank must match")
    return BeadObject((c, d), labels, sheaf, length)


# --------------------------------------------------------------------------
# short exact sequences of bead objects


@dataclass(frozen=True)
class SESReport:
    """Outcome of checking 0 -> E[c,e] -> E[c,d] -> E[e,d] -> 0.

    ``class_additive`` and ``rank_additive`` are the exact additivity checks
    in Z^2 and in L_theta.  ``phase_sub_ok`` verifies that every earlier
    summand of the sub piece has phase >= its last summand (the vanishing
    the snake-lemma step needs), ``phase_quot_ok`` the mirror condition that
    the quotient piece's first summand dominates the rest.
    """

    sub: BeadObject
    whole: BeadObject
    quotient: BeadObject
    class_additive: bool
    rank_additive: bool
    phase_sub_ok: bool
    phase_quot_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.class_additive
            and self.rank_additive
            and self.phase_sub_ok
            and self.phase_quot_ok
        )

    def to_dict(self) -> dict:
        return {
            "sub": self.sub.to_dict(),
            "whole": self.whole.to_dict(),
            "quotient": self.quotient.to_dict(),
            "class_additive": self.class_additive,
            "rank_additive": self.rank_additive,
            "phase_sub_ok": self.phase_sub_ok,
            "phase_quot_ok": self.phase_quot_ok,
            "passed": self.passed,
        }


def _vec_add(u: Tuple[int, int], v: Tuple[int, int]) -> Tuple[int, int]:
    return (u[0] + v[0], u[1] + v[1])


def ses_check(
    theta: IrrationalNumber,
    r: ReducedFraction,
    c: ThetaLatticeElement,
    e: ThetaLatticeElement,
    d: ThetaLatticeElement,
) -> SESReport:
    """Verify the bead short exact sequence at the class/rank/phase level."""
    if not (c < e < d):
        raise ValueError("need c < e < d (strictly)")
    whole = beads(theta, r, c, d)
    sub = beads(theta, r, c, e)
    quotient = beads(theta, r, e, d)

    class_additive = whole.summands.kclass() == _vec_add(
        sub.summands.kclass(), quotient.summands.kclass()
    )
    rank_additive = whole.rank_theta == sub.rank_theta + quotient.rank_theta

    sub_phases = [_phase_key(theta, v) for v in sub.labels]
    quot_phases = [_phase_key(theta, v) for v in quotient.labels]
    phase_sub_ok = all(p >= sub_phases[-1] for p in sub_phases[:-1])
    phase_quot_ok = all(quot_phases[0] >= p for p in quot_phases[1:])

    return SESReport(
        sub, whole, quotient, class_additive, rank_additive, phase_sub_ok, phase_quot_ok
    )


# --------------------------------------------------------------------------
# rotated rank and the approximation chain


def rotated_rank(
    v: Union[SheafClass, StableClass], theta: IrrationalNumber
) -> ThetaLatticeElement:
    """deg(V) - rank(V)*theta as the lattice element (-rank, deg).

    Accepts a single stable class (treated as unshifted) or a sheaf class,
    whose shifts negate their summands' contributions; additive over direct
    sums by construction.
    """
    if isinstance(v, StableClass):
        d, r = v.vector()
    else:
        d, r = v.kclass()
    return ThetaLatticeElement(-r, d, theta)


def approximate_rank(
    theta: IrrationalNumber,
    r: ReducedFraction,
    target: float,
    tol: float,
    depth_cap: int = _DEPTH_CAP,
) -> List[BeadObject]:
    """Chain of prefix bead objects whose rotated ranks climb to ``target``.

    Walks the division tree toward the point at distance ``target`` from the
    left end, emitting E_[a, d_i] whenever a division point lands at or
    below the target; stops once the last one is within ``tol``.  Needs
    0 < target < |r|_theta and the slope window 0 < slope(r) - theta < 1;
    raises TolTooTight when ``depth_cap`` levels do not reach the tolerance.
    """
    _require_window(theta, r)
    if tol <= 0:
        raise ValueError("tol must be positive")
    root = root_interval(theta, r)
    total = root.real_length()
    if not 0 < target < total:
        raise ValueError(f"target must lie strictly between 0 and {total}")

    chain: List[BeadObject] = []
    node = root
    for _ in range(depth_cap):
        left, right = divide(node)
        mid = left.b
        mid_value = (mid - root.a).value()
        if mid_value <= target:
            chain.append(beads(theta, r, root.a, mid, cap=depth_cap))
            if target - mid_value < tol:
                return chain
            node = right
        else:
            node = left
    raise TolTooTight(
        f"no division point within {tol} of {target} in {depth_cap} levels"
    )
