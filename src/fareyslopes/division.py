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

Every split cuts strictly inside its parent, so the endpoints are ordered
like the dyadic rationals: piece (level, k) is [k/2**level, (k+1)/2**level]
of the root.  For as long as it lives, theta keeps one tree per r, which
keeps its pieces and endpoints by these addresses and summarises each label
and each bead once, so covers and SES checks are integer arithmetic on
addresses, and a bead is built from its labels' stored summaries.
"""

from __future__ import annotations

# dataclasses, not exact.Value: callers copy these types with
# dataclasses.replace and read them through dataclasses.fields
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
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


@dataclass(frozen=True, slots=True)
class DivisionInterval:
    """The interval [a, a + |vertex|_theta] in L_theta.

    A piece is its exact left end and the fraction labelling it in the
    division tree; the right end b is derived, so b - a = |vertex|_theta
    holds by construction.
    """

    a: ThetaLatticeElement
    vertex: ReducedFraction

    @property
    def theta(self) -> IrrationalNumber:
        return self.a.theta

    @property
    def b(self) -> ThetaLatticeElement:
        return self.a + self.length()

    def length(self) -> ThetaLatticeElement:
        return theta_norm(self.vertex, self.a.theta)

    def real_length(self, depth: int = 30) -> float:
        return self.length().value(depth)

    def to_dict(self) -> dict:
        b = self.b
        return {
            "a": {"m": self.a.m, "n": self.a.n},
            "b": {"m": b.m, "n": b.n},
            "vertex": str(self.vertex),
        }


def root_interval(theta: IrrationalNumber, r: ReducedFraction) -> DivisionInterval:
    """The interval [0, |r|_theta] that the tree of r's diagram divides."""
    return DivisionInterval(ThetaLatticeElement(0, 0, theta), r)


def divide(iv: DivisionInterval) -> Tuple[DivisionInterval, DivisionInterval]:
    """Split an interval at c = a + |l1|_theta.

    The children carry the left and right child vertices of the parent
    label's diagram; their lengths sum to the parent length exactly (the
    parent's norm lift is the signed difference of the children's), so the
    right child ends where the parent does.  |l1|_theta comes with the split.
    """
    l1, r1 = left_right_vertices(iv.theta, iv.vertex)
    return DivisionInterval(iv.a, l1), DivisionInterval(iv.a + iv.theta._splits[iv.vertex][1], r1)


def _before(x: Tuple[int, int], y: Tuple[int, int]) -> bool:
    """Address x = (level, k) lies left of y: k/2**level cross-multiplied."""
    return x[1] << y[0] < y[1] << x[0]


class _DivisionTree:
    """The division tree of |r|_theta, grown on demand.

    ``nodes``: (level, k) -> piece, stored with its sibling once their
    parent is split.  ``index``: endpoint (m, n) -> address in lowest terms;
    the midpoint of piece (level, k) is (level + 1, 2k + 1).  ``labels``: a
    label v -> (phase key, O(v), |v|_theta as (m, n)), one theta comparison
    per label.  ``beads``: a pair of addresses -> (object, K-class,
    phase_sub_ok, phase_quot_ok).  ``window_ok`` records that r passed the
    slope-window check.

    Threads share a tree without a lock, as each entry is stored after those
    it needs: the root's ends are indexed before the root, and a split's
    pieces, the tested left one last, before the midpoint's index entry (a
    reader that misses that entry finds the midpoint by descent).
    """

    def __init__(self, theta: IrrationalNumber, r: ReducedFraction):
        self.theta, self.r = theta, r
        self.nodes, self.index, self.labels, self.beads = {}, {}, {}, {}
        self.window_ok = False

    def root(self) -> DivisionInterval:
        if (0, 0) not in self.nodes:
            root = root_interval(self.theta, self.r)
            end = root.b  # a FinitePrefix that cannot decide |r|_theta raises here
            self.index[0, 0], self.index[end.m, end.n], self.nodes[0, 0] = (0, 0), (0, 1), root
        return self.nodes[0, 0]

    def require_window(self) -> None:
        """The slope-window check, run until it passes once."""
        if not self.window_ok:
            _require_window(self.theta, self.r)
            self.window_ok = True

    def children(self, level: int, k: int) -> Tuple[DivisionInterval, DivisionInterval]:
        """The two halves of piece (level, k), split on first use."""
        nodes, left, right = self.nodes, (level + 1, 2 * k), (level + 1, 2 * k + 1)
        if left not in nodes:
            lo, hi = divide(nodes[level, k])
            nodes[right], nodes[left], self.index[hi.a.m, hi.a.n] = hi, lo, right
        return nodes[left], nodes[right]

    def address(self, x: ThetaLatticeElement) -> Optional[Tuple[int, int]]:
        """x's address if the tree has reached x, over theta."""
        theta = x.theta
        return self.index.get((x.m, x.n)) if theta is self.theta or theta == self.theta else None

    def locate(self, x: ThetaLatticeElement) -> Tuple[int, int]:
        """x's address, or NotDivisionPoint; a miss descends by exact
        comparisons and splits the pieces it passes."""
        root = self.root()
        addr = self.address(x)
        if addr is not None:
            return addr
        if not (root.a < x < root.b):
            raise NotDivisionPoint(f"{x!r} lies outside the root interval")
        level = k = 0
        for _ in range(_DEPTH_CAP):
            mid = self.children(level, k)[1].a
            level, k = level + 1, 2 * k
            if x == mid:
                return (level, k + 1)
            k += not x < mid
        raise NotDivisionPoint(f"{x!r} is not a division point within depth {_DEPTH_CAP}")

    def cover(self, c: Tuple[int, int], d: Tuple[int, int]) -> List[ReducedFraction]:
        """Labels of the maximal pieces inside [c, d], left to right: the
        canonical dyadic decomposition of [i/2**n, j/2**n].  Each piece is a
        child of a piece holding c or d inside, which locating them split."""
        n = max(c[0], d[0])
        lo, hi, left, right = c[1] << (n - c[0]), d[1] << (n - d[0]), [], []
        while lo < hi:
            if lo & 1:  # a right child: its parent reaches left of c
                left.append(self.nodes[n, lo].vertex)
            if hi & 1:  # hi - 1 is a left child whose parent reaches past d
                right.append(self.nodes[n, hi - 1].vertex)
            lo, hi, n = (lo + 1) >> 1, hi >> 1, n - 1
        return left + right[::-1]

    def label(self, v: ReducedFraction) -> tuple:
        """v's summary, computed on first use.

        The phase key orders summands: shift first (1 for slopes below
        theta, which sit above every unshifted summand), slope second.  The
        norm |v|_theta is (q, -p) exactly when theta > v, so one comparison
        gives both.
        """
        summary = self.labels.get(v)
        if summary is None:
            norm = theta_norm(v, self.theta)
            summary = self.labels[v] = ((int(norm.m > 0), v), StableClass.from_fraction(v), (norm.m, norm.n))
        return summary

    def bead(self, c: ThetaLatticeElement, d: ThetaLatticeElement) -> tuple:
        """The summary of the bead on [c, d], built on first use."""
        ac, ad = self.address(c), self.address(d)
        summary = self.beads.get((ac, ad))
        if summary:
            return summary
        self.require_window()
        if not (_before(ac, ad) if ac and ad else c < d):
            raise ValueError("need c < d")
        key = (self.locate(c), self.locate(d))  # the root's ends are indexed before root() stores it
        labels = tuple(self.cover(*key))
        runs, phases, m, n = [], [], 0, 0
        for v, group in groupby(labels):
            phase, cls, (vm, vn) = self.label(v)
            mult = len(list(group))
            runs.append((cls, phase[0], mult))
            phases.append(phase)
            m, n = m + mult * vm, n + mult * vn
        length = d - c
        if (m, n) != (length.m, length.n):
            raise AssertionError("piece norms must tile the interval exactly")
        sheaf = SheafClass(tuple(runs))
        if rotated_rank(sheaf, self.theta) != length:
            raise AssertionError("rotated rank must match")
        summary = self.beads[key] = (
            BeadObject((c, d), labels, sheaf, length),
            sheaf.kclass(),
            all(p >= phases[-1] for p in phases[:-1]),
            all(phases[0] >= p for p in phases[1:]),
        )
        return summary


def _tree(theta: IrrationalNumber, r: ReducedFraction) -> _DivisionTree:
    """The one tree of (theta, r), kept on theta."""
    tree = theta._trees.get(r)
    if tree is None:
        tree = theta._trees[r] = _DivisionTree(theta, r)
    return tree


def division_points(
    theta: IrrationalNumber, r: ReducedFraction, depth: int
) -> List[ThetaLatticeElement]:
    """All endpoints of tree pieces at depth <= depth, in increasing order.

    Contains 2**depth + 1 distinct points (theta irrational makes
    m*theta + n injective); the largest gap is nonincreasing in depth.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    tree = _tree(theta, r)
    root = tree.root()
    for level in range(depth):
        for k in range(1 << level):
            tree.children(level, k)
    return [tree.nodes[depth, k].a for k in range(1 << depth)] + [root.b]


# --------------------------------------------------------------------------
# bead objects


@dataclass(frozen=True, slots=True)
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


def beads(
    theta: IrrationalNumber,
    r: ReducedFraction,
    c: ThetaLatticeElement,
    d: ThetaLatticeElement,
) -> BeadObject:
    """Play the bead game on [c, d] and return the resulting object.

    c and d must be division points of the tree for r within depth 64
    (NotDivisionPoint otherwise), with c < d, and r must satisfy
    the slope window 0 < slope(r) - theta < 1.  Summands collect the rest
    positions left to right, shift 1 for labels below theta; the class and
    rotated rank are additive over the pieces by construction, which is
    checked, also under ``python -O``.  Each window's object is built once.
    """
    return _tree(theta, r).bead(c, d)[0]


# --------------------------------------------------------------------------
# short exact sequences of bead objects


@dataclass(frozen=True, slots=True)
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


def ses_check(
    theta: IrrationalNumber,
    r: ReducedFraction,
    c: ThetaLatticeElement,
    e: ThetaLatticeElement,
    d: ThetaLatticeElement,
) -> SESReport:
    """Verify the bead short exact sequence at the class/rank/phase level.

    Each phase condition belongs to one bead, so its summary carries it.
    """
    tree = _tree(theta, r)
    ac, ae, ad = tree.address(c), tree.address(e), tree.address(d)
    if not (ac and ae and ad and _before(ac, ae) and _before(ae, ad)):
        if not (c < e < d):
            raise ValueError("need c < e < d (strictly)")
    known = tree.beads
    whole, wk, _, _ = known.get((ac, ad)) or tree.bead(c, d)
    sub, sk, phase_sub_ok, _ = known.get((ac, ae)) or tree.bead(c, e)
    quotient, qk, _, phase_quot_ok = known.get((ae, ad)) or tree.bead(e, d)
    w, s, q = whole.rank_theta, sub.rank_theta, quotient.rank_theta
    class_additive = wk == (sk[0] + qk[0], sk[1] + qk[1])
    rank_additive = (w.m, w.n) == (s.m + q.m, s.n + q.n)
    return SESReport(sub, whole, quotient, class_additive, rank_additive, phase_sub_ok, phase_quot_ok)


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
    target: Fraction,
    tol: Fraction,
) -> List[BeadObject]:
    """Chain of prefix bead objects whose rotated ranks climb to ``target``.

    Walks the division tree toward the point at distance ``target`` from the
    left end, emitting E_[a, d_i] whenever a division point lands at or
    below the target; stops once the last one is within ``tol``.  Target and
    tol are exact (a finite ``ReducedFraction``, or anything ``Fraction``
    takes), and x = m*theta + n lies at or below p/q exactly when
    q*m*theta + q*n - p has sign <= 0.  Needs 0 < target < |r|_theta and
    the slope window 0 < slope(r) - theta < 1; raises TolTooTight when 64
    levels do not reach the tolerance.
    """
    tree = _tree(theta, r)
    tree.require_window()
    exact = []
    for name, value in (("target", target), ("tol", tol)):
        try:
            exact.append(value.as_fraction() if isinstance(value, ReducedFraction) else Fraction(value))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"{name} must be a finite rational, not {value!r}") from None
    target, tol = exact
    if tol <= 0:
        raise ValueError("tol must be positive")
    root = tree.root()

    def above(x: ThetaLatticeElement, v: Fraction) -> bool:
        q = v.denominator
        return theta.lattice_sign(q * x.m, q * x.n - v.numerator) > 0

    if not (target > 0 and above(root.b, target)):
        raise ValueError(f"target must lie strictly between 0 and {root.real_length()}")
    chain: List[BeadObject] = []
    level = k = 0
    for _ in range(_DEPTH_CAP):
        mid = tree.children(level, k)[1].a
        level, k = level + 1, 2 * k
        if not above(mid, target):
            chain.append(tree.bead(root.a, mid)[0])
            if above(mid, target - tol):
                return chain
            k += 1
    raise TolTooTight(f"no division point within {tol} of {target} in {_DEPTH_CAP} levels")
