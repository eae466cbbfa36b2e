"""Character-level calculus of slope-stable objects and their limit objects.

Stable objects are tracked through primitive integer characters
(degree, rank): rank >= 1 with gcd(|degree|, rank) = 1 is a bundle of slope
degree/rank, rank = 0 a torsion class supported at points (slope infinity,
larger than every bundle slope).  Everything here happens at that character
level: Euler pairings, exact hom/ext dimension pairs, minimal extension
triangles, K-class bookkeeping for the colimit objects sitting at an
irrational slope, endomorphism bounds driven by the gcd invariant of the
slope's continued fraction, and a rule table of vanishing statements for
maps in and out of the limit objects.  No actual module or sheaf is ever
constructed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

from .cfrac import GREATER, LESS, IrrationalNumber, compare_theta_rational
from .errors import TolTooTight
from .exact import ReducedFraction, Value
from .invariants import Stabilized, bounded_quotients, c_theta

__all__ = [
    "DimPair",
    "StableClass",
    "SheafClass",
    "LimitObjectDescriptor",
    "PLUS",
    "MINUS",
    "FINITE_DIVISION_ALGEBRA_BOUND",
    "SES_WITH_C_QUOTIENT",
    "UNKNOWN",
    "HomReport",
    "KClassRow",
    "KClassReport",
    "EndoBoundReport",
    "ChainArrow",
    "WitnessChain",
    "chi_pair",
    "hom_ext_dims",
    "is_minimal_triangle",
    "enumerate_minimal_triangles",
    "kclass_colimit_check",
    "endo_dim_bound",
    "hom_classify",
    "farey_type_image",
    "witness_image_chain",
    "quotient_multiplicity",
]

PLUS = "plus"
MINUS = "minus"

_ZERO = "Zero"
_WITNESS_DEPTH = 4096  # the deepest diagram witness_image_chain searches
FINITE_DIVISION_ALGEBRA_BOUND = "FiniteDivisionAlgebraBound"
SES_WITH_C_QUOTIENT = "SESWithCQuotient"
UNKNOWN = "Unknown"


# --------------------------------------------------------------------------
# characters


class DimPair(Value):
    """Size of a hom or ext space, as the pair (dim, ht).

    ``dim`` counts copies of the ambient complete field, ``ht`` the extra
    finite-height contribution.  Outputs of :func:`hom_ext_dims` always have
    dim >= 0; the Euler pairing :func:`chi_pair` is the signed difference
    hom - ext1 and may not.
    """

    __slots__ = ("dim", "ht")

    def __init__(self, dim: int, ht: int):
        self._init(dim, ht)

    def __add__(self, other: "DimPair") -> "DimPair":
        return DimPair(self.dim + other.dim, self.ht + other.ht)

    def __sub__(self, other: "DimPair") -> "DimPair":
        return DimPair(self.dim - other.dim, self.ht - other.ht)

    def __neg__(self) -> "DimPair":
        return DimPair(-self.dim, -self.ht)

    def scaled(self, k: int) -> "DimPair":
        return DimPair(k * self.dim, k * self.ht)

    def is_zero(self) -> bool:
        return self.dim == 0 and self.ht == 0

    def to_dict(self) -> dict:
        return {"dim": self.dim, "ht": self.ht}


class StableClass(Value):
    """The character (degree, rank) of a stable object.

    rank >= 1 must be coprime to |degree| and gives a bundle of slope
    degree/rank; rank = 0 with degree >= 1 is a torsion class supported at
    points, whose slope is infinity (only degree 1 is primitive there).
    """

    __slots__ = ("degree", "rank")

    def __init__(self, degree: int, rank: int):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        if rank == 0:
            if degree < 1:
                raise ValueError("torsion classes need degree >= 1")
        elif math.gcd(abs(degree), rank) != 1:
            raise ValueError(
                f"({degree}, {rank}) is not primitive: stable "
                "bundle classes have coprime degree and rank"
            )
        self._init(degree, rank)

    @classmethod
    def from_fraction(cls, slope: ReducedFraction) -> "StableClass":
        return cls(slope.p, slope.q)

    @property
    def is_torsion(self) -> bool:
        return self.rank == 0

    def slope(self) -> ReducedFraction:
        return ReducedFraction(self.degree, self.rank)

    def vector(self) -> Tuple[int, int]:
        return (self.degree, self.rank)

    def __str__(self):
        return f"O({self.degree}/{self.rank})"

    def to_dict(self) -> dict:
        return {"degree": self.degree, "rank": self.rank}


def _primitive(c: StableClass) -> bool:
    return math.gcd(abs(c.degree), c.rank) == 1


def _det(u: Tuple[int, int], v: Tuple[int, int]) -> int:
    return u[0] * v[1] - v[0] * u[1]


class SheafClass(Value):
    """Formal direct sum of shifted stable classes.

    Summands are (cls, shift, mult) with shift 0 or 1 and mult >= 1.  The
    K-class adds (degree, rank) vectors with sign (-1)^shift.  The heart
    tilted at an irrational theta contains the sum iff every shift-0
    summand has slope > theta and every shift-1 summand slope < theta
    (rational slopes never equal an irrational theta, and torsion classes
    sit at slope infinity, always on the shift-0 side).
    """

    __slots__ = ("summands",)

    def __init__(self, summands: Tuple[Tuple[StableClass, int, int], ...]):
        for cls, shift, mult in summands:
            if shift not in (0, 1):
                raise ValueError(f"shift must be 0 or 1, got {shift}")
            if mult < 1:
                raise ValueError("summand multiplicities are >= 1")
        self._init(summands)

    def kclass(self) -> Tuple[int, int]:
        d = r = 0
        for cls, shift, mult in self.summands:
            sign = -1 if shift else 1
            d += sign * mult * cls.degree
            r += sign * mult * cls.rank
        return (d, r)

    def in_heart(self, theta: IrrationalNumber) -> bool:
        for cls, shift, _ in self.summands:
            above = compare_theta_rational(theta, cls.slope()) == LESS
            if above == bool(shift):
                return False
        return True

    def __str__(self):
        if not self.summands:
            return "0"
        parts = []
        for cls, shift, mult in self.summands:
            text = str(cls) + ("[1]" if shift else "")
            if mult > 1:
                text += f"^{mult}"
            parts.append(text)
        return " + ".join(parts)

    def to_dict(self) -> dict:
        return {
            "summands": [
                {"degree": c.degree, "rank": c.rank, "shift": s, "mult": m}
                for c, s, m in self.summands
            ],
            "kclass": list(self.kclass()),
        }


class LimitObjectDescriptor(Value):
    """Address of an infinite-rank limit object at an irrational slope.

    side "minus" is the colimit of injections along the even-index
    convergent bundles (slopes climbing to theta from below); side "plus"
    the limit of surjections along the odd-index convergent bundles (slopes
    falling to theta from above).  Its slope and side identify it.
    """

    __slots__ = ("theta", "side")

    def __init__(self, theta: IrrationalNumber, side: str):
        if side not in (PLUS, MINUS):
            raise ValueError(f"side must be {PLUS!r} or {MINUS!r}, got {side!r}")
        self._init(theta, side)

    def __str__(self):
        return f"O({self.theta}{'+' if self.side == PLUS else '-'})"

    def to_dict(self) -> dict:
        return {"theta": str(self.theta), "side": self.side}


HomEnd = Union[StableClass, LimitObjectDescriptor]


# --------------------------------------------------------------------------
# Euler pairing and exact dimensions


def chi_pair(v1: Tuple[int, int], v2: Tuple[int, int]) -> DimPair:
    """Euler pairing of two (degree, rank) vectors.

    chi((p, q), (r, s)) = (q*r - p*s, q*s).  For the stable classes carrying
    the vectors this equals hom - ext1; the first entry is negative exactly
    when the slope drops.
    """
    (p, q), (r, s) = v1, v2
    return DimPair(q * r - p * s, q * s)


def hom_ext_dims(a: StableClass, b: StableClass) -> Tuple[DimPair, DimPair]:
    """Exact (hom, ext1) dimension pairs between two stable classes.

    One of the two spaces always vanishes: maps go weakly up in slope,
    extensions strictly down.  Equal classes give an endomorphism division
    algebra recorded as DimPair(0, rank**2).  The sizes between two torsion
    classes depend on their supports, not just the characters, so that pair
    is rejected.
    """
    if a.is_torsion and b.is_torsion:
        raise ValueError(
            "hom/ext dimensions between two torsion classes are not "
            "determined by their characters"
        )
    chi = chi_pair(a.vector(), b.vector())
    if a.slope() <= b.slope():
        hom, ext1 = chi, DimPair(0, 0)
    else:
        hom, ext1 = DimPair(0, 0), -chi
    if hom.dim < 0 or ext1.dim < 0:
        raise AssertionError("hom and ext1 dimensions must be non-negative")
    return hom, ext1


# --------------------------------------------------------------------------
# minimal extension triangles


def is_minimal_triangle(e: StableClass, f: StableClass, g: StableClass) -> bool:
    """True when (e, f, g) is a minimal extension triangle.

    Requires all three characters primitive, v(f) = v(e) + v(g), slopes
    strictly increasing, and unimodular consecutive pairs (|det| = 1; the
    outer pair is then unimodular automatically).
    """
    if not (_primitive(e) and _primitive(f) and _primitive(g)):
        return False
    ve, vf, vg = e.vector(), f.vector(), g.vector()
    if (ve[0] + vg[0], ve[1] + vg[1]) != vf:
        return False
    if not (e.slope() < f.slope() < g.slope()):
        return False
    return abs(_det(ve, vf)) == 1 and abs(_det(vf, vg)) == 1


def enumerate_minimal_triangles(
    max_rank: int, max_degree: Optional[int] = None
) -> List[Tuple[StableClass, StableClass, StableClass]]:
    """Every minimal triangle whose three classes have rank <= max_rank and
    |degree| <= max_degree (default: max_rank).

    A triangle is pinned down by its outer pair: adjacency |det| = 1 and
    increasing slopes force the middle class to be the vector sum, so a
    double loop over candidate outer classes finds them all.  Torsion can
    only be the top vertex (slope infinity), where it caps the fan triangles
    (n, n+1, point class).
    """
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    window = max_rank if max_degree is None else max_degree
    if window < 1:
        raise ValueError("max_degree must be >= 1")

    bundles = [
        StableClass(d, r)
        for r in range(1, max_rank + 1)
        for d in range(-window, window + 1)
        if math.gcd(abs(d), r) == 1
    ]
    tops = bundles + [StableClass(1, 0)]

    triples = []
    for e in bundles:
        for g in tops:
            if e.rank + g.rank > max_rank:
                continue
            if abs(e.degree + g.degree) > window:
                continue
            if abs(_det(e.vector(), g.vector())) != 1:
                continue
            if not e.slope() < g.slope():
                continue
            f = StableClass(e.degree + g.degree, e.rank + g.rank)
            if not is_minimal_triangle(e, f, g):
                raise AssertionError(f"{e}, {f}, {g} is not a minimal triangle")
            triples.append((e, f, g))
    triples.sort(key=lambda t: (t[1].degree, t[1].rank, t[0].degree, t[0].rank))
    return triples


# --------------------------------------------------------------------------
# K-class bookkeeping for the minus-side colimit


class KClassRow(Value):
    """One stage of the telescoping K-class identity: ``coefficient`` is the
    quotient a_{2i+2}, ``summand`` the character of the odd convergent bundle,
    ``partial`` the class accumulated after this stage and ``target`` the
    character of the next even convergent bundle."""

    __slots__ = ("index", "coefficient", "summand", "partial", "target", "ok")

    def __init__(self, index: int, coefficient: int, summand: Tuple[int, int], partial: Tuple[int, int],
                 target: Tuple[int, int], ok: bool):
        self._init(index, coefficient, summand, partial, target, ok)

    def to_dict(self) -> dict:
        return {
            "i": self.index,
            "coefficient": self.coefficient,
            "summand": list(self.summand),
            "partial": list(self.partial),
            "target": list(self.target),
            "ok": self.ok,
        }


class KClassReport(Value):
    __slots__ = ("theta", "depth", "rows")

    def __init__(self, theta: IrrationalNumber, depth: int, rows: Tuple[KClassRow, ...]):
        self._init(theta, depth, rows)

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "theta": str(self.theta),
            "depth": self.depth,
            "rows": [row.to_dict() for row in self.rows],
            "all_ok": self.all_ok,
        }


def kclass_colimit_check(theta: IrrationalNumber, depth: int) -> KClassReport:
    """Verify the telescoping K-class identity along even convergents.

    Stage i asserts  v(beta_0) + sum_{j<=i} a_{2j+2} * v(beta_{2j+1})
    = v(beta_{2i+2})  in integer vectors, i.e. the cokernels the colimit
    accumulates between consecutive even convergent bundles are exactly
    a_{2i+2} copies of the intervening odd convergent bundle.  Each row
    records one stage so the report is checkable by eye.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rows = []
    partial = theta.convergent_pair(0)
    for i in range(depth):
        a = theta.quotient(2 * i + 2)
        s = theta.convergent_pair(2 * i + 1)
        partial = (partial[0] + a * s[0], partial[1] + a * s[1])
        target = theta.convergent_pair(2 * i + 2)
        rows.append(KClassRow(i, a, s, partial, target, partial == target))
    return KClassReport(theta, depth, tuple(rows))


# --------------------------------------------------------------------------
# endomorphism bound for the minus-side colimit


class EndoBoundReport(Value):
    """Dimension bound for endomorphisms of the minus-side colimit object.

    The dimension divides c(theta)^2 once the gcd chain stabilises; when
    every tail quotient of theta is <= 2 the invariant is 1 or 2, which pins
    the possible dimensions to 1, 2 or 4.
    """

    __slots__ = ("theta", "stabilized", "c", "chain", "bound", "bounded_by_two", "dim_candidates")

    def __init__(self, theta: IrrationalNumber, stabilized: bool, c: Optional[int], chain: Tuple[int, ...],
                 bound: Optional[int], bounded_by_two: Optional[bool],
                 dim_candidates: Optional[Tuple[int, ...]]):
        # bounded_by_two is None when a finite prefix cannot certify it
        self._init(theta, stabilized, c, chain, bound, bounded_by_two, dim_candidates)

    def to_dict(self) -> dict:
        return {
            "theta": str(self.theta),
            "stabilized": self.stabilized,
            "c": self.c,
            "chain": list(self.chain),
            "bound": self.bound,
            "bounded_by_two": self.bounded_by_two,
            "dim_candidates": None
            if self.dim_candidates is None
            else list(self.dim_candidates),
        }


def _tail_bounded_by_two(theta: IrrationalNumber) -> Optional[bool]:
    """Are all partial quotients a_i (i >= 1) at most 2?  None = can't tell."""
    depth = theta.available_depth()
    if depth == 0:
        return None  # a bare a0 says nothing about the tail
    top, verified = bounded_quotients(theta, depth)
    if verified is None:
        return top <= 2
    # A finite prefix can refute boundedness but never certify it.
    return False if top > 2 else None


def endo_dim_bound(desc: LimitObjectDescriptor, budget: int = 64) -> EndoBoundReport:
    """Bound the endomorphism algebra of the minus-side colimit at theta.

    Its dimension divides c(theta)^2 where c(theta) is the stable gcd of the
    even-index convergent data; ``bound`` is that square when the chain
    certifiably stabilises, None when the evidence is a lower bound only.
    """
    if desc.side != MINUS:
        raise ValueError("the endomorphism bound applies to the minus side only")
    report = c_theta(desc.theta, budget)
    if isinstance(report.status, Stabilized):
        c: Optional[int] = report.status.c
        bound: Optional[int] = c * c
        stabilized = True
    else:
        c, bound, stabilized = None, None, False
    bounded = _tail_bounded_by_two(desc.theta)
    if bounded and c not in (None, 1, 2):
        raise AssertionError("gcds of quotients <= 2 cannot exceed 2")
    return EndoBoundReport(
        theta=desc.theta,
        stabilized=stabilized,
        c=c,
        chain=tuple(report.chain()),
        bound=bound,
        bounded_by_two=bounded,
        dim_candidates=(1, 2, 4) if bounded else None,
    )


# --------------------------------------------------------------------------
# the vanishing rule table


class HomReport(Value):
    """Outcome of classifying Hom(source, target) by the slope rule table.

    ``verdict`` is one of Zero / FiniteDivisionAlgebraBound /
    SESWithCQuotient / Unknown; ``clause`` says which comparison fired.
    ``ext1_zero`` reports the companion ext vanishing when a rule settles it
    (None: no rule).  Exact dimension pairs are attached whenever both ends
    are stable classes.
    """

    __slots__ = ("source", "target", "verdict", "clause", "bound", "hom", "ext1", "ext1_zero",
                 "kernel_factors", "quotient", "c_chain")

    def __init__(self, source: HomEnd, target: HomEnd, verdict: str, clause: Optional[str] = None,
                 bound: Optional[int] = None, hom: Optional[DimPair] = None, ext1: Optional[DimPair] = None,
                 ext1_zero: Optional[bool] = None, kernel_factors: Optional[Tuple[Tuple[int, int], ...]] = None,
                 quotient: Optional[DimPair] = None, c_chain: Optional[Tuple[int, ...]] = None):
        self._init(
            source, target, verdict, clause, bound, hom, ext1, ext1_zero, kernel_factors, quotient, c_chain
        )

    def to_dict(self) -> dict:
        out = {
            "source": str(self.source),
            "target": str(self.target),
            "verdict": self.verdict,
        }
        if self.clause is not None:
            out["clause"] = self.clause
        if self.bound is not None:
            out["bound"] = self.bound
        if self.hom is not None:
            out["hom_dim"], out["hom_ht"] = self.hom.dim, self.hom.ht
        if self.ext1 is not None:
            out["ext1_dim"], out["ext1_ht"] = self.ext1.dim, self.ext1.ht
        if self.ext1_zero is not None:
            out["ext1_zero"] = self.ext1_zero
        if self.kernel_factors is not None:
            out["kernel_factors"] = [[d, m] for d, m in self.kernel_factors]
        if self.quotient is not None:
            out["quotient"] = self.quotient.to_dict()
        if self.c_chain is not None:
            out["c_chain"] = list(self.c_chain)
        return out


def _classify_stable_pair(x: StableClass, y: StableClass) -> HomReport:
    if x.is_torsion and y.is_torsion:
        return HomReport(
            x,
            y,
            UNKNOWN,
            clause="maps between torsion classes depend on supports, "
            "not characters",
        )
    hom, ext1 = hom_ext_dims(x, y)
    if x == y:
        return HomReport(
            x,
            y,
            FINITE_DIVISION_ALGEBRA_BOUND,
            clause="endomorphisms of a stable object form a division algebra "
            "of dimension rank^2",
            bound=hom.ht,
            hom=hom,
            ext1=ext1,
            ext1_zero=True,
        )
    if y.slope() < x.slope():
        return HomReport(
            x,
            y,
            _ZERO,
            clause="no maps from strictly larger slope to smaller",
            hom=hom,
            ext1=ext1,
            ext1_zero=False,
        )
    return HomReport(
        x,
        y,
        UNKNOWN,
        clause="slope goes up: hom is nonzero with the exact size attached, "
        "extensions vanish",
        hom=hom,
        ext1=ext1,
        ext1_zero=True,
    )


def _classify_from_stable(x: StableClass, y: LimitObjectDescriptor) -> HomReport:
    # gamma > theta kills maps into either limit object; gamma < theta
    # kills the extensions instead.
    if compare_theta_rational(y.theta, x.slope()) == LESS:
        return HomReport(
            x,
            y,
            _ZERO,
            clause="rational slope above theta: maps into either limit "
            "object vanish",
        )
    return HomReport(
        x,
        y,
        UNKNOWN,
        clause="rational slope below theta: extensions into the limit "
        "object vanish",
        ext1_zero=True,
    )


def _classify_minus_to_stable(x: LimitObjectDescriptor, y: StableClass) -> HomReport:
    if compare_theta_rational(x.theta, y.slope()) == GREATER:
        return HomReport(
            x,
            y,
            _ZERO,
            clause="maps from the minus-side colimit into smaller slope vanish",
        )
    return HomReport(
        x,
        y,
        UNKNOWN,
        clause="rational slope above theta: extensions from the minus-side "
        "colimit vanish",
        ext1_zero=True,
    )


def _classify_minus_limit(
    x: LimitObjectDescriptor, y: LimitObjectDescriptor, depth: int, budget: int
) -> HomReport:
    from .farey import _slopes_equal, slope_lt

    # finite prefixes are never equal: slope_lt raises PrecisionExhausted
    if _slopes_equal(x.theta, y.theta) and y.side == MINUS:
        report = c_theta(x.theta, budget)
        bound = (
            report.status.c ** 2 if isinstance(report.status, Stabilized) else None
        )
        return HomReport(
            x,
            y,
            FINITE_DIVISION_ALGEBRA_BOUND,
            clause="endomorphisms of the colimit embed in a division algebra "
            "of dimension c(theta)^2",
            bound=bound,
            ext1_zero=True,
            c_chain=tuple(report.chain()),
        )
    if _slopes_equal(x.theta, y.theta):
        factors = tuple(
            (x.theta.convergent_pair(i)[1] ** 2, x.theta.quotient(i + 1))
            for i in range(depth)
        )
        return HomReport(
            x,
            y,
            SES_WITH_C_QUOTIENT,
            clause="hom sits in a short exact sequence: kernel the product "
            "over i of endomorphisms of the i-th convergent bundle to the "
            "power a_{i+1}, quotient the one-dimensional base field",
            kernel_factors=factors,
            quotient=DimPair(1, 0),
        )
    if slope_lt(y.theta, x.theta):
        return HomReport(
            x,
            y,
            _ZERO,
            clause="target slope strictly below source: maps vanish",
        )
    return HomReport(
        x,
        y,
        UNKNOWN,
        clause="target slope above source: extensions vanish",
        ext1_zero=True,
    )


def hom_classify(x: HomEnd, y: HomEnd, depth: int = 8, budget: int = 64) -> HomReport:
    """Classify Hom(x, y) by the slope rule table.

    The ends are stable classes or limit-object descriptors.  Verdicts:
    Zero when a vanishing rule fires, FiniteDivisionAlgebraBound for
    endomorphisms (of a stable class, or of the minus-side colimit where
    the bound is c(theta)^2), SESWithCQuotient for the map from the
    minus-side colimit to the plus-side limit at the same slope, Unknown
    when no rule constrains the hom (the companion ext vanishing is still
    reported when available).  ``depth`` truncates the kernel factor list
    of the SES case; ``budget`` feeds the c(theta) computation.
    """
    if isinstance(x, StableClass) and isinstance(y, StableClass):
        return _classify_stable_pair(x, y)
    if isinstance(x, StableClass):
        return _classify_from_stable(x, y)
    if x.side != MINUS:
        return HomReport(
            x,
            y,
            UNKNOWN,
            clause="no rule constrains maps out of the plus-side limit",
        )
    if isinstance(y, StableClass):
        return _classify_minus_to_stable(x, y)
    return _classify_minus_limit(x, y, depth, budget)


# --------------------------------------------------------------------------
# images of maps between limit objects


def farey_type_image(
    theta: IrrationalNumber,
    theta_prime: IrrationalNumber,
    via: Sequence[IrrationalNumber] = (),
) -> StableClass:
    """Stable class of the image of a nonzero composite map from the
    plus-side limit at theta to the minus-side colimit at theta_prime,
    factored through the listed intermediate slopes.

    The chain theta < via[0] < ... < theta_prime must strictly increase.
    The image class is the minimal-denominator slope of the open interval
    (theta, theta_prime); refining the chain does not change it.
    """
    from .farey import bottom, slope_lt

    points = [theta, *via, theta_prime]
    for a, b in zip(points, points[1:]):
        if not slope_lt(a, b):
            raise ValueError("slopes along the chain must strictly increase")
    return StableClass.from_fraction(bottom(theta, theta_prime))


class ChainArrow(Value):
    """One arrow of a witness chain, with its kernel or cokernel class."""

    __slots__ = ("source", "target", "kind", "complement")

    def __init__(self, source: HomEnd, target: HomEnd, kind: str,
                 complement: Optional[Tuple[StableClass, int]] = None):
        # kind is "injection" or "surjection"; complement is (class, multiplicity)
        self._init(source, target, kind, complement)

    @property
    def complement_role(self) -> Optional[str]:
        if self.complement is None:
            return None
        return "kernel" if self.kind == "surjection" else "cokernel"

    def to_dict(self) -> dict:
        out = {
            "from": str(self.source),
            "to": str(self.target),
            "kind": self.kind,
        }
        if self.complement is not None:
            cls, mult = self.complement
            out["complement"] = {
                "degree": cls.degree,
                "rank": cls.rank,
                "multiplicity": mult,
                "role": self.complement_role,
            }
        return out


class WitnessChain(Value):
    """Five-node witness that O(r) is hit between the two limit objects."""

    __slots__ = ("theta", "theta_prime", "r", "level", "nodes", "arrows")

    def __init__(self, theta: IrrationalNumber, theta_prime: IrrationalNumber, r: ReducedFraction, level: int,
                 nodes: Tuple[HomEnd, ...], arrows: Tuple[ChainArrow, ...]):
        self._init(theta, theta_prime, r, level, nodes, arrows)

    def to_dict(self) -> dict:
        return {
            "theta": str(self.theta),
            "theta_prime": str(self.theta_prime),
            "r": str(self.r),
            "level": self.level,
            "nodes": [str(node) for node in self.nodes],
            "arrows": [arrow.to_dict() for arrow in self.arrows],
        }


def _rational_arrow(a: StableClass, b: StableClass) -> ChainArrow:
    # Rank comparison decides the sense; the complement class is the
    # gcd-reduced difference of the characters, with the gcd as multiplicity.
    if b.rank >= a.rank:
        kind, dp, dq = "injection", b.degree - a.degree, b.rank - a.rank
    else:
        kind, dp, dq = "surjection", a.degree - b.degree, a.rank - b.rank
    if dq == 0 and dp <= 0:
        raise AssertionError(f"no rational arrow from {a} to {b}")
    g = math.gcd(abs(dp), dq)
    return ChainArrow(a, b, kind, (StableClass(dp // g, dq // g), g))


def _pick_level(
    line: List[ReducedFraction], anchor: int, r: ReducedFraction
) -> Optional[Tuple[int, ReducedFraction, ReducedFraction]]:
    n = 1
    while anchor - n >= 0 and anchor + n < len(line):
        lo, hi = line[anchor - n], line[anchor + n]
        if lo < r < hi and lo.q > r.q and hi.q > r.q:
            return n, lo, hi
        n += 1
    return None


def witness_image_chain(
    theta: IrrationalNumber,
    theta_prime: IrrationalNumber,
    r: ReducedFraction,
) -> WitnessChain:
    """Explicit chain showing a map between the limit objects through O(r).

    Requires theta < r < theta_prime.  The division vertices of the strip
    between the two slopes that lie inside the open interval form a line
    l_n, indexed so that l_0 = bottom(theta, theta_prime) and values
    increase with n.  The chain

        O(theta+) ->> O(l_{-N}) ->> O(r) >-> O(l_N) >-> O(theta_prime-)

    uses the smallest N >= 1 with l_{-N} < r < l_N and both end denominators
    strictly larger than r's.  Rank comparison makes the theta-side arrows
    surjections and the theta_prime-side arrows injections; each arrow
    between stable classes carries its kernel or cokernel class with
    multiplicity.  The outer arrows to and from the limit objects carry no
    class (those complements have infinite rank).  The diagram depth doubles
    from 8 while no level qualifies; past depth 4096 the search raises
    TolTooTight.
    """
    from .farey import bottom, farey_diagram, slope_lt

    if not slope_lt(theta, theta_prime):
        raise ValueError("need theta < theta_prime")
    if (
        compare_theta_rational(theta, r) != LESS
        or compare_theta_rational(theta_prime, r) != GREATER
    ):
        raise ValueError("need theta < r < theta_prime")

    base = bottom(theta, theta_prime)
    depth = 8
    while True:
        diagram = farey_diagram(theta, theta_prime, depth=depth)
        line = sorted(fraction for _, fraction in diagram.left_labels)
        if base in line:
            found = _pick_level(line, line.index(base), r)
            if found is not None:
                level, lo, hi = found
                break
        depth *= 2
        if depth > _WITNESS_DEPTH:
            raise TolTooTight(f"no witness level within diagram depth {_WITNESS_DEPTH}")

    src = LimitObjectDescriptor(theta, PLUS)
    dst = LimitObjectDescriptor(theta_prime, MINUS)
    o_lo = StableClass.from_fraction(lo)
    o_r = StableClass.from_fraction(r)
    o_hi = StableClass.from_fraction(hi)
    arrows = (
        ChainArrow(src, o_lo, "surjection"),
        _rational_arrow(o_lo, o_r),
        _rational_arrow(o_r, o_hi),
        ChainArrow(o_hi, dst, "injection"),
    )
    return WitnessChain(
        theta, theta_prime, r, level, (src, o_lo, o_r, o_hi, dst), arrows
    )


# --------------------------------------------------------------------------
# multiplicities in semistable quotients


def quotient_multiplicity(
    v: Union[StableClass, Tuple[int, int]], lam: ReducedFraction
) -> int:
    """Multiplicity of the stable summand of slope lam in the semistable
    quotient attached to the character vector v = (degree, rank).

    The count is |q*degree - p*rank| for lam = p/q; for lam infinite it
    degenerates to the rank.  Adding any multiple of (p, q) to v leaves it
    unchanged.
    """
    if isinstance(v, StableClass):
        d, r = v.degree, v.rank
    else:
        d, r = v
    return abs(lam.q * d - lam.p * r)
