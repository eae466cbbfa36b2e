"""Farey tessellation walks: diagrams, cutting sequences, trees, products.

Everything here is exact.  Triangles of the Farey tessellation are triples
of pairwise-adjacent reduced fractions (adjacent = determinant ±1), and all
walks are driven by exact sign tests against the irrational slope, so a
diagram computed at depth 40 is correct at depth 40 -- there is no float
drift to accumulate.

The geometric picture (hyperbolic geodesics crossing ideal triangles) is
only a picture: each step of a walk is the combinatorial move "cross one
edge of the current triangle".  All diagrams and products share one walk
(`_walk`): its state is the edge just crossed, the next triangle's apex is
the mediant or the difference vertex of that edge, whichever lies toward
the target, and one arc test -- is the old upper vertex on the target's
side of (lower, apex)? -- picks which end the apex replaces.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache
from dataclasses import dataclass
from typing import Iterator, Literal, Optional, Union

from .cfrac import (
    GREATER,
    LESS,
    FinitePrefix,
    IrrationalNumber,
    common_prefix,
    compare_irrationals,
    compare_theta_rational,
)
from .errors import NoPath
from .exact import ReducedFraction
from .lattice import norm_to_fraction, theta_norm, ThetaLatticeElement

Slope = Union[ReducedFraction, IrrationalNumber]

__all__ = [
    "FareyTriangle",
    "FareyDiagram",
    "CuttingSequence",
    "FareyTree",
    "TreeNode",
    "RollerCoaster",
    "is_farey_geodesic",
    "slope_lt",
    "left_right_vertices",
    "farey_diagram",
    "cutting_sequence",
    "farey_tree",
    "theta_product",
    "bottom",
    "roller_coaster",
    "shortest_path_bundle",
]


# --------------------------------------------------------------------------
# exact comparisons across fraction / slope kinds


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


def _strictly_between(x: ReducedFraction, lo: ReducedFraction, hi: ReducedFraction) -> bool:
    """x in the open real interval (lo, hi); infinity never is."""
    if x.is_infinite:
        return False  # oo is an endpoint of the circle, inside no line interval
    if not lo < x:
        return False
    return hi.is_infinite or x < hi


def _inside(s: Slope, lo: ReducedFraction, hi: ReducedFraction) -> bool:
    """Slope strictly inside the open interval (lo, hi), lo < hi on the line.

    ``hi`` may be infinity, making the interval (lo, +oo).  Rational slopes
    equal to an endpoint are outside (open interval).
    """
    if isinstance(s, ReducedFraction):
        return _strictly_between(s, lo, hi)
    if compare_theta_rational(s, lo) != GREATER:
        return False
    return hi.is_infinite or compare_theta_rational(s, hi) == LESS


# --------------------------------------------------------------------------
# primitive predicates


def is_farey_geodesic(a: ReducedFraction, b: ReducedFraction) -> bool:
    """True when a and b span an edge of the Farey tessellation."""
    if a == b:
        raise ValueError("a geodesic needs two distinct endpoints")
    return abs(a.det(b)) == 1


def _difference_vertex(u: ReducedFraction, v: ReducedFraction) -> ReducedFraction:
    """Third vertex of the triangle *outside* the interval of Farey edge (u, v).

    The two triangles over an edge have apexes mediant(u, v) (inside the
    interval) and the normalized vector difference (outside).
    """
    p, q = u.p - v.p, u.q - v.q
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return ReducedFraction(p, q)


@dataclass(frozen=True)
class FareyTriangle:
    """An ideal triangle of the Farey tessellation.

    Vertices are stored sorted by real-line position (infinity last); for
    any Farey triangle the middle vertex is then the mediant of the outer
    two -- including fan triangles (n, n+1, oo), where the middle is
    n+1 = mediant(n/1, 1/0).
    """

    vertices: tuple[ReducedFraction, ReducedFraction, ReducedFraction]

    def __post_init__(self) -> None:
        vs = tuple(sorted(self.vertices))
        object.__setattr__(self, "vertices", vs)
        a, b, c = vs
        if not (is_farey_geodesic(a, b) and is_farey_geodesic(b, c) and is_farey_geodesic(a, c)):
            raise ValueError(f"not a Farey triangle: {a}, {b}, {c}")

    def edges(self) -> tuple[tuple[ReducedFraction, ReducedFraction], ...]:
        a, b, c = self.vertices
        return ((a, b), (b, c), (a, c))

    def key(self) -> frozenset:
        return frozenset(self.vertices)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.vertices) + ")"

    def to_dict(self) -> dict:
        return {"vertices": [str(v) for v in self.vertices]}


TriangleType = Literal["L", "R", "Start"]


def _on_lower_arc(v: Slope, theta: Slope, far: Slope) -> bool:
    """Is v on the arc of the (theta, far) chord that approaches theta from
    below?

    The chord cuts the circle Q u {oo} in two; the lower arc is the piece
    containing theta - eps, which wraps through oo exactly when far > theta.
    """
    below_theta = slope_lt(v, theta)
    if slope_lt(far, theta):
        return below_theta and slope_lt(far, v)
    return below_theta or slope_lt(far, v)


# --------------------------------------------------------------------------
# division vertices


@lru_cache(maxsize=1 << 16)
def left_right_vertices(
    theta: IrrationalNumber, r: ReducedFraction
) -> tuple[ReducedFraction, ReducedFraction]:
    """The two fractions l1, r1 that divide r one step toward theta.

    Characterized by: |l1| + |r1| = |r| in the theta-lattice, both norms
    positive and smaller than |r|, and the pairing chi(|l1|, |r|) = +1 (so
    chi(|r1|, |r|) = -1).  The extended Euclidean algorithm gives one x
    with chi(x, |r|) = 1; |l1| is its unique translate x + k*|r| in the
    value window (0, value(|r|)), with k - 1 = floor(-x / |r|) read off
    theta's quotients by `IrrationalNumber.floor_ratio`.  A FinitePrefix
    that cannot decide that floor, or the signs `norm_to_fraction` checks,
    raises PrecisionExhausted.
    """
    w = theta_norm(r, theta)
    # theta_norm's lift is primitive, so the extended Euclid identity
    # w.m*s + w.n*t = 1 gives chi(x, w) = w.m*s + w.n*t = 1 for x = (-t, s)
    _, s, t = _xgcd(w.m, w.n)
    x = ThetaLatticeElement(-t, s, theta)
    x = x + w.scaled(theta.floor_ratio(-x.m, -x.n, w.m, w.n) + 1)
    return norm_to_fraction(x), norm_to_fraction(w - x)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with a*s + b*t = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# --------------------------------------------------------------------------
# the crossing walk


def _sorted_pair(a: ReducedFraction, b: ReducedFraction) -> tuple[ReducedFraction, ReducedFraction]:
    return (a, b) if a < b else (b, a)


def _toward_apex(u: ReducedFraction, v: ReducedFraction, toward: Slope) -> ReducedFraction:
    """Apex of the triangle over the edge (u, v) on the side containing `toward`."""
    if _inside(toward, *_sorted_pair(u, v)):
        return u.mediant(v)
    return _difference_vertex(u, v)


def _same_side(x: Slope, target: Slope, u: ReducedFraction, v: ReducedFraction) -> bool:
    """Is x on the closed arc cut off by the edge (u, v) that holds target?

    The endpoints split Q u {oo} into the open interval between them and its
    complement through oo; they belong to both closed arcs.
    """
    if x in (u, v):
        return True
    lo, hi = _sorted_pair(u, v)
    return _inside(x, lo, hi) == _inside(target, lo, hi)


_Step = tuple[ReducedFraction, ReducedFraction, ReducedFraction, ReducedFraction]


def _walk(lower: ReducedFraction, upper: ReducedFraction, toward: IrrationalNumber) -> Iterator[_Step]:
    """Cross Farey triangles toward an irrational slope, from the edge
    (lower, upper) just crossed.

    Each triangle's third vertex, the apex, is the mediant or the difference
    vertex of the edge, whichever lies on toward's side.  One arc test picks
    the exit edge: (apex, upper) when upper lies on toward's side of
    (lower, apex), else (lower, apex).  A crossed edge has one end on each
    arc of the geodesic, so the apex takes the side of the vertex it
    replaces.  Yields (lower, upper, apex, replaced) with (lower, upper) the
    exit edge; the triangle is the exit edge plus the replaced vertex.  The
    exit edge does not depend on which end is called lower; diagrams pass
    the ends by arc to read each letter off the apex's side.
    """
    while True:
        apex = _toward_apex(lower, upper, toward)
        if _same_side(upper, toward, lower, apex):
            lower, replaced = apex, lower
        else:
            upper, replaced = apex, upper
        yield lower, upper, apex, replaced


def _fan(
    lower: ReducedFraction, upper: ReducedFraction, toward: IrrationalNumber, depth: int
) -> tuple[list[tuple[FareyTriangle, TriangleType]], list[ReducedFraction], list[ReducedFraction]]:
    """The first `depth` triangles of the walk with their letters, and the
    vertices they expose on the upper ("l") and lower ("r") arcs."""
    triangles: list[tuple[FareyTriangle, TriangleType]] = []
    left: list[ReducedFraction] = []
    right: list[ReducedFraction] = []
    for lower, upper, apex, replaced in itertools.islice(_walk(lower, upper, toward), depth):
        # a lower apex puts two of the triangle's vertices on the lower arc
        apex_is_lower = apex == lower
        triangles.append((FareyTriangle((lower, upper, replaced)), "L" if apex_is_lower else "R"))
        (right if apex_is_lower else left).append(apex)
    return triangles, left, right


# --------------------------------------------------------------------------
# Farey diagrams


@dataclass
class FareyDiagram:
    """The fan of Farey triangles crossed by the geodesic (far end, theta).

    ``triangles`` is ordered away from the far end toward theta, each entry
    carrying its L/R letter (the far-end triangle of a rational diagram is
    the untyped "Start").  ``left_labels`` / ``right_labels`` hold the
    division vertices by side as (index, fraction) pairs; the left side is
    the arc approaching theta from above.  Rational diagrams index from 1;
    two-ended irrational diagrams index the shared base edge 0 and count
    negatives away from theta.
    """

    theta: Slope
    far: Slope
    triangles: list[tuple[FareyTriangle, TriangleType]]
    left_labels: list[tuple[int, ReducedFraction]]
    right_labels: list[tuple[int, ReducedFraction]]

    def triangle_keys(self) -> set:
        return {t.key() for t, _ in self.triangles}

    def to_dict(self) -> dict:
        return {
            "theta": str(self.theta),
            "far": str(self.far),
            "triangles": [{**t.to_dict(), "type": ty} for t, ty in self.triangles],
            "left_labels": [[i, str(f)] for i, f in self.left_labels],
            "right_labels": [[i, str(f)] for i, f in self.right_labels],
        }


def farey_diagram(theta: IrrationalNumber, r: Slope, depth: int) -> FareyDiagram:
    """The Farey diagram of theta with far end r, truncated to `depth`.

    Rational r: `depth` triangles starting with the Start triangle at r.
    Irrational r: two-ended -- `depth` triangles toward theta and `depth`
    toward r, listed far-to-near (the r-directed ones reversed, then the
    theta-directed ones).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not isinstance(r, ReducedFraction):
        return _two_ended_diagram(theta, r, depth)
    l1, r1 = left_right_vertices(theta, r)
    # chi sign and arc side agree by the sign identity; keep both honest
    if _on_lower_arc(l1, theta, r) or not _on_lower_arc(r1, theta, r):
        raise AssertionError("l1 must lie on the upper arc and r1 on the lower arc")
    triangles, left, right = _fan(r1, l1, theta, depth - 1)
    return FareyDiagram(
        theta,
        r,
        [(FareyTriangle((r, l1, r1)), "Start")] + triangles,
        list(enumerate([l1] + left, 1)),
        list(enumerate([r1] + right, 1)),
    )


def _base_edge(theta: IrrationalNumber, r: IrrationalNumber) -> tuple[ReducedFraction, ReducedFraction]:
    """First finite Farey edge straddling r but not theta, as (lo, hi).

    This is the first interval of the Stern-Brocot descent toward r, started
    at (b0, b0 + 1) with b0 = floor(r), that leaves theta out.  Let k be the
    first index where the quotients a_k of theta and b_k of r differ.  For
    k = 0 the edge is (b0, b0 + 1).  Otherwise the deepest interval holding
    both slopes has mediant m = [common prefix; c + 1] with c = min(a_k, b_k),
    the simplest fraction between them, and the edge is its child on r's
    side: m with the semiconvergent [common prefix; c] when b_k is the
    smaller quotient, m with the convergent [common prefix] otherwise.
    """
    k, prev, prev2 = common_prefix(theta, r)
    b = r.quotient(k)
    if k == 0:
        return ReducedFraction(b, 1), ReducedFraction(b + 1, 1)
    c = min(theta.quotient(k), b)
    other = _extend_prefix(prev, prev2, c) if b == c else ReducedFraction(*prev)
    return _sorted_pair(_extend_prefix(prev, prev2, c + 1), other)


def _extend_prefix(prev: tuple[int, int], prev2: tuple[int, int], t: int) -> ReducedFraction:
    """The fraction [common prefix; t] from the prefix's last two convergents."""
    return ReducedFraction(t * prev[0] + prev2[0], t * prev[1] + prev2[1])


def _two_ended_diagram(theta: IrrationalNumber, r: IrrationalNumber, depth: int) -> FareyDiagram:
    if theta == r:
        raise ValueError("a diagram needs two distinct slopes")
    lo, hi = _base_edge(theta, r)
    l0, r0 = (hi, lo) if _on_lower_arc(lo, theta, r) else (lo, hi)
    if _on_lower_arc(l0, theta, r) or not _on_lower_arc(r0, theta, r):
        raise AssertionError("the base edge must have one end on each arc")
    ahead, ahead_l, ahead_r = _fan(r0, l0, theta, depth)
    behind, behind_l, behind_r = _fan(r0, l0, r, depth)
    return FareyDiagram(
        theta,
        r,
        behind[::-1] + ahead,
        list(enumerate(behind_l[::-1] + [l0] + ahead_l, -len(behind_l))),
        list(enumerate(behind_r[::-1] + [r0] + ahead_r, -len(behind_r))),
    )


# --------------------------------------------------------------------------
# cutting sequences


@dataclass(frozen=True)
class CuttingSequence:
    """Run-length-encoded letters of the cutting walk toward a slope.

    ``runs`` is a list of (letter, count) pairs with alternating letters.
    For theta > 1 the k-th run length is the k-th partial quotient a_k;
    for 0 < theta < 1 the sequence starts with R and the k-th run is
    a_{k+1}.  Slopes below the unit interval are translated up by an
    integer first (integer translation does not change the tail).
    """

    theta: IrrationalNumber
    runs: tuple[tuple[str, int], ...]

    def letters(self) -> str:
        return "".join(letter * count for letter, count in self.runs)

    def to_dict(self) -> dict:
        return {"theta": str(self.theta), "runs": [[l, c] for l, c in self.runs]}


def cutting_sequence(theta: IrrationalNumber, depth: int) -> CuttingSequence:
    """First `depth` complete runs of the cutting sequence of theta.

    The walk starts at the ideal triangle (0, 1, oo) and crosses one Farey
    edge per step toward theta; each triangle contributes one letter: L if
    two of its vertices sit below theta, R otherwise.  The walk turns the
    same way while it descends through one partial quotient, so the runs
    are read off the quotients: L a0, R a1, L a2, ... for a0 >= 1, and
    R a1, L a2, ... for 0 < theta < 1.  A slope with a0 < 0 is first
    translated to a0 = 0, and the result stores the translated slope.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    a0 = theta.quotient(0)
    if a0 < 0:
        theta = theta.translated(-a0)
    first = 0 if a0 >= 1 else 1
    runs = tuple(("R" if j % 2 else "L", theta.quotient(j)) for j in range(first, first + depth))
    return CuttingSequence(theta, runs)


# --------------------------------------------------------------------------
# the binary division tree


@dataclass(frozen=True)
class TreeNode:
    fraction: ReducedFraction
    side: Optional[str]  # "l" / "r", None at the root
    children: tuple = ()

    def leaves(self) -> list:
        if not self.children:
            return [self]
        out: list[TreeNode] = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def to_dict(self) -> dict:
        d: dict = {"fraction": str(self.fraction)}
        if self.side is not None:
            d["side"] = self.side
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d


@dataclass(frozen=True)
class FareyTree:
    """Binary tree of repeated division vertices under a slope.

    Each node's children are its left/right division vertices one step
    toward theta, so a depth-d tree has 2^d leaves, and the leaf norms sum
    to the root's norm in the theta-lattice.
    """

    theta: IrrationalNumber
    root: TreeNode
    depth: int

    def to_dict(self) -> dict:
        return {"theta": str(self.theta), "depth": self.depth, "root": self.root.to_dict()}


def farey_tree(theta: IrrationalNumber, r: ReducedFraction, depth: int) -> FareyTree:
    if depth < 0:
        raise ValueError("depth must be >= 0")

    def grow(fraction: ReducedFraction, side: Optional[str], levels: int) -> TreeNode:
        if levels == 0:
            return TreeNode(fraction, side)
        l1, r1 = left_right_vertices(theta, fraction)
        return TreeNode(fraction, side, (grow(l1, "l", levels - 1), grow(r1, "r", levels - 1)))

    return FareyTree(theta, grow(r, None, depth), depth)


# --------------------------------------------------------------------------
# the product r1 . r2 over theta


def theta_product(r1: Slope, r2: Slope, theta: IrrationalNumber) -> Slope:
    """The slope whose diagram is the intersection of the two diagrams.

    Each triangle of a diagram has one edge e facing theta, and the diagram
    of a slope s is exactly the set of triangles whose closed arc beyond e,
    the one holding theta, leaves s out.  These arcs shrink along the walk
    toward theta, so the intersection is the tail of r1's walk from the
    first edge whose arc excludes r2, and the product is the vertex
    opposite that edge.  A rational r1 walks from its Start edge; an
    irrational r1 starts from its base edge and walks toward theta, or
    widens toward r1 while the arc still leaves r2 out.
    """
    if _slopes_equal(r1, r2):
        return r1
    if _slopes_equal(r1, theta) or _slopes_equal(r2, theta):
        return theta
    for a, b in ((r1, r2), (r1, theta), (r2, theta)):
        _require_distinct(a, b)
    if isinstance(r2, ReducedFraction):
        r1, r2 = r2, r1  # the product is symmetric; walk from a rational
    if isinstance(r1, ReducedFraction):
        edge = left_right_vertices(theta, r1)
        if not _same_side(r2, theta, *edge):
            return r1
    else:
        edge = _base_edge(theta, r1)
        if not _same_side(r2, theta, *edge):
            for lower, upper, apex, _ in _walk(*edge, r1):
                if _same_side(r2, theta, lower, upper):
                    return apex
    for lower, upper, _, replaced in _walk(*edge, theta):
        if not _same_side(r2, theta, lower, upper):
            return replaced


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


# --------------------------------------------------------------------------
# bottom of an interval


def bottom(theta: IrrationalNumber, theta2: IrrationalNumber) -> ReducedFraction:
    """The unique simplest fraction strictly between theta and theta2.

    Smallest denominator, ties broken toward the smaller fraction.  With k
    the first index where the partial quotients a_k, b_k differ, it is the
    common prefix followed by min(a_k, b_k) + 1: [a0; a1, ..., a_{k-1},
    min(a_k, b_k) + 1] (for k = 0 the integer min(a0, b0) + 1).  Requires
    theta < theta2.
    """
    if compare_irrationals(theta, theta2) != LESS:
        raise ValueError("need theta < theta2")
    k, prev, prev2 = common_prefix(theta, theta2)
    return _extend_prefix(prev, prev2, min(theta.quotient(k), theta2.quotient(k)) + 1)


# --------------------------------------------------------------------------
# the roller coaster complex


@dataclass
class RollerCoaster:
    """Semiconvergent fan families of a slope as a directed complex.

    Vertices are the semiconvergents beta_{i,m} (family i >= -1, step m)
    including 1/0; family i spans the fan between convergents beta_i and
    beta_{i+2} with apex beta_{i+1}.  Edges are the triangle edges,
    directed smaller fraction -> larger fraction, each labeled with the
    normalized vector difference of its endpoints, which is always the
    third vertex of exactly one triangle containing that edge.  Exterior
    edges are the same-family consecutive ones plus (beta_0, 1/0); the
    cross-apex edges are interior.
    """

    theta: IrrationalNumber
    depth: int
    vertices: list[ReducedFraction]
    family_index: dict  # vertex -> (family, step) of first appearance
    triangles: list[FareyTriangle]
    labels: dict  # (small, large) -> label fraction
    classes: dict  # (small, large) -> "exterior" | "interior"

    def edges(self) -> list[tuple[ReducedFraction, ReducedFraction]]:
        return list(self.labels)

    def successors(self, v: ReducedFraction) -> list[ReducedFraction]:
        return [b for (a, b) in self.labels if a == v]

    def to_dict(self) -> dict:
        return {
            "theta": str(self.theta),
            "depth": self.depth,
            "vertices": [str(v) for v in self.vertices],
            "triangles": [t.to_dict() for t in self.triangles],
            "edges": [
                {
                    "from": str(a),
                    "to": str(b),
                    "label": str(self.labels[(a, b)]),
                    "class": self.classes[(a, b)],
                }
                for (a, b) in self.labels
            ],
        }


def roller_coaster(theta: IrrationalNumber, depth: int) -> RollerCoaster:
    """Families i = -1 .. depth of the semiconvergent fan complex, so the
    vertex set carries every beta_{i, m} with family index i <= depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if theta.quotient(0) < 1:
        # the fan picture wants beta_0 >= 1; an integer translation moves
        # every vertex by the same integer and changes no quotient past a0
        theta = theta.translated(1 - theta.quotient(0))

    def semi(i: int, m: int) -> ReducedFraction:
        pi, qi = theta.convergent_pair(i)
        pn, qn = theta.convergent_pair(i + 1)
        return ReducedFraction(pi + m * pn, qi + m * qn)

    vertices: list[ReducedFraction] = []
    family_index: dict = {}
    triangles: list[FareyTriangle] = []
    labels: dict = {}
    classes: dict = {}

    def add_vertex(v: ReducedFraction, fam: int, step: int) -> None:
        if v not in family_index:
            family_index[v] = (fam, step)
            vertices.append(v)

    def add_edge(a: ReducedFraction, b: ReducedFraction, cls: str) -> None:
        if a > b:
            a, b = b, a
        key = (a, b)
        if key in labels:
            if classes[key] != cls and cls != "interior":
                raise AssertionError(f"edge {a}--{b} is both {classes[key]} and {cls}")
            return
        labels[key] = _difference_vertex(b, a)
        classes[key] = cls

    for i in range(-1, depth + 1):
        a_next = theta.quotient(i + 2)
        apex = theta.convergent(i + 1)
        for m in range(a_next + 1):
            add_vertex(semi(i, m), i, m)
        for m in range(a_next):
            u, v = semi(i, m), semi(i, m + 1)
            triangles.append(FareyTriangle((u, v, apex)))
            add_edge(u, v, "exterior")
            add_edge(u, apex, "exterior" if (i == -1 and m == 0) else "interior")
            add_edge(v, apex, "interior")

    return RollerCoaster(theta, depth, vertices, family_index, triangles, labels, classes)


def shortest_path_bundle(
    rc: RollerCoaster, start: ReducedFraction, end: ReducedFraction
) -> list[ReducedFraction]:
    """Edge labels along the unique shortest directed path start -> end.

    Directed edges run from the smaller fraction to the larger, so a path
    exists only if start < end (and both are coaster vertices); raises
    NoPath otherwise.  A second shortest path raises AssertionError.
    """
    if start not in rc.family_index or end not in rc.family_index:
        raise NoPath(f"{start} or {end} is not a vertex of this roller coaster")
    if start == end:
        return []
    successors: dict = {}
    for a, b in rc.labels:
        successors.setdefault(a, []).append(b)
    dist = {start: 0}
    ways = {start: 1}
    parent = {}
    q = deque([start])
    while q:
        v = q.popleft()
        if v == end:
            break
        for w in successors.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                ways[w] = ways[v]
                parent[w] = v
                q.append(w)
            elif dist[w] == dist[v] + 1:
                ways[w] += ways[v]
    if end not in dist:
        raise NoPath(f"no directed path from {start} to {end}")
    if ways[end] != 1:
        raise AssertionError("shortest path is not unique")
    path: list[ReducedFraction] = []
    v = end
    while v != start:
        u = parent[v]
        path.append(rc.labels[(u, v) if u < v else (v, u)])
        v = u
    path.reverse()
    return path
