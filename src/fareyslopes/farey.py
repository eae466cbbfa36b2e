"""Farey tessellation walks: diagrams, cutting sequences, trees, products.

Everything here is exact.  Triangles of the Farey tessellation are triples
of pairwise-adjacent reduced fractions (adjacent = determinant ±1), and all
walks are driven by exact sign tests against the irrational slope, so a
diagram computed at depth 40 is correct at depth 40 -- there is no float
drift to accumulate.

The geometric picture (hyperbolic geodesics crossing ideal triangles) is
only a picture: each step of a walk is the combinatorial move "cross one
edge of the current triangle", and which edge gets crossed is decided by
interval membership of the two geodesic endpoints.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Optional, Union

from .cfrac import GREATER, LESS, IrrationalNumber, common_prefix, compare_irrationals, compare_theta_rational
from .errors import NoPath
from .exact import ReducedFraction
from .lattice import chi, norm_to_fraction, theta_norm, ThetaLatticeElement

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
        assert b == a.mediant(c), "middle vertex must be the mediant of the outer two"

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


def _on_lower_arc(v: Slope, theta: Slope, far: Optional[Slope]) -> bool:
    """Is v on the arc of the (theta, far) chord that approaches theta from
    below?

    With far absent (cutting walks: the far end is negative, below every
    vertex) this is plain v < theta.  Otherwise the chord cuts the circle
    Q u {oo} in two; the lower arc is the piece containing theta - eps,
    which wraps through oo exactly when far > theta.
    """
    below_theta = slope_lt(v, theta)
    if far is None:
        return below_theta
    if slope_lt(far, theta):
        return below_theta and slope_lt(far, v)
    return below_theta or slope_lt(far, v)


def _triangle_type(tri: FareyTriangle, theta: Slope, far: Optional[Slope]) -> TriangleType:
    lower = sum(1 for v in tri.vertices if _on_lower_arc(v, theta, far))
    if lower == 2:
        return "L"
    if lower == 1:
        return "R"
    raise ValueError(f"triangle {tri} is not split 2-1 by the chord toward {far}")


# --------------------------------------------------------------------------
# division vertices


@lru_cache(maxsize=1 << 16)
def left_right_vertices(
    theta: IrrationalNumber, r: ReducedFraction
) -> tuple[ReducedFraction, ReducedFraction]:
    """The two fractions l1, r1 that divide r one step toward theta.

    Characterized by: |l1| + |r1| = |r| in the theta-lattice, both norms
    positive and smaller than |r|, and the pairing chi(|l1|, |r|) = +1 (so
    chi(|r1|, |r|) = -1).  Solved with the extended Euclidean algorithm;
    the unique integer translate landing in the value window
    (0, value(|r|)) is located with a float estimate and then corrected by
    exact sign tests, so nothing depends on float accuracy.
    """
    w = theta_norm(r, theta)
    # chi(x, w) = w.m * x.n - w.n * x.m = 1 is solvable since gcd(w.m, w.n)
    # is 1; the extended Euclid identity w.m*s + w.n*t = 1 gives x0 = (-t, s)
    g, s, t = _xgcd(w.m, w.n)
    assert g == 1
    x = ThetaLatticeElement(-t, s, theta)
    assert chi(x, w) == 1
    omega = w.value()
    if omega:
        x = x + w.scaled(int(-x.value() / omega))
    while x.sign() <= 0:
        x = x + w
    while (x - w).sign() >= 0:
        x = x - w
    y = w - x
    assert x.sign() > 0 and y.sign() > 0
    return norm_to_fraction(x), norm_to_fraction(y)


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
# crossing walks


@dataclass(frozen=True)
class _WalkStep:
    triangle: FareyTriangle
    new_vertex: ReducedFraction  # the vertex this step exposed


def _other_apex(tri_apex: ReducedFraction, lo: ReducedFraction, hi: ReducedFraction) -> ReducedFraction:
    """Apex of the second triangle over edge (lo, hi), given one apex."""
    if _strictly_between(tri_apex, lo, hi) or (
        hi.is_infinite and not tri_apex.is_infinite and lo < tri_apex
    ):
        return _difference_vertex(lo, hi)
    return lo.mediant(hi)


def _walk_from_edge(
    toward: Slope,
    far: Slope,
    edge: tuple[ReducedFraction, ReducedFraction],
    first_apex: ReducedFraction,
) -> Iterator[_WalkStep]:
    """Cross triangles starting on the `toward` side of `edge`.

    Yields each triangle with the vertex it exposes.  The exit edge of a
    triangle is the unique non-entry edge separating `toward` from `far`
    (exactly one of the two endpoints of the geodesic lies in the edge's
    interval); edges incident to a rational geodesic endpoint only meet
    the geodesic at infinity and are never crossed.
    """
    lo, hi = edge if edge[0] < edge[1] else (edge[1], edge[0])
    tri = FareyTriangle((lo, hi, first_apex))
    entry = frozenset((lo, hi))
    yield _WalkStep(tri, first_apex)
    while True:
        exit_edge = None
        for a, b in tri.edges():
            if frozenset((a, b)) == entry:
                continue
            if isinstance(far, ReducedFraction) and far in (a, b):
                continue
            if isinstance(toward, ReducedFraction) and toward in (a, b):
                continue
            in_toward = _inside(toward, a, b)
            in_far = _inside(far, a, b)
            if in_toward != in_far:
                assert exit_edge is None, f"two exit edges in {tri}"
                exit_edge = (a, b)
        assert exit_edge is not None, f"no exit edge from {tri}"
        lo, hi = exit_edge
        apex = next(x for x in tri.vertices if x not in exit_edge)
        tri = FareyTriangle((lo, hi, _other_apex(apex, lo, hi)))
        entry = frozenset(exit_edge)
        yield _WalkStep(tri, next(x for x in tri.vertices if x not in exit_edge))


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


_Label = tuple[int, ReducedFraction, str]  # (index, vertex, side)


def _diagram_steps_rational(
    theta: IrrationalNumber, r: ReducedFraction
) -> Iterator[tuple[FareyTriangle, TriangleType, list[_Label]]]:
    """Triangles of the diagram of (theta, r) with types and fresh labels."""
    l1, r1 = left_right_vertices(theta, r)
    start = FareyTriangle((r, l1, r1))
    # chi sign and arc side agree by the sign identity; keep both honest
    assert not _on_lower_arc(l1, theta, r) and _on_lower_arc(r1, theta, r)
    yield start, "Start", [(1, l1, "l"), (1, r1, "r")]
    next_index = {"l": 2, "r": 2}
    walk = _walk_from_edge(theta, r, (l1, r1), _other_apex(r, *_sorted_pair(l1, r1)))
    for step in walk:
        side = "r" if _on_lower_arc(step.new_vertex, theta, r) else "l"
        label = (next_index[side], step.new_vertex, side)
        next_index[side] += 1
        yield step.triangle, _triangle_type(step.triangle, theta, r), [label]


def _sorted_pair(a: ReducedFraction, b: ReducedFraction) -> tuple[ReducedFraction, ReducedFraction]:
    return (a, b) if a < b else (b, a)


def farey_diagram(theta: IrrationalNumber, r: Slope, depth: int) -> FareyDiagram:
    """The Farey diagram of theta with far end r, truncated to `depth`.

    Rational r: `depth` triangles starting with the Start triangle at r.
    Irrational r: two-ended -- `depth` triangles toward theta and `depth`
    toward r, listed far-to-near (the r-directed ones reversed, then the
    theta-directed ones).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if isinstance(r, ReducedFraction):
        tris: list[tuple[FareyTriangle, TriangleType]] = []
        left: list[tuple[int, ReducedFraction]] = []
        right: list[tuple[int, ReducedFraction]] = []
        for tri, ty, labels in _diagram_steps_rational(theta, r):
            tris.append((tri, ty))
            for idx, vert, side in labels:
                (left if side == "l" else right).append((idx, vert))
            if len(tris) == depth:
                break
        return FareyDiagram(theta, r, tris, left, right)
    return _two_ended_diagram(theta, r, depth)


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
    if _on_lower_arc(lo, theta, r):
        l0, r0 = hi, lo
    else:
        l0, r0 = lo, hi
    assert not _on_lower_arc(l0, theta, r) and _on_lower_arc(r0, theta, r)
    left = [(0, l0)]
    right = [(0, r0)]
    toward_theta: list[tuple[FareyTriangle, TriangleType]] = []
    idx = {"l": 1, "r": 1}
    walk = _walk_from_edge(theta, r, (lo, hi), _toward_apex(lo, hi, theta))
    for step in itertools.islice(walk, depth):
        toward_theta.append((step.triangle, _triangle_type(step.triangle, theta, r)))
        side = "r" if _on_lower_arc(step.new_vertex, theta, r) else "l"
        (left if side == "l" else right).append((idx[side], step.new_vertex))
        idx[side] += 1
    toward_r: list[tuple[FareyTriangle, TriangleType]] = []
    nidx = {"l": -1, "r": -1}
    walk_r = _walk_from_edge(r, theta, (lo, hi), _toward_apex(lo, hi, r))
    for step in itertools.islice(walk_r, depth):
        toward_r.append((step.triangle, _triangle_type(step.triangle, theta, r)))
        side = "r" if _on_lower_arc(step.new_vertex, theta, r) else "l"
        (left if side == "l" else right).insert(0, (nidx[side], step.new_vertex))
        nidx[side] -= 1
    triangles = list(reversed(toward_r)) + toward_theta
    return FareyDiagram(theta, r, triangles, left, right)


def _toward_apex(lo: ReducedFraction, hi: ReducedFraction, toward: Slope) -> ReducedFraction:
    """Apex of the triangle over (lo, hi) on the side containing `toward`."""
    if _inside(toward, lo, hi):
        return lo.mediant(hi)
    return _difference_vertex(lo, hi)


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

    Rational operands: walk both diagrams toward theta until they first
    share a triangle, and read the result off that triangle (the case
    analysis of the intersection proof).  With an irrational operand the
    shared tail is instead located by bracketing the irrational against
    the division vertices of the other operand's diagram.
    """
    if _slopes_equal(r1, r2):
        return r1
    if isinstance(r1, IrrationalNumber) and r1 == theta:
        return theta
    if isinstance(r2, IrrationalNumber) and r2 == theta:
        return theta
    if isinstance(r1, ReducedFraction) and isinstance(r2, ReducedFraction):
        return _product_rational(r1, r2, theta)
    if isinstance(r2, IrrationalNumber):
        return _bracket_on_line(r1, r2, theta)
    return _bracket_on_line(r2, r1, theta)


def _slopes_equal(a: Slope, b: Slope) -> bool:
    if isinstance(a, ReducedFraction) != isinstance(b, ReducedFraction):
        return False
    return a == b


def _product_rational(
    r1: ReducedFraction, r2: ReducedFraction, theta: IrrationalNumber
) -> ReducedFraction:
    gen1 = _diagram_steps_rational(theta, r1)
    gen2 = _diagram_steps_rational(theta, r2)
    order1: list[FareyTriangle] = []
    seen2: set = set()
    common: Optional[FareyTriangle] = None
    while common is None:
        t1 = next(gen1)[0]
        order1.append(t1)
        seen2.add(next(gen2)[0].key())
        for t in order1:
            if t.key() in seen2:
                common = t
                break
    a, b, c = common.vertices  # ascending, infinity greatest
    if _inside(theta, b, c):
        return a
    if _inside(theta, a, b):
        return c
    return b


def _label_line(
    theta: IrrationalNumber, far: Slope
) -> tuple[Iterable, Iterable, Optional[ReducedFraction]]:
    """Division-vertex streams of the diagram of (theta, far).

    Returns (toward_theta, away_from_theta, fallback): streams of
    (side, fraction) pairs in arc order -- the first moving from the far
    end toward theta (root or base pair first), the second moving from the
    base toward an irrational far end (empty for rational far, where
    `fallback` is the root instead).
    """
    if isinstance(far, ReducedFraction):
        def toward() -> Iterator[tuple[str, ReducedFraction]]:
            yield ("r" if slope_lt(far, theta) else "l", far)
            for _, _, labels in _diagram_steps_rational(theta, far):
                for _, vert, side in labels:
                    yield side, vert

        return toward(), iter(()), far

    lo, hi = _base_edge(theta, far)

    def toward() -> Iterator[tuple[str, ReducedFraction]]:
        for v in (lo, hi):
            yield ("r" if _on_lower_arc(v, theta, far) else "l", v)
        for step in _walk_from_edge(theta, far, (lo, hi), _toward_apex(lo, hi, theta)):
            v = step.new_vertex
            yield ("r" if _on_lower_arc(v, theta, far) else "l", v)

    def away() -> Iterator[tuple[str, ReducedFraction]]:
        for step in _walk_from_edge(far, theta, (lo, hi), _toward_apex(lo, hi, far)):
            v = step.new_vertex
            yield ("r" if _on_lower_arc(v, theta, far) else "l", v)

    return toward(), away(), None


def _reaches(v: ReducedFraction, x: IrrationalNumber, theta: IrrationalNumber, far: Slope, lower: bool) -> bool:
    """Does label v sit at or before x along the arc, walking far -> theta?

    "Before" is arc order on the chosen arc of the (theta, far) chord; on
    a wrapping arc the far-side segment precedes the theta-side one.
    """
    far_below = slope_lt(far, theta)
    if lower:
        if far_below:
            return slope_lt(v, x)  # plain ascent far -> theta
        seg_v = 1 if (v.is_infinite or slope_lt(far, v)) else 2
        seg_x = 1 if slope_lt(far, x) else 2
        if seg_v != seg_x:
            return seg_v < seg_x
        return slope_lt(v, x)
    if not far_below:
        return slope_lt(x, v)  # plain descent far -> theta
    seg_v = 2 if v.is_infinite else (1 if slope_lt(v, far) else 3)
    seg_x = 1 if slope_lt(x, far) else 3
    if seg_v != seg_x:
        return seg_v < seg_x
    return slope_lt(x, v)


def _bracket_on_line(far: Slope, x: IrrationalNumber, theta: IrrationalNumber) -> ReducedFraction:
    """Locate x between consecutive same-side division vertices of the
    diagram of (theta, far); the vertex on the far side of x is the product."""
    lower = _on_lower_arc(x, theta, far)
    side = "r" if lower else "l"
    toward, away, fallback = _label_line(theta, far)
    best: Optional[ReducedFraction] = None
    for s, v in toward:
        if s != side:
            continue
        if _reaches(v, x, theta, far, lower):
            best = v
        else:
            break
    if best is not None:
        return best
    for s, v in away:
        if s != side:
            continue
        if _reaches(v, x, theta, far, lower):
            return v
    assert fallback is not None, "two-ended label line failed to bracket"
    return fallback


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
            assert classes[key] == cls or cls == "interior"
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
    NoPath otherwise.  Asserts uniqueness of the shortest path.
    """
    if start not in rc.family_index or end not in rc.family_index:
        raise NoPath(f"{start} or {end} is not a vertex of this roller coaster")
    if start == end:
        return []
    dist = {start: 0}
    ways = {start: 1}
    parent = {}
    q = deque([start])
    while q:
        v = q.popleft()
        if v == end:
            break
        for w in rc.successors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                ways[w] = ways[v]
                parent[w] = v
                q.append(w)
            elif dist[w] == dist[v] + 1:
                ways[w] += ways[v]
    if end not in dist:
        raise NoPath(f"no directed path from {start} to {end}")
    assert ways[end] == 1, "shortest path is not unique"
    path: list[ReducedFraction] = []
    v = end
    while v != start:
        u = parent[v]
        path.append(rc.labels[(u, v) if u < v else (v, u)])
        v = u
    path.reverse()
    return path
