"""Farey tessellation walks: diagrams, cutting sequences, trees, products.

Everything here is exact.  Triangles of the Farey tessellation are triples
of pairwise-adjacent reduced fractions (adjacent = determinant ±1), and all
walks read their steps off partial quotients, so a diagram computed at
depth 40 is correct at depth 40 -- there is no float drift to accumulate.

The geometric picture (hyperbolic geodesics crossing ideal triangles) is
only a picture: each step of a walk is the combinatorial move "cross one
edge of the current triangle".  Beyond a crossed edge the triangles come in
fans, one per partial quotient (C. Series, "The geometry of Markoff
numbers", 1985): a unimodular M sending 0 and oo to the edge's ends turns
the walk toward a slope into the Stern-Brocot descent toward y = M^-1(slope),
whose quotients, from Gosper's algorithm, give whole runs of triangles with
no sign test per triangle.
"""

from __future__ import annotations

import math
from typing import Literal, Optional

from .cfrac import (
    IrrationalNumber,
    Slope,
    _require_distinct,
    _slopes_equal,
    bottom,
    common_prefix,
    semiconvergent,
    semiconvergents,
    slope_lt,
)
from .errors import NoPath
from .exact import ReducedFraction, Value
from .lattice import norm_to_fraction, theta_norm, ThetaLatticeElement

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
# primitive predicates


def is_farey_geodesic(a: ReducedFraction, b: ReducedFraction) -> bool:
    """True when a and b span an edge of the Farey tessellation."""
    if a == b:
        raise ValueError("a geodesic needs two distinct endpoints")
    return a.is_farey_neighbor(b)


def _difference_vertex(u: ReducedFraction, v: ReducedFraction) -> ReducedFraction:
    """Third vertex of the triangle *outside* the interval of Farey edge (u, v).

    The two triangles over an edge have apexes mediant(u, v) (inside the
    interval) and the normalized vector difference (outside).
    """
    return ReducedFraction(u.p - v.p, u.q - v.q)  # the constructor normalizes the sign


class FareyTriangle(Value):
    """An ideal triangle of the Farey tessellation.

    Vertices are stored sorted by real-line position (infinity last); for
    any Farey triangle the middle vertex is then the mediant of the outer
    two -- including fan triangles (n, n+1, oo), where the middle is
    n+1 = mediant(n/1, 1/0).
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[ReducedFraction, ReducedFraction, ReducedFraction]):
        a, b, c = vs = tuple(sorted(vertices))
        if not (is_farey_geodesic(a, b) and is_farey_geodesic(b, c) and is_farey_geodesic(a, c)):
            raise ValueError(f"not a Farey triangle: {a}, {b}, {c}")
        self._init(vs)

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


# --------------------------------------------------------------------------
# division vertices


def left_right_vertices(
    theta: IrrationalNumber, r: ReducedFraction
) -> tuple[ReducedFraction, ReducedFraction]:
    """The two fractions l1, r1 that divide r one step toward theta.

    Characterized by: |l1| + |r1| = |r| in the theta-lattice, both norms
    positive and smaller than |r|, and the pairing chi(|l1|, |r|) = +1 (so
    chi(|r1|, |r|) = -1).  A modular inverse gives one x with
    chi(x, |r|) = 1; |l1| is its unique translate x + k*|r| in the value
    window (0, value(|r|)), with k - 1 = floor(-x / |r|) read off
    theta's quotients by `IrrationalNumber.floor_ratio`.  A FinitePrefix
    that cannot decide that floor, or the signs `norm_to_fraction` checks,
    raises PrecisionExhausted.
    """
    return _split(theta, r)[0]


def _split(theta: IrrationalNumber, r: ReducedFraction) -> tuple:
    """((l1, r1), (m, n)) with |l1| = m*theta + n, kept by theta per r."""
    split = theta._splits.get(r)
    if split is None:
        w = theta_norm(r, theta)
        # theta_norm's lift is primitive, so s = w.m^-1 mod w.n and
        # t = (1 - w.m*s)/w.n give chi(x, w) = w.m*s + w.n*t = 1 for x = (-t, s);
        # w.n = 0 only for r = 0, where w.m = ±1 and t = 0
        s = pow(w.m, -1, w.n) if w.n else w.m
        x = ThetaLatticeElement((w.m * s - 1) // (w.n or 1), s, theta)
        x = x + w.scaled(theta.floor_ratio(-x.m, -x.n, w.m, w.n) + 1)
        split = theta._splits[r] = (norm_to_fraction(x), norm_to_fraction(w - x)), (x.m, x.n)
    return split


# --------------------------------------------------------------------------
# fans of quotient runs


_Vector = tuple[int, int]


def _plus(a: _Vector, b: _Vector, k: int) -> _Vector:
    return a[0] + k * b[0], a[1] + k * b[1]


def _coords(lower: _Vector, upper: _Vector, v: ReducedFraction) -> tuple[int, int]:
    """(num, den) with num/den = M^-1(v) for M = (upper lower) by columns."""
    return lower[1] * v.p - lower[0] * v.q, upper[0] * v.q - upper[1] * v.p


def _det(lower: _Vector, upper: _Vector) -> int:
    """det M, +1 when the frame keeps the circle's orientation."""
    return upper[0] * lower[1] - lower[0] * upper[1]


def _frame(lower: ReducedFraction, upper: ReducedFraction, toward: IrrationalNumber) -> tuple[_Vector, _Vector]:
    """The edge (lower, upper) as the frame M = (upper +-lower): M(0) = lower,
    M(oo) = upper, and y = M^-1(toward) = (q*toward - p)/(p' - q'*toward)
    > 0 for lower = p/q, upper = p'/q'; two signs, whatever the walk's length."""
    lo, up = (lower.p, lower.q), (upper.p, upper.q)
    if toward.lattice_sign(lo[1], -lo[0]) * toward.lattice_sign(-up[1], up[0]) < 0:
        lo = (-lo[0], -lo[1])
    return lo, up


def _runs(lower: _Vector, upper: _Vector, toward: IrrationalNumber):
    """The primed quotient stream of M^-1(toward)."""
    stream = toward.ratio_quotients(lower[1], -lower[0], -upper[1], upper[0])
    next(stream)
    return stream


def _fan(
    lower: _Vector, upper: _Vector, toward: IrrationalNumber, depth: int
) -> tuple[list[tuple[FareyTriangle, TriangleType]], list[ReducedFraction], list[ReducedFraction]]:
    """The first `depth` triangles beyond a frame's edge toward a slope, with
    their letters, and the vertices they expose on the upper ("l") and lower
    ("r") arcs.  Run k takes b_k steps for M^-1(toward) = [b0; b1, ...],
    each apex the vector sum of the current ends; even runs replace lower
    (letter L, apex on the lower arc), odd runs upper.  The last run need
    only be known to cover the triangles still missing."""
    triangles, left, right = [], [], []
    stream = _runs(lower, upper, toward)
    moving, fixed = lower, upper
    moving_end, fixed_end = ReducedFraction(*lower), ReducedFraction(*upper)
    letter, labels = "L", right
    while len(triangles) < depth:
        missing = depth - len(triangles)
        for _ in range(min(stream.send(missing), missing)):
            moving = _plus(moving, fixed, 1)
            apex = ReducedFraction(*moving)
            triangles.append((FareyTriangle((apex, fixed_end, moving_end)), letter))
            labels.append(apex)
            moving_end = apex
        moving, fixed, moving_end, fixed_end = fixed, moving, fixed_end, moving_end
        letter, labels = ("R", left) if letter == "L" else ("L", right)
    return triangles, left, right


def _leave(
    lower: _Vector, upper: _Vector, toward: IrrationalNumber, other: Slope
) -> Optional[tuple[_Vector, _Vector]]:
    """The triangle, as (replaced vertex, apex), where `other` leaves the
    closed arcs beyond the edges crossed toward `toward`; None when it
    starts outside.  An irrational `other` is never an end of an edge, so
    for it the open arcs give the same triangle.

    In the frame the arcs are the Stern-Brocot intervals of M^-1(toward).
    Run k moves an end A toward the fixed end B; its step j crosses the
    triangle (A + (j-1)B, A + jB, B) into [j, oo] in the coordinate
    x -> A + xB.  z = M^-1(other), read there as z_k, leaves at the first
    j <= b_k with z_k < j, else the next run reads 1/(z_k - b_k): one floor
    per run for rational z.  Irrational z stays while its quotients c_k
    equal b_k, then leaves at step c_k + 1, or at the next run's first step
    when c_k > b_k.
    """
    ys = _runs(lower, upper, toward)
    a, b = lower, upper
    if isinstance(other, ReducedFraction):
        num, den = _coords(lower, upper, other)
        if num * den < 0:
            return None
        num, den = abs(num), abs(den)
        while True:
            step = num // den + 1 if den else None  # z_k = oo: every step keeps B
            n = ys.send(step)
            if step is not None and step <= n:
                return _plus(a, b, step - 1), _plus(a, b, step)
            num, den = den, num - n * den
            a, b = b, _plus(a, b, n)
    zs = _runs(lower, upper, other)
    c = next(zs)
    if c < 0:
        return None
    while (n := ys.send(c + 1)) == c:
        a, b = b, _plus(a, b, n)
        c = next(zs)
    return (_plus(a, b, c), _plus(a, b, c + 1)) if c < n else (b, _plus(a, b, n + 1))


# --------------------------------------------------------------------------
# Farey diagrams


class FareyDiagram(Value):
    """The fan of Farey triangles crossed by the geodesic (far end, theta).

    ``triangles`` is ordered away from the far end toward theta, each entry
    carrying its L/R letter (the far-end triangle of a rational diagram is
    the untyped "Start").  ``left_labels`` / ``right_labels`` hold the
    division vertices by side as (index, fraction) pairs; the left side is
    the arc approaching theta from above.  Rational diagrams index from 1;
    two-ended irrational diagrams index the shared base edge 0 and count
    negatives away from theta.  A rational diagram's labels are spines of
    the division tree: the n-th left label is the far end's first child
    (`left_right_vertices`) taken n times, the n-th right its second.
    """

    __slots__ = ("theta", "far", "triangles", "left_labels", "right_labels")

    def __init__(self, theta: Slope, far: Slope, triangles: list[tuple[FareyTriangle, TriangleType]],
                 left_labels: list[tuple[int, ReducedFraction]],
                 right_labels: list[tuple[int, ReducedFraction]]):
        self._init(theta, far, triangles, left_labels, right_labels)

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
    lower, upper = _frame(r1, l1, theta)
    # r1 is on the lower arc and l1 on the upper: the frame keeps orientation, r < 0
    if _det(lower, upper) != 1 or math.prod(_coords(lower, upper, r)) >= 0:
        raise AssertionError("l1 must lie on the upper arc and r1 on the lower arc")
    triangles, left, right = _fan(lower, upper, theta, depth - 1)
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
    k = common_prefix(theta, r)
    b = r.quotient(k)
    if k == 0:
        return ReducedFraction(b, 1), ReducedFraction(b + 1, 1)
    c = min(theta.quotient(k), b)
    other = semiconvergent(r, k - 2, c) if b == c else r.convergent(k - 1)
    return tuple(sorted((semiconvergent(r, k - 2, c + 1), other)))


def _two_ended_diagram(theta: IrrationalNumber, r: IrrationalNumber, depth: int) -> FareyDiagram:
    if _slopes_equal(theta, r):
        raise ValueError("a diagram needs two distinct slopes")
    # the edge holds r, not theta: hi is on the lower arc, between r and
    # theta or beyond r; then theta's frame keeps orientation, r's reverses it
    l0, r0 = _base_edge(theta, r)
    lower, upper = _frame(r0, l0, theta)
    back_lower, back_upper = _frame(r0, l0, r)
    if _det(lower, upper) != 1 or _det(back_lower, back_upper) != -1:
        raise AssertionError("the base edge must have one end on each arc")
    ahead, ahead_l, ahead_r = _fan(lower, upper, theta, depth)
    behind, behind_l, behind_r = _fan(back_lower, back_upper, r, depth)
    return FareyDiagram(
        theta,
        r,
        behind[::-1] + ahead,
        list(enumerate(behind_l[::-1] + [l0] + ahead_l, -len(behind_l))),
        list(enumerate(behind_r[::-1] + [r0] + ahead_r, -len(behind_r))),
    )


# --------------------------------------------------------------------------
# cutting sequences


class CuttingSequence(Value):
    """Run-length-encoded letters of the cutting walk toward a slope.

    ``runs`` is a list of (letter, count) pairs with alternating letters.
    For theta > 1 the k-th run length is the k-th partial quotient a_k;
    for 0 < theta < 1 the sequence starts with R and the k-th run is
    a_{k+1}.  Slopes below the unit interval are translated up by an
    integer first (integer translation does not change the tail).
    """

    __slots__ = ("theta", "runs")

    def __init__(self, theta: IrrationalNumber, runs: tuple[tuple[str, int], ...]):
        self._init(theta, runs)

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


class TreeNode(Value):
    __slots__ = ("fraction", "side", "children")

    def __init__(self, fraction: ReducedFraction, side: Optional[str], children: tuple = ()):
        self._init(fraction, side, children)  # side is "l" or "r", None at the root

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


class FareyTree(Value):
    """Binary tree of repeated division vertices under a slope.

    Each node's children are its left/right division vertices one step
    toward theta, so a depth-d tree has 2^d leaves, and the leaf norms sum
    to the root's norm in the theta-lattice.
    """

    __slots__ = ("theta", "root", "depth")

    def __init__(self, theta: IrrationalNumber, root: TreeNode, depth: int):
        self._init(theta, root, depth)

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
    opposite that edge: the median of r1, r2 and theta in the Farey tree.
    A rational r1 walks from its Start edge.  When both are irrational, r1
    starts from its base edge and walks toward theta, or widens toward r1
    while the arc still leaves r2 out.  Both walks read quotient runs.
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
    else:
        edge = _base_edge(theta, r1)
        step = _leave(*_frame(*edge, r1), r1, r2)
        if step is not None:
            return ReducedFraction(*step[1])
    step = _leave(*_frame(*edge, theta), theta, r2)
    return r1 if step is None else ReducedFraction(*step[0])


# --------------------------------------------------------------------------
# the roller coaster complex


class RollerCoaster(Value):
    """Semiconvergent fan families of a slope as a directed complex.

    Vertices are the semiconvergents beta_{i,m} (family i >= -1, step m)
    including 1/0, keyed in ``family_index`` to the (family, step) of their
    first appearance, in that order; family i spans the fan between
    convergents beta_i and beta_{i+2} with apex beta_{i+1}.  ``edge_table``
    maps each triangle edge (small, large), directed smaller -> larger, to
    its (label, class): the label is the normalized vector difference of the
    endpoints, always the third vertex of exactly one triangle containing
    that edge; exterior edges are the same-family consecutive ones plus
    (beta_0, 1/0), and the cross-apex edges are interior.
    """

    __slots__ = ("theta", "depth", "family_index", "triangles", "edge_table")

    def __init__(self, theta: IrrationalNumber, depth: int, family_index: dict, triangles: list[FareyTriangle],
                 edge_table: dict):
        self._init(theta, depth, family_index, triangles, edge_table)

    @property
    def vertices(self) -> list[ReducedFraction]:
        return list(self.family_index)

    def edges(self) -> list[tuple[ReducedFraction, ReducedFraction]]:
        return list(self.edge_table)

    def to_dict(self) -> dict:
        return {
            "theta": str(self.theta),
            "depth": self.depth,
            "vertices": [str(v) for v in self.family_index],
            "triangles": [t.to_dict() for t in self.triangles],
            "edges": [
                {"from": str(a), "to": str(b), "label": str(label), "class": cls}
                for (a, b), (label, cls) in self.edge_table.items()
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

    family_index: dict = {}
    triangles: list[FareyTriangle] = []
    edge_table: dict = {}

    def add_edge(a: ReducedFraction, b: ReducedFraction, cls: str) -> None:
        key = (a, b) if a < b else (b, a)
        known = edge_table.get(key)
        if known is None:
            edge_table[key] = (_difference_vertex(key[1], key[0]), cls)
        elif known[1] != cls and cls != "interior":
            raise AssertionError(f"edge {key[0]}--{key[1]} is both {known[1]} and {cls}")

    for i in range(-1, depth + 1):
        row = semiconvergents(theta, i)
        apex = theta.convergent(i + 1)
        for m, v in enumerate(row):
            family_index.setdefault(v, (i, m))
        for m, (u, v) in enumerate(zip(row, row[1:])):
            triangles.append(FareyTriangle((u, v, apex)))
            add_edge(u, v, "exterior")
            add_edge(u, apex, "exterior" if (i == -1 and m == 0) else "interior")
            add_edge(v, apex, "interior")

    return RollerCoaster(theta, depth, family_index, triangles, edge_table)


def shortest_path_bundle(
    rc: RollerCoaster, start: ReducedFraction, end: ReducedFraction
) -> list[ReducedFraction]:
    """Edge labels along the unique shortest directed path start -> end.

    Directed edges run from the smaller fraction to the larger, so a path
    exists only if start < end (and both are coaster vertices); raises
    NoPath otherwise.

    Vertices of even family index lie below theta and those of odd index
    above; each side is a chain in ``family_index`` order (climbing below
    theta, descending above).  Edges within a chain join neighbours, and the
    rest cross theta upward in a strip from (beta_0, 1/0), each moving one
    end of the last one step.  A path climbs the lower chain, crosses once
    and climbs the upper one; the crossings at or past start and end form a
    tail of the strip on which the path length strictly grows, so the
    unique shortest path takes its first.
    """
    if start not in rc.family_index or end not in rc.family_index:
        raise NoPath(f"{start} or {end} is not a vertex of this roller coaster")
    if start == end:
        return []
    if not start < end:
        raise NoPath(f"no directed path from {start} to {end}")
    chains: tuple[list, list] = ([], [])  # below theta, above theta
    for v, (i, _) in rc.family_index.items():
        chains[i % 2].append(v)
    lower, upper = chains
    start_side, end_side = rc.family_index[start][0] % 2, rc.family_index[end][0] % 2
    s, e = chains[start_side].index(start), chains[end_side].index(end)
    if end_side == 0:
        walk = lower[s:e + 1]
    elif start_side == 1:
        walk = upper[e:s + 1][::-1]
    else:
        a = b = 0
        while a < s or b < e:  # the next crossing shares upper[b] exactly when it is lower[a + 1]'s neighbour
            if a + 1 < len(lower) and lower[a + 1].is_farey_neighbor(upper[b]):
                a += 1
            elif b + 1 < len(upper):
                b += 1
            else:
                raise NoPath(f"no directed path from {start} to {end}")
        walk = lower[s:a + 1] + upper[e:b + 1][::-1]
    return [rc.edge_table[u, v][0] for u, v in zip(walk, walk[1:])]
