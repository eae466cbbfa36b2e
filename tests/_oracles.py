"""Brute-force reference implementations the real code is tested against.

Everything here trades speed for obviousness: exhaustive scans, literal
sweeps, and direct lattice counting.  None of it imports the modules under
test beyond the two leaf types (fractions and the exact comparators).
"""

import itertools
import math
import random

from sympy import factorint

from fareyslopes.cfrac import (
    EventuallyPeriodic,
    GREATER,
    LESS,
    IrrationalNumber,
    _require_distinct,
    _slopes_equal,
    compare_irrationals,
    compare_theta_rational,
)
from fareyslopes.errors import PrecisionExhausted
from fareyslopes.exact import ReducedFraction


def random_theta(rng: random.Random, lo: int = 0, hi: int = 4) -> EventuallyPeriodic:
    """A random quadratic irrational with small partial quotients."""
    a0 = rng.randint(lo, hi)
    pre = [a0] + [rng.randint(1, 4) for _ in range(rng.randint(0, 2))]
    per = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    return EventuallyPeriodic(tuple(pre), tuple(per))


def special_conditions_by_factoring(theta: IrrationalNumber) -> bool:
    """The constructor's two conditions read off full factorizations of
    a_{2i}, q_{2i-2} and q_{2i} at every even index 2i >= 4."""
    for idx in range(4, theta.available_depth() + 1, 2):
        _, q_prev = theta.convergent_pair(idx - 2)
        _, q_here = theta.convergent_pair(idx)
        a_fac = factorint(theta.quotient(idx))
        if any(a_fac.get(prime, 0) != 1 for prime in factorint(q_prev)):
            return False
        if all(q_prev % prime == 0 for prime in factorint(q_here)):
            return False
    return True


def simplest_between(
    theta: IrrationalNumber, theta2: IrrationalNumber, qcap: int = 4096
) -> ReducedFraction:
    """Minimal-denominator fraction in the open interval (theta, theta2),
    ties broken toward the smaller fraction: a literal q-sweep."""
    for q in range(1, qcap + 1):
        # smallest p with p/q > theta, then check p/q < theta2
        lo = math.floor(theta.approx(40) * q) - 2
        p = lo
        while compare_theta_rational(theta, ReducedFraction(p, q)) != LESS:
            p += 1
        cand = ReducedFraction(p, q)
        if cand.q == q and compare_theta_rational(theta2, cand) == GREATER:
            return cand
    raise AssertionError(f"no fraction with q <= {qcap} between the slopes")


def interior_lattice_points(v1, v2) -> int:
    """Lattice points strictly inside the triangle (0, v1, v2), counted by
    scanning the bounding box and testing barycentric signs."""
    x1, y1 = v1
    x2, y2 = v2
    det = x1 * y2 - x2 * y1
    if det == 0:
        raise ValueError("degenerate triangle")
    count = 0
    xs = sorted((0, x1, x2))
    ys = sorted((0, y1, y2))
    for x in range(xs[0], xs[-1] + 1):
        for y in range(ys[0], ys[-1] + 1):
            # barycentric coordinates scaled by det
            s = x * y2 - y * x2
            t = y * x1 - x * y1
            if det < 0:
                s, t, d = -s, -t, -det
            else:
                d = det
            if 0 < s and 0 < t and s + t < d:
                count += 1
    return count


def boundary_lattice_points(v1, v2) -> int:
    """Lattice points on the triangle's edges, vertices excluded."""

    def on_segment(a, b):
        return math.gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) - 1

    return on_segment((0, 0), v1) + on_segment(v1, v2) + on_segment(v2, (0, 0))


def farey_neighbor_pairs(qmax: int, pwindow: int):
    """All pairs a < b of fractions with |det| = 1, denominators <= qmax,
    numerators within the window, by exhaustive scan.  Includes 1/0."""
    fracs = [ReducedFraction(1, 0)]
    for q in range(1, qmax + 1):
        for p in range(-pwindow, pwindow + 1):
            if math.gcd(abs(p), q) == 1:
                fracs.append(ReducedFraction(p, q))
    pairs = []
    for i, a in enumerate(fracs):
        for b in fracs[i + 1 :]:
            if abs(a.p * b.q - a.q * b.p) == 1:
                lo, hi = (a, b) if a < b else (b, a)
                pairs.append((lo, hi))
    return pairs


def mediant_generated_triangles(max_rank: int, window: int):
    """The Farey-triangle set with denominator bounds, grown from the
    integer fence by mediant insertion: triples (low, mediant, high) of
    slopes, the tessellation's triangles in the band.

    The top vertex 1/0 appears via the fence triangles (k, 1/0, k+1) --
    recorded as (k/1, (k+1)/1, 1/0) in slope order.
    """
    triangles = set()
    stack = []
    for k in range(-window, window):
        a, b = ReducedFraction(k, 1), ReducedFraction(k + 1, 1)
        triangles.add((a, b, ReducedFraction(1, 0)))
        stack.append((a, b))
    while stack:
        a, b = stack.pop()
        m = a.mediant(b)
        if m.q > max_rank or abs(m.p) > window:
            continue
        triangles.add((a, m, b))
        stack.append((a, m))
        stack.append((m, b))
    return triangles


def game_rest_positions(theta, r, c, d, n):
    """Independent bead construction: drop every level-n piece of the division
    tree into [c, d], then merge sibling pairs bottom-up until nothing moves.
    Level independence (same answer for every large enough n) is what makes
    this a reference for the direct construction.  Merging siblings does not
    depend on the order, so one left-to-right stack pass does it: a piece
    merges with the one below it on the stack, and their parent may merge in
    turn with the next one down.

    Unlike the rest of this module it replays the library's own `divide`,
    so it checks self-consistency of the tree, not the tree itself.
    """
    from fareyslopes.division import DivisionInterval, divide, root_interval
    from fareyslopes.lattice import norm_to_fraction

    level = [root_interval(theta, r)]
    for _ in range(n):
        level = [child for iv in level for child in divide(iv)]
    occupied = [iv for iv in level if c <= iv.a and iv.b <= d]
    assert occupied and occupied[0].a == c and occupied[-1].b == d
    stack = []
    for hi in occupied:
        while stack and stack[-1].b == hi.a:
            lo = stack[-1]
            diff = hi.b - lo.a
            if not (diff.is_primitive() and diff.sign() > 0):
                break
            parent = DivisionInterval(lo.a, norm_to_fraction(diff))
            if divide(parent) != (lo, hi):
                break
            stack.pop()
            hi = parent
        stack.append(hi)
    return tuple(iv.vertex for iv in stack)


def cutting_runs_descent(theta: IrrationalNumber, depth: int):
    """First `depth` runs of the cutting walk toward theta, letter by letter.

    Slopes with a0 < 0 are translated to a0 = 0 first.  The walk crosses
    the fan triangles (n, n+1, oo) for n = 0..a0, then descends by mediants
    inside (a0, a0+1); a triangle reads L when two of its vertices sit below
    theta and R otherwise.  A run is complete when the next letter flips.
    """
    a0 = theta.quotient(0)
    if a0 < 0:
        theta = theta.translated(-a0)
        a0 = 0

    def below(v: ReducedFraction) -> bool:
        return compare_theta_rational(theta, v) == GREATER

    def letters():
        for n in range(a0 + 1):
            yield "L" if below(ReducedFraction(n, 1)) and below(ReducedFraction(n + 1, 1)) else "R"
        lo, hi = ReducedFraction(a0, 1), ReducedFraction(a0 + 1, 1)
        while True:
            m = lo.mediant(hi)
            n_below = sum(1 for v in (lo, m, hi) if below(v))
            assert n_below in (1, 2)
            yield "L" if n_below == 2 else "R"
            if below(m):
                lo = m
            else:
                hi = m

    runs = []
    current, count = None, 0
    for letter in letters():
        if letter == current:
            count += 1
            continue
        if current is not None:
            runs.append((current, count))
            if len(runs) == depth:
                return tuple(runs)
        current, count = letter, 1


def base_edge_descent(theta: IrrationalNumber, r: IrrationalNumber):
    """First finite Farey edge (lo, hi) straddling r but not theta: the
    Stern-Brocot descent toward r from (floor(r), floor(r) + 1), one mediant
    at a time, until theta falls outside."""
    a0 = r.quotient(0)
    lo, hi = ReducedFraction(a0, 1), ReducedFraction(a0 + 1, 1)
    while (
        compare_theta_rational(theta, lo) == GREATER
        and compare_theta_rational(theta, hi) == LESS
    ):
        m = lo.mediant(hi)
        if compare_theta_rational(r, m) == GREATER:
            lo = m
        else:
            hi = m
    return lo, hi


def cutting_runs_expected(theta: IrrationalNumber, depth: int):
    """Run-length calibration: above 1 the runs are a_0, a_1, ... starting
    with L; inside (0,1) they are a_1, a_2, ... starting with R.  This is
    the rule `cutting_sequence` itself implements; `cutting_runs_descent`
    is the independent walk."""
    if theta.quotient(0) >= 1:
        lengths = [theta.quotient(i) for i in range(depth)]
        first = "L"
    else:
        lengths = [theta.quotient(i + 1) for i in range(depth)]
        first = "R"
    letters = [first if i % 2 == 0 else ("R" if first == "L" else "L") for i in range(depth)]
    return tuple(zip(letters, lengths))


def _lt(a, b) -> bool:
    """Exact a < b for fractions and irrationals, infinity greatest."""
    if isinstance(a, ReducedFraction):
        if isinstance(b, ReducedFraction):
            return a < b
        return compare_theta_rational(b, a) == GREATER
    if isinstance(b, ReducedFraction):
        return compare_theta_rational(a, b) == LESS
    return compare_irrationals(a, b) == LESS


def _inside(s, lo: ReducedFraction, hi: ReducedFraction) -> bool:
    """s in the open real interval (lo, hi), lo < hi; infinity never is."""
    if isinstance(s, ReducedFraction) and s.is_infinite:
        return False
    return _lt(lo, s) and (hi.is_infinite or _lt(s, hi))


def _on_lower_arc(v, theta, far) -> bool:
    """v on the arc of the chord (far, theta) that reaches theta from below."""
    below = _lt(v, theta)
    if _lt(far, theta):
        return below and _lt(far, v)
    return below or _lt(far, v)


def _apexes(u: ReducedFraction, v: ReducedFraction):
    """The third vertices of the two triangles over the Farey edge (u, v)."""
    return u.mediant(v), ReducedFraction(u.p - v.p, u.q - v.q)


def edge_search_walk(toward, far, edge, first_apex):
    """Triangles crossed by the geodesic (far, toward), starting with the
    one over `edge` with apex `first_apex`; yields (sorted vertices, vertex
    the step exposed).

    Every non-entry edge of a triangle is tested against both geodesic ends:
    the exit edge is the one with exactly one end in its interval.  Edges
    incident to a rational end meet the geodesic only at infinity and are
    never crossed.
    """
    entry, tri, new = frozenset(edge), set(edge) | {first_apex}, first_apex
    while True:
        yield tuple(sorted(tri)), new
        exits = [
            (a, b)
            for a, b in itertools.combinations(sorted(tri), 2)
            if frozenset((a, b)) != entry
            and far not in (a, b)
            and toward not in (a, b)
            and _inside(toward, a, b) != _inside(far, a, b)
        ]
        assert len(exits) == 1, f"{len(exits)} exit edges from {sorted(tri)}"
        (a, b), = exits
        old_apex = next(x for x in tri if x not in (a, b))
        new = next(x for x in _apexes(a, b) if x != old_apex)
        entry, tri = frozenset((a, b)), {a, b, new}


def reference_diagram(theta: IrrationalNumber, far, depth: int) -> dict:
    """What `farey_diagram(theta, far, depth).to_dict()` must be, from the
    edge-search walk: each letter counts the triangle's vertices on the
    lower arc of the chord (two make an L), each exposed vertex's side is
    its own arc test.  The Start triangle of a rational far end comes from
    the library's `left_right_vertices`; the base edge of an irrational one
    from `base_edge_descent`."""
    from fareyslopes.farey import left_right_vertices

    side = lambda v: "r" if _on_lower_arc(v, theta, far) else "l"

    def fan(toward, away, edge):
        mediant, difference = _apexes(*edge)
        first = mediant if _inside(toward, *sorted(edge)) else difference
        out = []
        for tri, new in itertools.islice(edge_search_walk(toward, away, edge, first), depth):
            lower = sum(_on_lower_arc(v, theta, far) for v in tri)
            assert lower in (1, 2)
            out.append((tri, "L" if lower == 2 else "R", new))
        return out

    if isinstance(far, ReducedFraction):
        l1, r1 = left_right_vertices(theta, far)
        assert (side(l1), side(r1)) == ("l", "r")
        triangles = [(tuple(sorted((far, l1, r1))), "Start", None)]
        triangles += fan(theta, far, (l1, r1))[: depth - 1]
        labels = {"l": [l1], "r": [r1]}
        for _, _, new in triangles[1:]:
            labels[side(new)].append(new)
        numbered = {k: list(enumerate(vs, 1)) for k, vs in labels.items()}
    else:
        edge = base_edge_descent(theta, far)
        behind, ahead = fan(far, theta, edge)[::-1], fan(theta, far, edge)
        triangles = behind + ahead
        numbered = {}
        for k in "lr":
            back = [new for _, _, new in behind if side(new) == k]
            base = [v for v in edge if side(v) == k]
            front = [new for _, _, new in ahead if side(new) == k]
            numbered[k] = list(enumerate(back + base + front, -len(back)))
    return {
        "theta": str(theta),
        "far": str(far),
        "triangles": [{"vertices": [str(v) for v in tri], "type": ty} for tri, ty, _ in triangles],
        "left_labels": [[i, str(v)] for i, v in numbered["l"]],
        "right_labels": [[i, str(v)] for i, v in numbered["r"]],
    }


# -- the product by a one-triangle-at-a-time walk --------------------------


def _toward_apex(u: ReducedFraction, v: ReducedFraction, toward):
    """Apex of the triangle over the edge (u, v) on the side holding
    `toward`: the mediant inside the interval, the difference outside."""
    mediant, difference = _apexes(u, v)
    return mediant if _inside(toward, *sorted((u, v))) else difference


def _same_side(x, target, u: ReducedFraction, v: ReducedFraction) -> bool:
    """Is x on the closed arc cut off by the edge (u, v) that holds target?
    The endpoints belong to both closed arcs."""
    if x in (u, v):
        return True
    lo, hi = sorted((u, v))
    return _inside(x, lo, hi) == _inside(target, lo, hi)


def _walk(lower: ReducedFraction, upper: ReducedFraction, toward):
    """Cross Farey triangles toward an irrational slope from the edge just
    crossed, one exact comparison of toward per vertex: the apex lies on
    toward's side, and one arc test picks the exit edge.  Yields
    (lower, upper, apex, replaced) with (lower, upper) the exit edge."""
    while True:
        apex = _toward_apex(lower, upper, toward)
        if _same_side(upper, toward, lower, apex):
            lower, replaced = apex, lower
        else:
            upper, replaced = apex, upper
        yield lower, upper, apex, replaced


def theta_product_by_walk(r1, r2, theta):
    """`theta_product` walked triangle by triangle: r1.r2 is read off r1's
    walk toward theta at the first exit edge whose closed arc toward theta
    leaves r2 out, as the vertex that step dropped.  An irrational r1 first
    widens from its base edge toward r1 while r2 lies strictly on r1's
    side, and answers with the apex where that stops."""
    from fareyslopes.farey import left_right_vertices

    if _slopes_equal(r1, r2):
        return r1
    if _slopes_equal(r1, theta) or _slopes_equal(r2, theta):
        return theta
    for a, b in ((r1, r2), (r1, theta), (r2, theta)):
        _require_distinct(a, b)
    if isinstance(r2, ReducedFraction):
        r1, r2 = r2, r1
    if isinstance(r1, ReducedFraction):
        edge = left_right_vertices(theta, r1)
        if not _same_side(r2, theta, *edge):
            return r1
    else:
        edge = base_edge_descent(theta, r1)
        if not _same_side(r2, theta, *edge):
            for lower, upper, apex, _ in _walk(*edge, r1):
                if _same_side(r2, theta, lower, upper):
                    return apex
    for lower, upper, _, replaced in _walk(*edge, theta):
        if not _same_side(r2, theta, lower, upper):
            return replaced


# -- division vertices and c(theta) by stepping -----------------------------


def _convergent_past(theta: IrrationalNumber, q: int) -> tuple:
    """(p_i, q_i) two convergents past the first with denominator above q,
    or the deepest convergent of a FinitePrefix that runs out first."""
    i = 0
    try:
        while theta.convergent_pair(i)[1] <= q:
            i += 1
        return theta.convergent_pair(i + 2)
    except PrecisionExhausted:
        return theta.convergent_pair(theta.available_depth())


def _xgcd(a: int, b: int) -> tuple:
    """(g, s, t) with a*s + b*t = g = gcd(a, b) >= 0, by recursion on
    Euclid's remainders."""
    if b == 0:
        return abs(a), (a > 0) - (a < 0), 0
    g, s, t = _xgcd(b, a % b)
    return g, t, s - (a // b) * t


def left_right_vertices_by_correction(theta: IrrationalNumber, r: ReducedFraction):
    """`left_right_vertices` by estimate and correction, for either kind of
    theta: the translate x + k*|r| is estimated with theta replaced by a
    convergent past r's denominator, then stepped by exact sign tests until
    it lies in (0, |r|)."""
    from fareyslopes.lattice import ThetaLatticeElement, norm_to_fraction, theta_norm

    w = theta_norm(r, theta)
    g, s, t = _xgcd(w.m, w.n)
    assert g == 1
    x = ThetaLatticeElement(-t, s, theta)
    p, q = _convergent_past(theta, r.q)
    den = w.m * p + w.n * q
    if den > 0:
        x = x + w.scaled(-(x.m * p + x.n * q) // den + 1)
    while x.sign() <= 0:
        x = x + w
    while (x - w).sign() >= 0:
        x = x - w
    return norm_to_fraction(x), norm_to_fraction(w - x)


def _tail_gcd_by_scan(theta: EventuallyPeriodic, start: int) -> int:
    """gcd of a_start, a_start+2, ...: the preperiod's terms, then l more,
    which cover every period position the even steps reach."""
    end = max(start, len(theta.preperiod)) + 2 * len(theta.period)
    return math.gcd(*(theta.quotient(j) for j in range(start, end, 2)))


def c_theta_by_state_cycle(theta: EventuallyPeriodic):
    """(c_values, c) of `c_theta` on an eventually periodic theta: past the
    preperiod, step the state (period phase, q_2i mod A, q_2i+1 mod A) and
    stop at the first state seen before, listing c_i = gcd(q_2i, A) at every
    step including that last one."""
    n0, ell = len(theta.preperiod), len(theta.period)
    c_values = []
    i = 0
    while 2 * i < n0:
        _, q2i = theta.convergent_pair(2 * i)
        c_values.append((i, math.gcd(q2i, _tail_gcd_by_scan(theta, 2 * i + 2))))
        i += 1
    big_a = _tail_gcd_by_scan(theta, 2 * i + 2)
    q2i = theta.convergent_pair(2 * i)[1] % big_a
    q2i1 = theta.convergent_pair(2 * i + 1)[1] % big_a
    seen = set()
    while True:
        c_i = math.gcd(q2i, big_a)
        c_values.append((i, c_i))
        key = ((2 * i - n0) % (2 * ell), q2i, q2i1)
        if key in seen:
            return c_values, c_i
        seen.add(key)
        q2i = (theta.quotient(2 * i + 2) * q2i1 + q2i) % big_a
        q2i1 = (theta.quotient(2 * i + 3) * q2i + q2i1) % big_a
        i += 1


# -- the division tree by exact comparisons --------------------------------


def division_points_sorted(theta: IrrationalNumber, r: ReducedFraction, depth: int):
    """Every endpoint of the pieces down to `depth`, collected level by
    level and then sorted by exact comparison."""
    from fareyslopes.division import divide, root_interval

    if depth < 1:
        raise ValueError("depth must be >= 1")
    root = root_interval(theta, r)
    points, level = {root.a, root.b}, [root]
    for _ in range(depth):
        level = [child for iv in level for child in divide(iv)]
        points.update(iv.b for iv in level[::2])
    return sorted(points)


def locate_descent(root, x, cap: int) -> None:
    """Raise NotDivisionPoint unless x is an endpoint within depth cap,
    comparing x with the midpoint of each piece on the way down."""
    from fareyslopes.division import divide
    from fareyslopes.errors import NotDivisionPoint

    if x == root.a or x == root.b:
        return
    if not (root.a < x < root.b):
        raise NotDivisionPoint(f"{x!r} lies outside the root interval")
    iv = root
    for _ in range(cap):
        left, right = divide(iv)
        if x == left.b:
            return
        iv = left if x < left.b else right
    raise NotDivisionPoint(f"{x!r} is not a division point within depth {cap}")


def cover_recursive(iv, c, d, fuel: int):
    """Labels of the maximal pieces of iv inside [c, d], left to right:
    an exact piece is one label, otherwise split at the midpoint."""
    from fareyslopes.division import divide
    from fareyslopes.errors import NotDivisionPoint

    if c == iv.a and d == iv.b:
        return [iv.vertex]
    if fuel == 0:
        raise NotDivisionPoint("bead cover descended past the depth cap")
    left, right = divide(iv)
    mid = left.b
    if d <= mid:
        return cover_recursive(left, c, d, fuel - 1)
    if mid <= c:
        return cover_recursive(right, c, d, fuel - 1)
    return cover_recursive(left, c, mid, fuel - 1) + cover_recursive(right, mid, d, fuel - 1)


# -- the witness line from the two-ended diagram ---------------------------


def witness_by_two_ended_search(theta: IrrationalNumber, theta_prime: IrrationalNumber, r: ReducedFraction):
    """The witness chain from the whole two-ended diagram of (theta,
    theta_prime): sort its upper-arc labels into one line, find
    bottom(theta, theta_prime) in it, and take the first level n whose
    neighbours n steps away straddle r with denominators above r's.  The
    depth doubles from 8 with no cap."""
    from fareyslopes.cfrac import bottom
    from fareyslopes.farey import farey_diagram
    from fareyslopes.sheaves import (
        MINUS, PLUS, ChainArrow, LimitObjectDescriptor, StableClass, WitnessChain, _rational_arrow,
    )

    base, depth = bottom(theta, theta_prime), 8
    while True:
        line = sorted(fraction for _, fraction in farey_diagram(theta, theta_prime, depth).left_labels)
        if base in line:
            anchor = line.index(base)
            for n in range(1, min(anchor, len(line) - 1 - anchor) + 1):
                lo, hi = line[anchor - n], line[anchor + n]
                if lo < r < hi and lo.q > r.q and hi.q > r.q:
                    src, dst = LimitObjectDescriptor(theta, PLUS), LimitObjectDescriptor(theta_prime, MINUS)
                    o_lo, o_r, o_hi = (StableClass.from_fraction(x) for x in (lo, r, hi))
                    arrows = (
                        ChainArrow(src, o_lo, "surjection"),
                        _rational_arrow(o_lo, o_r),
                        _rational_arrow(o_r, o_hi),
                        ChainArrow(o_hi, dst, "injection"),
                    )
                    return WitnessChain(theta, theta_prime, r, n, (src, o_lo, o_r, o_hi, dst), arrows)
        depth *= 2
