"""Command-line front door: JSON on stdout, SVG via --out, exact inside.

Exit codes: 0 success, 2 bad input (argparse uses the same code) or output
that cannot be written, 3 when a finite quotient prefix runs out of depth —
the needed depth is printed to stderr so the caller knows how much more to
supply.  Outputs that double per level (divide tree and points, farey tree,
render svg tree and tessellation) take a --depth of at most 16; `divide
points` then prints 65 537 points (5 MB), and `cf semiconvergents` prints no
row longer than that.

This module imports only what the cf group uses (errors, exact, cfrac and
invariants).  Every other handler imports its modules when it runs: farey
for the farey group, farey and render for render, sheaves (which loads
invariants, and farey only for some commands on limit objects) for sheaf, and
division (which loads all but render) for divide.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from .cfrac import IrrationalNumber, convergents, semiconvergents
from .errors import FareySlopesError, PrecisionExhausted
from .exact import ReducedFraction

# bench/tracer.py indexes sys.modules["fareyslopes.invariants"] in every CLI call
from .invariants import (
    LowerBoundOnly, Stabilized, c_theta, construct_special_theta, d_chain, special_conditions_hold,
)

if TYPE_CHECKING:  # the handlers import these, so a subcommand loads only its modules
    from .lattice import ThetaLatticeElement
    from .render import RenderSpec
    from .sheaves import StableClass

_DOUBLING_DEPTH_CAP = 16
_ROW_CAP = 2**_DOUBLING_DEPTH_CAP + 1  # as many entries as `divide points --depth 16` prints

# --------------------------------------------------------------------------
# argument parsing helpers


def _capped(depth: int) -> int:
    if depth > _DOUBLING_DEPTH_CAP:
        raise ValueError(f"depth must be <= {_DOUBLING_DEPTH_CAP}: the output doubles with each level")
    return depth


def _parse_theta(text: str) -> IrrationalNumber:
    return IrrationalNumber.from_string(text)


def _parse_fraction(text: str) -> ReducedFraction:
    return ReducedFraction.from_string(text)


def _parse_slope(text: str) -> Union[ReducedFraction, IrrationalNumber]:
    if text.lstrip().startswith("["):
        return _parse_theta(text)
    return _parse_fraction(text)


def _parse_vector(text: str) -> Tuple[int, int]:
    """A raw degree/rank pair 'd/r' — no reduction, signs allowed."""
    head, _, tail = text.partition("/")
    if not tail:
        raise ValueError(f"expected 'degree/rank', got {text!r}")
    return (int(head), int(tail))


def _parse_stable(text: str) -> StableClass:
    from .sheaves import StableClass
    d, r = _parse_vector(text)
    return StableClass(d, r)


def _parse_hom_object(text: str):
    """'d/r' for a stable class; a CF string ending '+' or '-' for a limit."""
    from .sheaves import MINUS, PLUS, LimitObjectDescriptor
    stripped = text.strip()
    if stripped.endswith(("+", "-")):
        side = PLUS if stripped.endswith("+") else MINUS
        return LimitObjectDescriptor(_parse_theta(stripped[:-1]), side)
    return _parse_stable(stripped)


def _parse_point(text: str, theta: IrrationalNumber) -> ThetaLatticeElement:
    """A lattice element '(m,n)' meaning m*theta + n (parens optional but
    they keep a leading minus sign out of argparse's option matching)."""
    from .lattice import ThetaLatticeElement
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    parts = stripped.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected '(m,n)', got {text!r}")
    return ThetaLatticeElement(int(parts[0]), int(parts[1]), theta)


def _status_dict(status) -> dict:
    if isinstance(status, Stabilized):
        return {"kind": "stabilized", "c": status.c}
    if isinstance(status, LowerBoundOnly):
        return {"kind": "lower_bound_only", "last": status.last}
    return {"kind": type(status).__name__.lower()}


# --------------------------------------------------------------------------
# cf group


def _cmd_cf_convergents(args) -> list:
    theta = _parse_theta(args.theta)
    if args.n < 1:
        raise ValueError("-n must be >= 1")
    table = convergents(theta, args.n - 1)
    return [str(beta) for (i, beta, _) in table.rows if i >= 0]


def _cmd_cf_semiconvergents(args) -> list:
    theta = _parse_theta(args.theta)
    # i < -1 is left to the library; else read as it does: convergent i + 1, then quotient i + 2
    if args.n >= -1:
        theta.convergent_pair(args.n + 1)
        if theta.quotient(args.n + 2) + 1 > _ROW_CAP:
            raise ValueError(f"row {args.n} has more than {_ROW_CAP} entries, the most this command prints")
    return [str(b) for b in semiconvergents(theta, args.n)]


def _cmd_cf_ctheta(args) -> dict:
    report = c_theta(_parse_theta(args.theta), budget=args.budget)
    return {
        "theta": str(report.theta),
        "pairs": [[i, c] for (i, c) in report.c_values],
        "chain": report.chain(),
        "status": _status_dict(report.status),
    }


def _cmd_cf_dchain(args) -> list:
    return d_chain(_parse_theta(args.theta), args.n)


def _cmd_cf_construct(args) -> dict:
    try:
        a0, a1, a2 = (int(x) for x in args.seed.split(","))
    except ValueError:
        raise ValueError(f"--seed wants 'a0,a1,a2', got {args.seed!r}")
    theta = construct_special_theta(a0, a1, a2, args.depth)
    steps = args.depth
    return {
        "theta": str(theta),
        "quotients": list(theta.quotients),
        "conditions_hold": special_conditions_hold(theta),
        "d_chain": d_chain(theta, steps + 1),
        "c_chain": c_theta(theta, budget=theta.available_depth()).chain(),
    }


# --------------------------------------------------------------------------
# farey group


def _cmd_farey_diagram(args) -> dict:
    from .farey import farey_diagram
    return farey_diagram(
        _parse_theta(args.theta), _parse_slope(args.far), args.depth
    ).to_dict()


def _cmd_farey_tree(args) -> dict:
    from .farey import farey_tree
    return farey_tree(
        _parse_theta(args.theta), _parse_fraction(args.far), _capped(args.depth)
    ).to_dict()


def _cmd_farey_cutting(args) -> dict:
    from .farey import cutting_sequence
    return cutting_sequence(_parse_theta(args.theta), args.depth).to_dict()


def _cmd_farey_product(args) -> str:
    from .farey import theta_product
    result = theta_product(
        _parse_slope(args.first), _parse_slope(args.second), _parse_theta(args.theta)
    )
    return str(result)


def _cmd_farey_bottom(args) -> str:
    from .farey import bottom
    return str(bottom(_parse_theta(args.theta), _parse_theta(args.theta2)))


def _cmd_farey_coaster(args) -> dict:
    from .farey import roller_coaster
    return roller_coaster(_parse_theta(args.theta), args.depth).to_dict()


# --------------------------------------------------------------------------
# sheaf group


def _cmd_sheaf_chi(args) -> dict:
    from .sheaves import chi_pair
    return chi_pair(_parse_vector(args.first), _parse_vector(args.second)).to_dict()


def _cmd_sheaf_hom(args) -> dict:
    from .sheaves import hom_ext_dims
    hom, ext1 = hom_ext_dims(_parse_stable(args.source), _parse_stable(args.target))
    return {"hom": hom.to_dict(), "ext1": ext1.to_dict(), "chi": (hom - ext1).to_dict()}


def _cmd_sheaf_minimal(args) -> dict:
    from .sheaves import is_minimal_triangle
    e, f, g = (_parse_stable(t) for t in (args.sub, args.middle, args.quotient))
    return {"is_minimal_triangle": is_minimal_triangle(e, f, g)}


def _cmd_sheaf_enumerate(args) -> list:
    from .sheaves import enumerate_minimal_triangles
    triples = enumerate_minimal_triangles(args.max_rank, args.max_degree)
    return [
        {"sub": e.to_dict(), "middle": f.to_dict(), "quotient": g.to_dict()}
        for (e, f, g) in triples
    ]


def _cmd_sheaf_kclass(args) -> dict:
    from .sheaves import kclass_colimit_check
    return kclass_colimit_check(_parse_theta(args.theta), args.depth).to_dict()


def _cmd_sheaf_bound(args) -> dict:
    from .sheaves import MINUS, LimitObjectDescriptor, endo_dim_bound
    desc = LimitObjectDescriptor(_parse_theta(args.theta), MINUS)
    return endo_dim_bound(desc, budget=args.budget).to_dict()


def _cmd_sheaf_classify(args) -> dict:
    from .sheaves import hom_classify
    return hom_classify(
        _parse_hom_object(args.source),
        _parse_hom_object(args.target),
        depth=args.depth,
        budget=args.budget,
    ).to_dict()


def _cmd_sheaf_image(args) -> dict:
    from .sheaves import farey_type_image
    cls = farey_type_image(_parse_theta(args.theta), _parse_theta(args.theta2))
    return {"image": cls.to_dict(), "slope": str(cls.slope())}


def _cmd_sheaf_multiplicity(args) -> dict:
    from .sheaves import quotient_multiplicity
    return {
        "multiplicity": quotient_multiplicity(
            _parse_vector(args.vector), _parse_fraction(args.slope)
        )
    }


# --------------------------------------------------------------------------
# divide group


def _cmd_divide_tree(args) -> dict:
    from .division import divide, root_interval
    theta = _parse_theta(args.theta)
    level = [root_interval(theta, _parse_fraction(args.far))]
    if _capped(args.depth) < 0:
        raise ValueError("depth must be >= 0")
    levels = [[iv.to_dict() for iv in level]]
    for _ in range(args.depth):
        level = [child for iv in level for child in divide(iv)]
        levels.append([iv.to_dict() for iv in level])
    return {"theta": str(theta), "far": args.far, "levels": levels}


def _cmd_divide_points(args) -> list:
    from .division import division_points
    theta = _parse_theta(args.theta)
    pts = division_points(theta, _parse_fraction(args.far), _capped(args.depth))
    return [{"m": x.m, "n": x.n, "value": x.value()} for x in pts]


def _cmd_divide_beads(args) -> dict:
    from .division import beads
    theta = _parse_theta(args.theta)
    return beads(
        theta,
        _parse_fraction(args.far),
        _parse_point(args.start, theta),
        _parse_point(args.end, theta),
    ).to_dict()


def _cmd_divide_ses(args) -> dict:
    from .division import ses_check
    theta = _parse_theta(args.theta)
    return ses_check(
        theta,
        _parse_fraction(args.far),
        _parse_point(args.start, theta),
        _parse_point(args.middle, theta),
        _parse_point(args.end, theta),
    ).to_dict()


def _cmd_divide_rank(args) -> list:
    from .division import approximate_rank
    theta = _parse_theta(args.theta)
    chain = approximate_rank(theta, _parse_fraction(args.far), args.target, args.tol)
    return [b.to_dict() for b in chain]


# --------------------------------------------------------------------------
# render group


def _load_style(path: Optional[str]) -> dict:
    if path is None:
        return {}
    style = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            try:
                style[key.strip()] = float(value.strip())
            except ValueError:
                style[key.strip()] = value.strip()
    return style


def _render_object(args, spec: RenderSpec):
    from .farey import farey_diagram, farey_tree, roller_coaster
    if args.kind == "tessellation":
        if args.theta is not None and args.far is not None:
            spec.highlight = farey_diagram(
                _parse_theta(args.theta), _parse_slope(args.far), args.depth
            )
        return spec.depth
    if args.theta is None:
        raise ValueError(f"render {args.kind} needs --theta")
    theta = _parse_theta(args.theta)
    if args.kind == "diagram":
        if args.far is None:
            raise ValueError("render diagram needs --far")
        return farey_diagram(theta, _parse_slope(args.far), args.depth)
    if args.kind == "tree":
        if args.far is None:
            raise ValueError("render tree needs --far")
        return farey_tree(theta, _parse_fraction(args.far), args.depth)
    return roller_coaster(theta, args.depth)


def _cmd_render_svg(args):
    from .render import RenderSpec, render_svg
    spec = RenderSpec(
        model=args.model,
        depth=_capped(args.depth) if args.kind in ("tessellation", "tree") else args.depth,
        size_px=args.size,
        style=_load_style(args.config),
    )
    obj = _render_object(args, spec)
    if args.format == "json":
        return obj if isinstance(obj, int) else obj.to_dict()
    svg = render_svg(spec, obj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
        return {"written": args.out, "bytes": len(svg.encode("utf-8"))}
    return svg


# --------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fareyslopes",
        description="Exact Farey-tessellation arithmetic: continued fractions, "
        "diagrams, stable classes, interval division, SVG figures.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    # -- cf ------------------------------------------------------------------
    cf = groups.add_parser("cf", help="continued fractions and invariant chains")
    cfa = cf.add_subparsers(dest="action", required=True)

    q = cfa.add_parser("convergents", help="the first n convergents of theta")
    q.add_argument("theta")
    q.add_argument("-n", type=int, default=8, help="how many (default 8)")
    q.set_defaults(func=_cmd_cf_convergents)

    q = cfa.add_parser("semiconvergents", help="row i of the semiconvergent fan")
    q.add_argument("theta")
    q.add_argument("-n", type=int, default=0, help="row index i >= -1 (default 0)")
    q.set_defaults(func=_cmd_cf_semiconvergents)

    q = cfa.add_parser("ctheta", help="the gcd-chain invariant c(theta)")
    q.add_argument("theta")
    q.add_argument("--budget", type=int, default=64)
    q.set_defaults(func=_cmd_cf_ctheta)

    q = cfa.add_parser("dchain", help="the chain d_i = gcd(q_2i, a_2i+2)")
    q.add_argument("theta")
    q.add_argument("-n", type=int, default=8)
    q.set_defaults(func=_cmd_cf_dchain)

    q = cfa.add_parser("construct", help="build a prefix with growing chains")
    q.add_argument("--seed", default="1,1,1", help="a0,a1,a2 (a2 squarefree)")
    q.add_argument("--depth", type=int, default=3, help="constructed steps")
    q.set_defaults(func=_cmd_cf_construct)

    # -- farey ---------------------------------------------------------------
    fa = groups.add_parser("farey", help="diagrams, trees, cutting sequences")
    faa = fa.add_subparsers(dest="action", required=True)

    q = faa.add_parser("diagram", help="the Farey diagram between theta and far")
    q.add_argument("theta")
    q.add_argument("far", help="a fraction p/q or a CF string")
    q.add_argument("--depth", type=int, default=6)
    q.set_defaults(func=_cmd_farey_diagram)

    q = faa.add_parser("tree", help="the binary tree of child vertices")
    q.add_argument("theta")
    q.add_argument("far", help="a fraction p/q")
    q.add_argument("--depth", type=int, default=4)
    q.set_defaults(func=_cmd_farey_tree)

    q = faa.add_parser("cutting", help="L/R cutting sequence runs")
    q.add_argument("theta")
    q.add_argument("--depth", type=int, default=10)
    q.set_defaults(func=_cmd_farey_cutting)

    q = faa.add_parser("product", help="the Farey-diagram product of two slopes")
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--theta", required=True)
    q.set_defaults(func=_cmd_farey_product)

    q = faa.add_parser("bottom", help="the bottom fraction between two thetas")
    q.add_argument("theta")
    q.add_argument("theta2")
    q.set_defaults(func=_cmd_farey_bottom)

    q = faa.add_parser("coaster", help="the roller coaster complex")
    q.add_argument("theta")
    q.add_argument("--depth", type=int, default=3)
    q.set_defaults(func=_cmd_farey_coaster)

    # -- sheaf ---------------------------------------------------------------
    sh = groups.add_parser("sheaf", help="stable classes and hom calculus")
    sha = sh.add_subparsers(dest="action", required=True)

    q = sha.add_parser("chi", help="Euler pairing of two degree/rank vectors")
    q.add_argument("first", help="d/r")
    q.add_argument("second", help="d/r")
    q.set_defaults(func=_cmd_sheaf_chi)

    q = sha.add_parser("hom", help="hom and ext1 dimensions for stable classes")
    q.add_argument("source", help="d/r")
    q.add_argument("target", help="d/r")
    q.set_defaults(func=_cmd_sheaf_hom)

    q = sha.add_parser("minimal", help="is (sub, middle, quotient) minimal?")
    q.add_argument("sub")
    q.add_argument("middle")
    q.add_argument("quotient")
    q.set_defaults(func=_cmd_sheaf_minimal)

    q = sha.add_parser("enumerate", help="all minimal triangles up to a rank")
    q.add_argument("--max-rank", type=int, required=True)
    q.add_argument("--max-degree", type=int, default=None)
    q.set_defaults(func=_cmd_sheaf_enumerate)

    q = sha.add_parser("kclass", help="telescoping K-class partial sums")
    q.add_argument("theta")
    q.add_argument("--depth", type=int, default=8)
    q.set_defaults(func=_cmd_sheaf_kclass)

    q = sha.add_parser("bound", help="endomorphism dimension bound at theta-")
    q.add_argument("theta")
    q.add_argument("--budget", type=int, default=64)
    q.set_defaults(func=_cmd_sheaf_bound)

    q = sha.add_parser("classify", help="classify Hom(x, y) by the case table")
    q.add_argument("source", help="d/r, or a CF string ending + or -")
    q.add_argument("target", help="d/r, or a CF string ending + or -")
    q.add_argument("--depth", type=int, default=8)
    q.add_argument("--budget", type=int, default=64)
    q.set_defaults(func=_cmd_sheaf_classify)

    q = sha.add_parser("image", help="the stable image class between two thetas")
    q.add_argument("theta")
    q.add_argument("theta2")
    q.set_defaults(func=_cmd_sheaf_image)

    q = sha.add_parser("multiplicity", help="torsion quotient multiplicity")
    q.add_argument("vector", help="d/r")
    q.add_argument("slope", help="the torsion-point slope p/q")
    q.set_defaults(func=_cmd_sheaf_multiplicity)

    # -- divide --------------------------------------------------------------
    dv = groups.add_parser("divide", help="interval division and bead objects")
    dva = dv.add_subparsers(dest="action", required=True)

    q = dva.add_parser("tree", help="the division tree level by level")
    q.add_argument("theta")
    q.add_argument("far", help="a fraction p/q")
    q.add_argument("--depth", type=int, default=3)
    q.set_defaults(func=_cmd_divide_tree)

    q = dva.add_parser("points", help="sorted division points with float values")
    q.add_argument("theta")
    q.add_argument("far")
    q.add_argument("--depth", type=int, default=4)
    q.set_defaults(func=_cmd_divide_points)

    q = dva.add_parser("beads", help="the bead object on [start, end]")
    q.add_argument("theta")
    q.add_argument("far")
    q.add_argument("start", help="lattice element (m,n)")
    q.add_argument("end", help="lattice element (m,n)")
    q.set_defaults(func=_cmd_divide_beads)

    q = dva.add_parser("ses", help="check the bead short exact sequence")
    q.add_argument("theta")
    q.add_argument("far")
    q.add_argument("start")
    q.add_argument("middle")
    q.add_argument("end")
    q.set_defaults(func=_cmd_divide_ses)

    q = dva.add_parser("rank", help="a chain of beads approximating a rank")
    q.add_argument("theta")
    q.add_argument("far")
    q.add_argument("target", help="a decimal or p/q, taken exactly")
    q.add_argument("tol", help="a decimal or p/q, taken exactly")
    q.set_defaults(func=_cmd_divide_rank)

    # -- render --------------------------------------------------------------
    rd = groups.add_parser("render", help="SVG figures")
    rda = rd.add_subparsers(dest="action", required=True)

    q = rda.add_parser("svg", help="render a figure")
    q.add_argument(
        "kind", choices=("tessellation", "diagram", "tree", "coaster")
    )
    q.add_argument("--theta", default=None)
    q.add_argument("--far", default=None)
    q.add_argument("--depth", type=int, default=4)
    q.add_argument("--model", choices=("disc", "upper_half"), default="disc")
    q.add_argument("--size", type=int, default=600, help="pixels (>= 64)")
    q.add_argument("--out", default=None, help="write SVG here")
    q.add_argument("--format", choices=("svg", "json"), default="svg")
    q.add_argument("--config", default=None, help="key=value style file")
    q.set_defaults(func=_cmd_render_svg)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
        if not (isinstance(payload, str) and payload.lstrip().startswith("<svg")):
            # inside the try: str() of an int past 4300 digits raises ValueError
            payload = json.dumps(payload, indent=2)
    except PrecisionExhausted as exc:
        hint = f" (needed depth: {exc.needed_depth})" if exc.needed_depth else ""
        print(f"error: quotient prefix too short{hint}: {exc}", file=sys.stderr)
        return 3
    except (FareySlopesError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(payload + "\n")
        sys.stdout.flush()
    except OSError as exc:  # say, a reader that closed the pipe early
        # the interpreter flushes stdout again at exit, which must not raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
