"""Command-line front door: JSON on stdout, SVG via --out, exact inside.

``_COMMANDS`` lists every command once: its group, its action, its help, its
handler and its arguments.  ``build_parser`` builds the argparse tree from it
and ``main`` dispatches through it.

Exit codes: 0 success, 2 bad input (argparse uses the same code) or output
that cannot be written, 3 when a finite quotient prefix runs out of depth —
the needed depth is printed to stderr so the caller knows how much more to
supply.  Outputs that double per level (divide tree and points, farey tree,
render svg tree and tessellation) take a --depth of at most 16; `divide
points` then prints 65 537 points (5 MB), and `cf semiconvergents` prints no
row longer than that.

This module imports only what the cf group uses (errors, exact, cfrac and
invariants).  Every other handler imports its modules when it runs: farey
for the farey group, farey and render for render, sheaves for sheaf (it
compares slopes with cfrac, so no sheaf command loads farey or lattice), and
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
from .invariants import Stabilized, c_theta, construct_special_theta, d_chain, special_conditions_hold

if TYPE_CHECKING:  # the handlers import these, so a subcommand loads only its modules
    from .lattice import ThetaLatticeElement
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
    return {"kind": "lower_bound_only", "last": status.last}


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
    theta, far = _parse_theta(args.theta), _parse_fraction(args.far)
    level = [root_interval(theta, far)]
    if _capped(args.depth) < 0:
        raise ValueError("depth must be >= 0")
    levels = [[iv.to_dict() for iv in level]]
    for _ in range(args.depth):
        level = [child for iv in level for child in divide(iv)]
        levels.append([iv.to_dict() for iv in level])
    return {"theta": str(theta), "far": str(far), "levels": levels}


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


def _render_object(args):
    """The diagram, tree or roller coaster that ``render svg`` draws."""
    from .farey import farey_diagram, farey_tree, roller_coaster
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
    if args.far is not None:
        raise ValueError("render coaster takes no --far")
    return roller_coaster(theta, args.depth)


def _cmd_render_svg(args):
    from .farey import farey_diagram
    from .render import RenderSpec, render_svg
    depth = _capped(args.depth) if args.kind in ("tessellation", "tree") else args.depth
    style = _load_style(args.config)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if args.size < 64:  # RenderSpec's own check, made before the figure is built
        raise ValueError("size_px must be >= 64")
    obj, highlight = depth, None
    if args.kind != "tessellation":
        obj = _render_object(args)
    elif args.theta is not None and args.far is not None:
        if args.format == "json":
            raise ValueError("render tessellation --format json prints the depth only: drop --theta and --far")
        highlight = farey_diagram(_parse_theta(args.theta), _parse_slope(args.far), depth)
    elif args.theta is not None or args.far is not None:
        raise ValueError("render tessellation takes --theta and --far together")
    if args.format == "json":
        if args.out:
            raise ValueError("--out writes SVG; --format json prints to stdout")
        return obj if isinstance(obj, int) else obj.to_dict()
    if args.kind == "coaster":
        # the picture draws a grid line for each integer up to its largest coordinate + 1, in each direction
        span = max((max(v.q, v.p) for v in obj.vertices if not v.is_infinite), default=0) + 1
        if span + 1 > _ROW_CAP:
            raise ValueError(f"the coaster's grid has more than {_ROW_CAP} lines a side, the most this command draws")
    svg = render_svg(RenderSpec(args.model, highlight, args.size, style), obj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
        return {"written": args.out, "bytes": len(svg.encode("utf-8"))}
    return svg


# --------------------------------------------------------------------------
# the command table: {group: (help, {action: (help, handler, arguments)})},
# each argument a (name, add_argument keywords) pair


_THETA = ("theta", {})
_BUDGET = ("--budget", {"type": int, "default": 64})


def _far(help: Optional[str] = None):
    return ("far", {"help": help})


def _depth(default: int, help: Optional[str] = None):
    return ("--depth", {"type": int, "default": default, "help": help})


_COMMANDS = {
    "cf": ("continued fractions and invariant chains", {
        "convergents": ("the first n convergents of theta", _cmd_cf_convergents, [
            _THETA, ("-n", {"type": int, "default": 8, "help": "how many (default 8)"})]),
        "semiconvergents": ("row i of the semiconvergent fan", _cmd_cf_semiconvergents, [
            _THETA, ("-n", {"type": int, "default": 0, "help": "row index i >= -1 (default 0)"})]),
        "ctheta": ("the gcd-chain invariant c(theta)", _cmd_cf_ctheta, [_THETA, _BUDGET]),
        "dchain": ("the chain d_i = gcd(q_2i, a_2i+2)", _cmd_cf_dchain, [_THETA, ("-n", {"type": int, "default": 8})]),
        "construct": ("build a prefix with growing chains", _cmd_cf_construct, [
            ("--seed", {"default": "1,1,1", "help": "a0,a1,a2 (a2 squarefree)"}), _depth(3, "constructed steps")]),
    }),
    "farey": ("diagrams, trees, cutting sequences", {
        "diagram": ("the Farey diagram between theta and far", _cmd_farey_diagram, [
            _THETA, _far("a fraction p/q or a CF string"), _depth(6)]),
        "tree": ("the binary tree of child vertices", _cmd_farey_tree, [_THETA, _far("a fraction p/q"), _depth(4)]),
        "cutting": ("L/R cutting sequence runs", _cmd_farey_cutting, [_THETA, _depth(10)]),
        "product": ("the Farey-diagram product of two slopes", _cmd_farey_product, [
            ("first", {}), ("second", {}), ("--theta", {"required": True})]),
        "bottom": ("the bottom fraction between two thetas", _cmd_farey_bottom, [_THETA, ("theta2", {})]),
        "coaster": ("the roller coaster complex", _cmd_farey_coaster, [_THETA, _depth(3)]),
    }),
    "sheaf": ("stable classes and hom calculus", {
        "chi": ("Euler pairing of two degree/rank vectors", _cmd_sheaf_chi, [
            ("first", {"help": "d/r"}), ("second", {"help": "d/r"})]),
        "hom": ("hom and ext1 dimensions for stable classes", _cmd_sheaf_hom, [
            ("source", {"help": "d/r"}), ("target", {"help": "d/r"})]),
        "minimal": ("is (sub, middle, quotient) minimal?", _cmd_sheaf_minimal, [
            ("sub", {}), ("middle", {}), ("quotient", {})]),
        "enumerate": ("all minimal triangles up to a rank", _cmd_sheaf_enumerate, [
            ("--max-rank", {"type": int, "required": True}), ("--max-degree", {"type": int, "default": None})]),
        "kclass": ("telescoping K-class partial sums", _cmd_sheaf_kclass, [_THETA, _depth(8)]),
        "bound": ("endomorphism dimension bound at theta-", _cmd_sheaf_bound, [_THETA, _BUDGET]),
        "classify": ("classify Hom(x, y) by the case table", _cmd_sheaf_classify, [
            ("source", {"help": "d/r, or a CF string ending + or -"}),
            ("target", {"help": "d/r, or a CF string ending + or -"}),
            _depth(8),
            _BUDGET,
        ]),
        "image": ("the stable image class between two thetas", _cmd_sheaf_image, [_THETA, ("theta2", {})]),
        "multiplicity": ("torsion quotient multiplicity", _cmd_sheaf_multiplicity, [
            ("vector", {"help": "d/r"}), ("slope", {"help": "the torsion-point slope p/q"})]),
    }),
    "divide": ("interval division and bead objects", {
        "tree": ("the division tree level by level", _cmd_divide_tree, [_THETA, _far("a fraction p/q"), _depth(3)]),
        "points": ("sorted division points with float values", _cmd_divide_points, [_THETA, _far(), _depth(4)]),
        "beads": ("the bead object on [start, end]", _cmd_divide_beads, [
            _THETA, _far(), ("start", {"help": "lattice element (m,n)"}), ("end", {"help": "lattice element (m,n)"})]),
        "ses": ("check the bead short exact sequence", _cmd_divide_ses, [
            _THETA, _far(), ("start", {}), ("middle", {}), ("end", {})]),
        "rank": ("a chain of beads approximating a rank", _cmd_divide_rank, [
            _THETA,
            _far(),
            ("target", {"help": "a decimal or p/q, taken exactly"}),
            ("tol", {"help": "a decimal or p/q, taken exactly"}),
        ]),
    }),
    "render": ("SVG figures", {
        "svg": ("render a figure", _cmd_render_svg, [
            ("kind", {"choices": ("tessellation", "diagram", "tree", "coaster")}),
            ("--theta", {"default": None}),
            ("--far", {"default": None}),
            _depth(4),
            ("--model", {"choices": ("disc", "upper_half"), "default": "disc"}),
            ("--size", {"type": int, "default": 600, "help": "pixels (>= 64)"}),
            ("--out", {"default": None, "help": "write SVG here"}),
            ("--format", {"choices": ("svg", "json"), "default": "svg"}),
            ("--config", {"default": None, "help": "key=value style file"}),
        ]),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fareyslopes",
        description="Exact Farey-tessellation arithmetic: continued fractions, "
        "diagrams, stable classes, interval division, SVG figures.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, actions) in _COMMANDS.items():
        group_parser = groups.add_parser(group, help=group_help)
        action_parsers = group_parser.add_subparsers(dest="action", required=True)
        for action, (action_help, _, arguments) in actions.items():
            action_parser = action_parsers.add_parser(action, help=action_help)
            for name, keywords in arguments:
                action_parser.add_argument(name, **keywords)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.group][1][args.action][1]
    try:
        payload = handler(args)
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
