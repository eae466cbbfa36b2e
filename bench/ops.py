"""Turn workload specs into calls on the library, and check what they return.

Each ``Op`` holds a zero-argument ``call`` (the only thing the pass times), a
``check`` that raises ``CheckFailed`` when the result breaks an exact fact
computed independently by ``oracle``, and ``parts``, which names the stored
digests the result's serialization must match.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import oracle
import workloads
from workloads import CheckFailed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
VERDICTS = {"Zero", "FiniteDivisionAlgebraBound", "SESWithCQuotient", "Unknown"}


def canon(obj):
    """JSON-ready serialization of any library result."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if hasattr(obj, "to_dict"):
        return canon(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    name = type(obj).__name__
    if name == "ReducedFraction" or hasattr(obj, "quotient"):
        return str(obj)
    if name == "ThetaLatticeElement":
        return [obj.m, obj.n]
    if dataclasses.is_dataclass(obj):
        fields = {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        return {"type": name, **fields}
    raise TypeError(f"cannot serialize {name}")


def digest(obj) -> str:
    text = json.dumps(canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise CheckFailed(why)


class Op:
    __slots__ = ("spec", "key", "call", "check", "parts")

    def __init__(self, spec, call, check, parts=None):
        self.spec = spec
        self.key = workloads.key(spec)
        self.call = call
        self.check = check
        self.parts = parts or (lambda result: [(self.key, result)])


def _pair(m_n) -> tuple:
    return (m_n.m, m_n.n)


def _sub(x: tuple, y: tuple) -> tuple:
    return (x[0] - y[0], x[1] - y[1])


def _check_farey(tri) -> set:
    vs = [(v.p, v.q) for v in tri.vertices]
    for (p1, q1), (p2, q2) in ((vs[0], vs[1]), (vs[1], vs[2]), (vs[0], vs[2])):
        _require(abs(p1 * q2 - p2 * q1) == 1, f"non-Farey triangle {vs}")
    return set(vs)


def _check_triangles(triangles, count: int) -> None:
    """Each triangle is a Farey triangle and consecutive ones share an edge."""
    _require(len(triangles) == count, f"{len(triangles)} triangles, want {count}")
    prev = None
    for tri, _ in triangles:
        vs = _check_farey(tri)
        _require(prev is None or len(prev & vs) == 2, "consecutive triangles share no edge")
        prev = vs


class Ops:
    """Builds the ops of one pass; holds the parsed inputs they share."""

    def __init__(self, lib, workload: str, inputs: dict, trace_dir=None):
        self.lib = lib
        self.trace_dir = trace_dir  # traced CLI children write their spans here
        self.slopes = {}
        self.levels = {}
        self.diagrams = {}
        self.child_traces = []
        if workload == "division-sweep":
            self.division = []
            for t, (theta, far) in enumerate(workloads.DIVISION_SLOPES):
                slope = self.slope(theta)
                points = [lib.ThetaLatticeElement(m, n, slope) for m, n in inputs["points"][t]]
                self.division.append((slope, lib.ReducedFraction.from_string(far), points, oracle.Slope.parse(theta)))

    def slope(self, text: str):
        if text not in self.slopes:
            self.slopes[text] = self.lib.IrrationalNumber.from_string(text)
        return self.slopes[text]

    def hom_end(self, text: str):
        lib = self.lib
        if text.endswith(("+", "-")):
            side = "plus" if text.endswith("+") else "minus"
            return lib.LimitObjectDescriptor(self.slope(text[:-1]), side)
        d, r = text.split("/")
        return lib.StableClass(int(d), int(r))

    def build(self, spec) -> Op:
        return getattr(self, "_" + spec[0])(spec)

    # -- division-sweep ----------------------------------------------------

    def _divide_level(self, spec) -> Op:
        lib, (_, t, level) = self.lib, spec
        theta, far, _, o_theta = self.division[t]

        def call():
            prev = self.levels.get(t) or [lib.root_interval(theta, far)]
            self.levels[t] = [child for iv in prev for child in lib.divide(iv)]
            return self.levels[t]

        def check(ivs):
            _require(len(ivs) == 2 ** level, "wrong piece count")
            _require(_pair(ivs[0].a) == (0, 0), "tree does not start at 0")
            _require(_pair(ivs[-1].b) == oracle.theta_norm(o_theta, oracle.parse_fraction(str(far))), "tree does not end at |r|")
            for left, right in zip(ivs, ivs[1:]):
                _require(left.b == right.a, "pieces are not contiguous")
            for iv in ivs:
                want = oracle.theta_norm(o_theta, (iv.vertex.p, iv.vertex.q))
                _require(_sub(_pair(iv.b), _pair(iv.a)) == want, "piece length is not its vertex's norm")

        return Op(spec, call, check)

    def _division_points(self, spec) -> Op:
        lib, (_, t, depth) = self.lib, spec
        theta, far, _, o_theta = self.division[t]

        def check(points):
            _require(len(points) == 2 ** depth + 1, "wrong point count")
            _require(_pair(points[0]) == (0, 0), "points do not start at 0")
            for x, y in zip(points, points[1:]):
                m, n = _sub(_pair(y), _pair(x))
                _require(oracle.lattice_sign(o_theta, m, n) > 0, "points are not strictly increasing")

        return Op(spec, lambda: lib.division_points(theta, far, depth), check)

    def _check_bead(self, bead, c, d) -> None:
        length = _sub(_pair(d), _pair(c))
        _require(_pair(bead.rank_theta) == length, "bead rank differs from the interval length")
        deg, rank = bead.summands.kclass()
        _require((-rank, deg) == length, "rotated rank of the summands differs from the length")

    def _beads(self, spec) -> Op:
        lib, (_, t, i, j) = self.lib, spec
        theta, far, points, o_theta = self.division[t]
        c, d = points[i], points[j]

        def check(bead):
            self._check_bead(bead, c, d)
            total = (0, 0)
            for label in bead.labels:
                m, n = oracle.theta_norm(o_theta, (label.p, label.q))
                total = (total[0] + m, total[1] + n)
            _require(total == _sub(_pair(d), _pair(c)), "label norms do not tile the window")

        return Op(spec, lambda: lib.beads(theta, far, c, d), check)

    def _ses(self, spec) -> Op:
        lib, (_, t, i, j, k) = self.lib, spec
        theta, far, points, o_theta = self.division[t]
        c, e, d = points[i], points[j], points[k]

        def check(report):
            _require(report.passed, "ses_check did not pass")
            for bead, lo, hi in ((report.sub, c, e), (report.whole, c, d), (report.quotient, e, d)):
                self._check_bead(bead, lo, hi)

        def parts(report):
            key = workloads.key
            return [
                (key(("beads", t, i, j)), report.sub),
                (key(("beads", t, i, k)), report.whole),
                (key(("beads", t, j, k)), report.quotient),
            ]

        return Op(spec, lambda: lib.ses_check(theta, far, c, e, d), check, parts)

    # -- walks -------------------------------------------------------------

    def _far(self, text: str):
        return self.slope(text) if text.startswith("[") else self.lib.ReducedFraction.from_string(text)

    def _diagram(self, spec) -> Op:
        lib, (_, theta, far, depth) = self.lib, spec
        slope, end = self.slope(theta), self._far(far)

        def call():
            self.diagrams[spec[1:]] = lib.farey_diagram(slope, end, depth)
            return self.diagrams[spec[1:]]

        return Op(spec, call, lambda diagram: _check_triangles(diagram.triangles, depth))

    def _two_ended(self, spec) -> Op:
        lib, (_, theta, far, depth) = self.lib, spec
        slope, end = self.slope(theta), self.slope(far)
        check = lambda diagram: _check_triangles(diagram.triangles, 2 * depth)
        return Op(spec, lambda: lib.farey_diagram(slope, end, depth), check)

    def _cutting(self, spec) -> Op:
        lib, (_, theta, depth) = self.lib, spec
        slope = self.slope(theta)
        want = oracle.cutting_runs(oracle.Slope.parse(theta), depth)

        def check(seq):
            _require([list(run) for run in seq.runs] == want, "runs differ from the partial quotients")

        return Op(spec, lambda: lib.cutting_sequence(slope, depth), check)

    def _product(self, spec) -> Op:
        lib, (_, theta, a, b, _) = self.lib, spec
        slope = self.slope(theta)
        x, y = (lib.ReducedFraction.from_string(s) for s in (a, b))
        # No cheap independent fact pins the product down; its digest does.
        return Op(spec, lambda: lib.theta_product(x, y, slope), lambda result: None)

    def _bottom(self, spec) -> Op:
        lib, (_, lo, hi) = self.lib, spec
        x, y = self.slope(lo), self.slope(hi)
        want = oracle.simplest_between(oracle.Slope.parse(lo), oracle.Slope.parse(hi))

        def check(result):
            _require((result.p, result.q) == want, f"bottom is {result}, want {oracle.fraction_str(want)}")

        return Op(spec, lambda: lib.bottom(x, y), check)

    def _slope_lt(self, spec) -> Op:
        lib, (_, a, b) = self.lib, spec
        x, y = self.slope(a), self.slope(b)
        want = oracle.slope_lt(oracle.Slope.parse(a), oracle.Slope.parse(b))
        return Op(spec, lambda: lib.slope_lt(x, y), lambda result: _require(result == want, "wrong order"))

    # -- invariants, sheaves, render ---------------------------------------

    def _kclass(self, spec) -> Op:
        lib, (_, theta, depth) = self.lib, spec
        slope, o_theta = self.slope(theta), oracle.Slope.parse(theta)

        def check(report):
            _require(report.all_ok and len(report.rows) == depth, "telescoping identity fails")
            for row in report.rows:
                _require(tuple(row.target) == o_theta.convergent(2 * row.index + 2), "wrong convergent")

        return Op(spec, lambda: lib.kclass_colimit_check(slope, depth), check)

    def _c_theta(self, spec) -> Op:
        lib, slope = self.lib, self.slope(spec[1])

        def check(report):
            _require(type(report.status).__name__ == "Stabilized", "periodic slope did not stabilize")
            chain = report.chain()
            _require(all(y % x == 0 for x, y in zip(chain, chain[1:])), "chain is not a divisibility chain")
            _require(chain[-1] == report.status.c, "limit is not the last chain entry")

        return Op(spec, lambda: lib.c_theta(slope), check)

    def _endo_bound(self, spec) -> Op:
        lib = self.lib
        desc = lib.LimitObjectDescriptor(self.slope(spec[1]), "minus")

        def check(report):
            _require(report.stabilized and report.bound == report.c ** 2, "bound is not c^2")

        return Op(spec, lambda: lib.endo_dim_bound(desc), check)

    def _hom_ext(self, spec) -> Op:
        lib = self.lib
        a, b = (self.hom_end(s) for s in spec[1:])
        (p, q), (r, s) = a.vector(), b.vector()

        def check(result):
            hom, ext = result
            _require((hom.dim - ext.dim, hom.ht - ext.ht) == (q * r - p * s, q * s), "hom - ext differs from chi")
            _require(hom.is_zero() or ext.is_zero(), "hom and ext both nonzero")

        return Op(spec, lambda: lib.hom_ext_dims(a, b), check)

    def _classify(self, spec) -> Op:
        lib = self.lib
        x, y = (self.hom_end(s) for s in spec[1:])
        check = lambda report: _require(report.verdict in VERDICTS, f"unknown verdict {report.verdict}")
        return Op(spec, lambda: lib.hom_classify(x, y), check)

    def _enumerate(self, spec) -> Op:
        lib, max_rank = self.lib, spec[1]

        def check(triples):
            for e, f, g in triples:
                _require(abs(e.degree * g.rank - g.degree * e.rank) == 1, "outer pair is not unimodular")
                _require((f.degree, f.rank) == (e.degree + g.degree, e.rank + g.rank), "middle is not the sum")
                _require(max(e.rank, f.rank, g.rank) <= max_rank, "rank bound exceeded")

        return Op(spec, lambda: lib.enumerate_minimal_triangles(max_rank), check)

    def _construct(self, spec) -> Op:
        lib, (_, a0, a1, a2, depth) = self.lib, spec

        def check(theta):
            quotients = list(theta.quotients)
            _require(quotients[:3] == [a0, a1, a2] and len(quotients) == 3 + 2 * depth, "wrong prefix")
            q = [oracle.from_quotients(quotients[: i + 1])[1] for i in range(len(quotients))]
            d = [math.gcd(q[2 * i], quotients[2 * i + 2]) for i in range(depth + 1)]
            _require(all(y > x and y % x == 0 for x, y in zip(d, d[1:])), "d-chain does not grow")

        return Op(spec, lambda: lib.construct_special_theta(a0, a1, a2, depth), check)

    def _coaster(self, spec) -> Op:
        lib, (_, theta, depth) = self.lib, spec
        slope = self.slope(theta)

        def check(rc):
            for tri in rc.triangles:
                _check_farey(tri)

        return Op(spec, lambda: lib.roller_coaster(slope, depth), check)

    def _render_diagram(self, spec) -> Op:
        lib = self.lib
        render = lib.RenderSpec(size_px=128)
        svg_check = lambda svg: _require(svg.startswith("<svg") and svg.rstrip().endswith("</svg>"), "not an SVG document")
        return Op(spec, lambda: lib.render_svg(render, self.diagrams[spec[1:]]), svg_check)

    def _session(self, spec) -> Op:
        subs = [self.build(tuple(sub)) for sub in spec[2]]

        def check(results):
            for sub, result in zip(subs, results):
                sub.check(result)

        def parts(results):
            return [part for sub, result in zip(subs, results) for part in sub.parts(result)]

        return Op(spec, lambda: [sub.call() for sub in subs], check, parts)

    # -- cli-cold ----------------------------------------------------------

    def _cli(self, spec) -> Op:
        argv = list(spec[1:])
        want_rc = workloads.cli_exit_code(argv)

        def call():
            if self.trace_dir is None:
                cmd = [sys.executable, "-m", "fareyslopes.cli", *argv]
            else:
                path = os.path.join(self.trace_dir, f"cli-{len(self.child_traces)}.json")
                self.child_traces.append(path)
                cmd = [sys.executable, os.path.join(BENCH_DIR, "clitrace.py"), path, repr(time.monotonic()), *argv]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
            written = None
            if workloads.SVG_OUT in argv and done.returncode == 0:
                with open(workloads.SVG_OUT, "rb") as fh:
                    written = hashlib.sha256(fh.read()).hexdigest()
            return {"rc": done.returncode, "stdout": done.stdout, "file": written, "stderr": done.stderr}

        def check(result):
            _require(result["rc"] == want_rc, f"exit code {result['rc']}, want {want_rc}")
            if want_rc:
                _require(result["stdout"] == "" and result["stderr"].startswith("error:"), "error not on stderr")
                _require(want_rc != 3 or "needed depth" in result["stderr"], "no needed depth")
                return
            _check_cli_payload(argv, result["stdout"])

        def parts(result):
            # stderr wording is not part of the CLI contract; exit code and stdout are
            return [(workloads.key(spec), {k: v for k, v in result.items() if k != "stderr"})]

        return Op(spec, call, check, parts)


def _check_cli_payload(argv, stdout: str) -> None:
    if argv[:2] == ["render", "svg"] and "--format" not in argv:
        _require(json.loads(stdout)["bytes"] > 0, "empty SVG")
        return
    payload = json.loads(stdout)
    if argv[:2] == ["farey", "cutting"]:
        want = oracle.cutting_runs(oracle.Slope.parse(argv[2]), int(argv[argv.index("--depth") + 1]))
        _require(payload["runs"] == want, "runs differ from the partial quotients")
    elif argv[:2] == ["farey", "bottom"]:
        x, y = oracle.Slope.parse(argv[2]), oracle.Slope.parse(argv[3])
        _require(payload == oracle.fraction_str(oracle.simplest_between(x, y)), "wrong bottom")
    elif argv[:2] == ["divide", "ses"]:
        _require(payload["passed"] is True, "ses_check did not pass")
    elif argv[:2] == ["divide", "beads"]:
        c, d = payload["interval"]
        rank = payload["rank_theta"]
        _require((rank["m"], rank["n"]) == (d["m"] - c["m"], d["n"] - c["n"]), "bead rank differs from the length")
