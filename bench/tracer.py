"""Spans around every public entry point of the library, kept in memory.

``Tracer.install`` replaces each public function of each module -- and the
few hot methods listed in ``METHODS`` -- by a wrapper that times the call.
Functions are patched on *every* module that binds them, since most are
imported by name (``compare_theta_rational`` lives in ``cfrac`` but is called
through ``lattice``, ``farey``, ``division`` and ``sheaves``).

Spans are aggregated by (span name, layer of the calling span), which keeps
millions of leaf calls cheap to record while leaving every layer's self time
computable: a span's self time is its duration minus the time of the spans it
encloses.  Time inside a span but outside any enclosed span -- private
helpers included -- is charged to the span's own layer.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("exact", "cfrac", "lattice", "invariants", "farey", "sheaves", "division", "render", "cli")
SYMPY_LAYER = "invariants.sympy"

# Hot methods that carry most of the work below the public functions.
METHODS = {
    "exact": {"ReducedFraction": ("__init__", "__lt__", "mediant", "det")},
    "cfrac": {"IrrationalNumber": ("convergent", "convergent_pair", "from_string")},
    "lattice": {"ThetaLatticeElement": ("sign", "__add__", "__sub__", "__lt__")},
}
SYMPY_NAMES = ("factorint", "isprime", "nextprime")  # bound into fareyslopes.invariants
MEMOIZED = ("theta_norm", "left_right_vertices", "divide", "beads")
WALKS = ("farey.farey_diagram", "farey.cutting_sequence")

COMPARE = "cfrac.compare_theta_rational"
CONVERGENT = "cfrac.IrrationalNumber.convergent"
FRACTION_INIT = "exact.ReducedFraction.__init__"
SIGN = "lattice.ThetaLatticeElement.sign"


def _walk_items(result) -> int:
    """Triangles of a diagram, letters of a cutting sequence."""
    if hasattr(result, "triangles"):
        return len(result.triangles)
    return sum(count for _, count in result.runs)


class Tracer:
    def __init__(self):
        # A frame is [layer, seconds spent in enclosed spans, inside a walk].
        self.stack = [["harness", 0.0, False]]
        self.agg = {}  # (span name, caller layer) -> [calls, total_s, self_s]
        self.layer_of = {}
        self.walk_out = 0
        self.walk_compares = 0
        self.render_bytes = 0
        self.seen = {name: set() for name in MEMOIZED}
        self.memo_calls = dict.fromkeys(MEMOIZED, 0)
        self.memo_repeats = dict.fromkeys(MEMOIZED, 0)
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        stack, agg, clock = self.stack, self.agg, time.perf_counter
        self.layer_of[name] = layer
        walk = name in WALKS
        short = name.rsplit(".", 1)[-1]
        memo = short in MEMOIZED
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0, walk or parent[2]]
            if memo:
                tracer._saw(short, args, kwargs)
            elif name == COMPARE and parent[2]:
                tracer.walk_compares += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = agg.get((name, parent[0]))
                if rec is None:
                    rec = agg[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if walk:
                tracer.walk_out += _walk_items(result)
            elif name == "render.render_svg":
                tracer.render_bytes += len(result.encode("utf-8"))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _saw(self, short: str, args, kwargs) -> None:
        key = (args, tuple(sorted(kwargs.items())))
        self.memo_calls[short] += 1
        if key in self.seen[short]:
            self.memo_repeats[short] += 1
        else:
            self.seen[short].add(key)

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function and listed method of the library."""
        mods = {n: m for n, m in sys.modules.items() if n == "fareyslopes" or n.startswith("fareyslopes.")}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = mods.get(f"fareyslopes.{layer}")
            if mod is None:  # the CLI module is loaded only by CLI calls
                continue
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if callable(fn) and not inspect.isclass(fn) and getattr(fn, "__module__", None) == mod.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}", layer))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, staticmethod):
                        self._patch(cls, meth, staticmethod(self._wrap(raw.__func__, name, layer)))
                    else:
                        self._patch(cls, meth, self._wrap(raw, name, layer))
        invariants = mods["fareyslopes.invariants"]
        for attr in SYMPY_NAMES:
            self._patch(invariants, attr, self._wrap(getattr(invariants, attr), f"{SYMPY_LAYER}.{attr}", SYMPY_LAYER))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def spans(self) -> list:
        return [[name, caller, c, total, own] for (name, caller), (c, total, own) in sorted(self.agg.items())]

    def counters(self) -> dict:
        return {
            "walk_out": self.walk_out,
            "walk_compares": self.walk_compares,
            "render_bytes": self.render_bytes,
            "memo_calls": self.memo_calls,
            "memo_repeats": self.memo_repeats,
        }

    def dump(self) -> dict:
        """Everything a pass reports: aggregated spans, counters, layer map."""
        return {"spans": self.spans(), "counters": self.counters(), "layers": self.layer_of}


def layer_metrics(dumps: list) -> dict:
    """Per-layer totals from one or more tracer dumps (one per process)."""
    calls = dict.fromkeys(LAYERS + (SYMPY_LAYER,), 0)
    own = dict.fromkeys(LAYERS + (SYMPY_LAYER,), 0.0)
    named = {COMPARE: 0, CONVERGENT: 0, FRACTION_INIT: 0, SIGN: 0}
    counters = {"walk_out": 0, "walk_compares": 0, "render_bytes": 0}
    memo_calls = dict.fromkeys(MEMOIZED, 0)
    memo_repeats = dict.fromkeys(MEMOIZED, 0)
    for dump in dumps:
        for name, _, c, _, s in dump["spans"]:
            layer = dump["layers"][name]
            calls[layer] += c
            own[layer] += s
            if name in named:
                named[name] += c
        for k in counters:
            counters[k] += dump["counters"][k]
        for k in MEMOIZED:
            memo_calls[k] += dump["counters"]["memo_calls"][k]
            memo_repeats[k] += dump["counters"]["memo_repeats"][k]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = own[layer]
    out["cfrac.compare.calls"] = named[COMPARE]
    out["cfrac.convergent.calls"] = named[CONVERGENT]
    out["exact.fractions_built"] = named[FRACTION_INIT]
    out["lattice.sign.calls"] = named[SIGN]
    out["farey.walk_out"] = counters["walk_out"]
    out["farey.compares_per_out"] = counters["walk_compares"] / counters["walk_out"] if counters["walk_out"] else 0.0
    out["invariants.sympy.self_s"] = own[SYMPY_LAYER]
    out["render.bytes_out"] = counters["render_bytes"]
    for k in MEMOIZED:
        out[f"{k}.repeat_share"] = memo_repeats[k] / memo_calls[k] if memo_calls[k] else 0.0
    return out
