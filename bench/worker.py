"""One pass of one workload, in a fresh process so the library's caches start cold.

    worker.py WORKLOAD SEED TRACE PASS SPAWNED_AT

Set-up (interpreter start, ``import fareyslopes``, building the seed's
inputs) runs from the parent's SPAWNED_AT, a ``time.monotonic`` reading, to
the first timed op.  Ops then run one after another, each timed alone; their
results are kept and checked only after the last op, so checking never
perturbs what is timed.  With TRACE=1 every public entry point of the
library is wrapped (see tracer.py) for the timed ops only.  The pass prints
one JSON object on stdout.
"""

import json
import os
import resource
import statistics
import sys
import time


class Crashed(Exception):
    """A CLI child exited abnormally or printed a traceback."""


def main() -> int:
    workload, seed, trace, pass_no, spawned_at = sys.argv[1:6]
    seed, trace, spawned_at = int(seed), trace == "1", float(spawned_at)
    root = os.getcwd()
    import fareyslopes as lib

    if not os.path.abspath(lib.__file__).startswith(os.path.join(root, "src", "")):
        print(f"fareyslopes imported from {lib.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import ops
    import tracer
    import workloads

    bench = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(bench, "expected", f"{workload}.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cli = workload == "cli-cold"
    trace_dir = out_dir if (trace and cli) else None
    factory = ops.Ops(lib, workload, expected["inputs"], trace_dir)
    pass_ops = [factory.build(spec) for spec in workloads.specs(workload, seed)]
    tr = tracer.Tracer() if (trace and not cli) else None
    if tr:
        tr.install()

    setup_s = time.monotonic() - spawned_at
    clock = time.perf_counter
    outcomes, spans = [], []
    begin = clock()
    for op in pass_ops:
        t0 = clock()
        try:
            result, error = op.call(), None
            if cli and (result["rc"] not in (0, 2, 3) or "Traceback" in result["stderr"]):
                error = Crashed(f"exit code {result['rc']}: {result['stderr'].strip().splitlines()[-1:]}")
        except Exception as exc:  # an op that raises is a failed op, not a crash of the pass
            result, error = None, exc
        t1 = clock()
        outcomes.append((result, error))
        spans.append((t0 - begin, t1 - begin))
    wall_s = clock() - begin
    if tr:
        tr.uninstall()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)

    # -- checks: every op against its stored digest and its independent check
    pool = [workloads.key(s) for s in workloads.specs(workload, None)]
    if ops.digest(pool) != expected["pool_digest"]:
        print(f"expected/{workload}.json is stale: regenerate it with make_expected.py", file=sys.stderr)
        return 2
    digests = expected["digests"]
    index = {k: i for i, k in enumerate(pool)}
    raised, wrong, reasons = 0, 0, {}
    for op, (result, error) in zip(pass_ops, outcomes):
        if error is not None:
            raised += 1
            why = f"{type(error).__name__}: {str(error)[:120]}"
        else:
            try:
                op.check(result)
                for k, part in op.parts(result):
                    i = index[k]
                    if ops.digest(part) != digests[8 * i : 8 * i + 8]:
                        raise ops.CheckFailed("serialized result differs from its stored digest")
                continue
            except ops.CheckFailed as exc:
                wrong += 1
                why = f"wrong result: {exc}"
        reasons.setdefault(f"{op.spec[0]} {why}", []).append(op.key[:160])

    record = {
        "setup_s": setup_s,
        "rss_kb": usage.ru_maxrss,
        "wall_s": wall_s,
        "latencies": [t1 - t0 for t0, t1 in spans],
        "ok": [error is None for _, error in outcomes],
        "raised": raised,
        "wrong": wrong,
        "failures": {why: {"count": len(keys), "first": keys[0]} for why, keys in reasons.items()},
    }
    if trace:
        record["trace"] = _trace_report(tr, factory, wall_s)
        path = os.path.join(out_dir, f"trace-{workload}-seed{seed}-pass{pass_no}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record["trace"] | {"op_spans": [
                {"op": op.key[:200], "tags": workloads.tags(op.spec), "start_s": t0, "end_s": t1, "ok": error is None}
                for op, (t0, t1), (_, error) in zip(pass_ops, spans, outcomes)
            ]}, fh)
    print(json.dumps(record))
    return 0


def _trace_report(tr, factory, wall_s) -> dict:
    """Per-layer metrics of the pass, and the accounting of its wall time."""
    import tracer

    if tr is not None:
        dumps = [tr.dump()]
        startup = {"interpreter_s": [], "import_s": []}
    else:  # traced CLI children each wrote their own dump
        dumps = []
        for path in factory.child_traces:
            with open(path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
            os.remove(path)
        startup = {k: [d[k] for d in dumps] for k in ("interpreter_s", "import_s")}
    metrics = tracer.layer_metrics(dumps)
    for k, values in startup.items():
        metrics[f"cli.{k}"] = statistics.median(values) if values else 0.0
    layered = sum(s for d in dumps for *_, s in d["spans"]) + sum(sum(v) for v in startup.values())
    metrics["harness.self_s"] = wall_s - layered
    metrics["trace.wall_s"] = wall_s
    return {"metrics": metrics, "spans": [row for d in dumps for row in d["spans"]], "layered_s": layered}


if __name__ == "__main__":
    sys.exit(main())
