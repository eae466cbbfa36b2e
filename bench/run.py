"""The fareyslopes benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Passes of the workload run one after
another, each in a fresh worker process (worker.py), so every pass starts
with cold caches as one sweep or one CLI call does; passes repeat until S
seconds have gone.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json; with --trace 1 untraced and traced passes alternate and the
metrics are the per-layer ones, plus the tracing overhead.  The line before
it reports the environment, the tail percentile used and why ops failed;
both lines are also saved under .bench_out/.

``correct`` is false when an op returned a wrong result.  ``failed`` counts
those ops and the ones that raised or, for the CLI, crashed.
"""

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
PASS_TIMEOUT_S = 170
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _commit(root: str):
    """HEAD of the checkout's git metadata, read without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _run_pass(root: str, env: dict, args, traced: bool, number: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), args.workload, str(args.seed),
           "1" if traced else "0", str(number)]
    done = subprocess.run(cmd + [repr(time.monotonic())], cwd=root, env=env, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _end_to_end(passes: list) -> tuple:
    # Latency percentiles describe answers; a failed op is counted in
    # `failed`, and its time still counts against throughput.
    latencies = sorted(x for p in passes for x, ok in zip(p["latencies"], p["ok"]) if ok)
    busy = sum(sum(p["latencies"]) for p in passes)
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ops_per_s": n / busy,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }
    info = {"samples": n}
    if n > TAIL_BEYOND:
        metrics["op_tail_ms"] = 1000 * latencies[n - TAIL_BEYOND - 1]
        info["op_tail_percentile"] = 100 * (n - TAIL_BEYOND) / n
    return metrics, info


def _per_layer(passes: list) -> tuple:
    plain = [p for p in passes if "trace" not in p]
    traced = [p["trace"]["metrics"] for p in passes if "trace" in p]
    metrics = {}
    for name, first in traced[0].items():
        values = [t[name] for t in traced]
        # counts repeat exactly between passes; times are medians
        metrics[name] = first if isinstance(first, int) else statistics.median(values)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(p["wall_s"] for p in plain)
    counts_repeat = all(t[k] == traced[0][k] for t in traced for k, v in traced[0].items() if isinstance(v, int))
    accounted = [(p["trace"]["layered_s"] + p["trace"]["metrics"]["harness.self_s"]) / p["wall_s"] for p in passes if "trace" in p]
    return metrics, {"counts_repeat": counts_repeat, "accounted_share": accounted}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fareyslopes", "__init__.py")):
        return _fail("no src/fareyslopes here: run from the root of a fareyslopes checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # The build: byte-compile once so no pass pays for compiling.
    if not compileall.compile_dir(os.path.join(root, "src", "fareyslopes"), quiet=2):
        return _fail("src/fareyslopes does not compile")
    compileall.compile_dir(BENCH, quiet=2)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")

    passes = []
    start = time.monotonic()
    try:
        while not passes or time.monotonic() - start < args.seconds or (args.trace and len(passes) % 2):
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(_run_pass(root, env, args, traced, len(passes)))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _fail(f"pass {len(passes)} failed: {exc}")

    metrics, info = (_per_layer if args.trace else _end_to_end)(passes)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics not measured: {missing}")
    attempted = sum(len(p["latencies"]) for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    failed = wrong + sum(p["raised"] for p in passes)
    failures = {}
    for p in passes:
        for why, f in p["failures"].items():
            failures.setdefault(why, {"count": 0, "first": f["first"]})["count"] += f["count"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "cpu_count": os.cpu_count(),
        "commit": _commit(root),
        "error_rate": failed / attempted,
        "setup_s_per_pass": [p["setup_s"] for p in passes],
        "failures": failures,
        **info,
    }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    lines = [json.dumps({"report": report}), json.dumps(result)]
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, f"passes-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(passes, fh)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
