"""Regenerate ``expected/<workload>.json``: the stored digest of every pool op.

    PYTHONPATH=src python3 bench/make_expected.py [WORKLOAD ...]

Run from the repository root.  Each pool op runs once and its serialized
result is digested.  Where the library raises instead of answering, the
digest records the answer of the benchmark's own oracle, so a run counts
that op as failed until the library answers it correctly; any other op
that raises, or fails its independent check, aborts the generation.
"""

import json
import os
import sys

import fareyslopes as lib

import oracle
import ops
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))


def _oracle_answer(spec):
    if spec[0] == "bottom":
        x, y = (oracle.Slope.parse(s) for s in spec[1:3])
        return oracle.fraction_str(oracle.simplest_between(x, y))
    if spec[0] == "slope_lt":
        return oracle.slope_lt(*(oracle.Slope.parse(s) for s in spec[1:3]))
    if spec[0] == "cli" and spec[1:3] == ("farey", "bottom"):
        x, y = (oracle.Slope.parse(s) for s in spec[3:5])
        answer = oracle.fraction_str(oracle.simplest_between(x, y))
        return {"rc": 0, "stdout": json.dumps(answer) + "\n", "file": None}
    raise ValueError(f"no oracle answer for {spec[0]}")


def generate(workload: str) -> dict:
    inputs = {}
    if workload == "division-sweep":
        inputs["points"] = []
        for theta, far in workloads.DIVISION_SLOPES:
            pts = lib.division_points(
                lib.IrrationalNumber.from_string(theta),
                lib.ReducedFraction.from_string(far),
                workloads.SWEEP_DEPTH,
            )
            inputs["points"].append([[p.m, p.n] for p in pts])
    factory = ops.Ops(lib, workload, inputs)
    pool = workloads.specs(workload, None)
    digests, oracle_only = [], []
    for spec in pool:
        op = factory.build(spec)
        try:
            result = op.call()
            if workload == "cli-cold" and result["rc"] not in (0, 2, 3):
                raise RuntimeError(result["stderr"].strip().splitlines()[-1])
        except Exception as exc:
            print(f"{op.key[:100]}: {type(exc).__name__}; storing the oracle's answer", file=sys.stderr)
            oracle_only.append(op.key[:200])
            digests.append(ops.digest(_oracle_answer(spec)))
            continue
        op.check(result)
        [(_, part)] = op.parts(result)
        digests.append(ops.digest(part))
    return {
        "pool_digest": ops.digest([workloads.key(s) for s in pool]),
        "oracle_only": oracle_only,
        "inputs": inputs,
        "digests": "".join(digests),
    }


def main() -> None:
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        data = generate(workload)
        os.makedirs(os.path.join(BENCH, "expected"), exist_ok=True)
        with open(os.path.join(BENCH, "expected", f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{workload}: {len(data['digests']) // 8} digests", file=sys.stderr)


if __name__ == "__main__":
    main()
