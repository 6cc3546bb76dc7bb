"""Benchmark entry point: run one workload in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload once, untraced, and reports every end-to-end
metric of ``BENCHMARK.json``.  ``--trace 1`` runs it untraced and then traced,
each in its own process, and reports every per-layer metric, including the
tracing overhead between the two.  Informational lines (environment, tail
percentile, sample count) come first; the last line of standard output is the
result object.  Exits non-zero, printing no result, when a workload process
fails or the library cannot be found.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Whole-invocation limit in seconds, below the 180 s a run may take.
DEADLINE_S = 175.0


class BenchError(RuntimeError):
    """A workload process failed or reported something unexpected."""


def run_workload(args, *, traced: bool, repeats: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-repeats", str(repeats), "--trace", str(int(traced)),
           "--scale", args.scale]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1])


def with_units(values: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one dkrylov benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="problem sizes; 'smoke' is for the smoke test only")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "dkrylov" / "__init__.py").is_file():
            raise BenchError(f"no dkrylov sources under {ROOT / 'src'}")
        plain = run_workload(args, traced=False, repeats=1 if args.trace else 3,
                             deadline=deadline)
        runs = [plain]
        if args.trace:
            traced = run_workload(args, traced=True, repeats=1, deadline=deadline)
            runs.append(traced)
            layers = dict(traced["layers"], **{"trace.overhead": (
                traced["metrics"]["op_ms_p50"] / plain["metrics"]["op_ms_p50"] - 1.0)})
            metrics = with_units(layers, spec["per_layer"])
        else:
            metrics = with_units(plain["metrics"], spec["end_to_end"])
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for label, run in zip(("untraced", "traced"), runs):
        print(json.dumps({"workload": args.workload, "seed": args.seed, "run": label,
                          **run["info"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
