"""One benchmark workload in a fresh, single-threaded process.

Sets the workload up several times (reporting the median set-up time), then
runs timed ops in a closed loop with one caller until ``--seconds`` have
passed and at least one whole pass through the input pool is done.  Every op
is checked; a failed check counts as a failed op and its time is kept.  The
last line of standard output is one JSON object; ``perfbench/run.py`` reads it.

    python3 perfbench/workload.py --workload recycle-spd-n1000 --seed 1 \\
        --seconds 30 --setup-repeats 3 --trace 0
"""

import os

# Pin BLAS and OpenMP before numpy loads: one caller, one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

# Library functions are looked up on their modules at call time, so that the
# traced run's wrappers are the ones called.
import dkrylov  # noqa: E402
from dkrylov import cli, deflated, operators, problems, projection, solvers  # noqa: E402

from tracing import NullTracer, OP_ID, Tracer  # noqa: E402

#: Relative residual every library op must reach on the original system.
RESIDUAL_CHECK = 1e-8
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
#: Highest tail percentile reported.  Above it, host hiccups of 1-3% of ops
#: decide the value: on a shared 2-core Xeon VM, p99 of recycle-spd-n1000
#: spread 42% between runs.
TAIL_CAP = 0.90
OUT_DIR = ROOT / ".perfbench_out"
CFG = solvers.SolveConfig(residual_tolerance=1e-10)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class PaperSweep:
    """One op is an in-process ``dkrylov run`` of the paper's experiment spec.

    The size is m=200 (n=400), not m=100: at n=200 the op is bound by the
    interpreter, whose speed on a shared host drifts by a third between runs,
    so the median of a run moved by more than the benchmark's bound.  At
    n=400 the dense Deflator set-up is about 55% of the op, and about 40% is
    still the per-iteration solver, projector and Givens work.
    """

    name = "paper-sweep-n400"
    VARIANTS = ("minres", "rminres-explicit", "rminres-deflation-only",
                "deflated-minres", "deflated-minres-adapted-guess", "deflated-gmres")
    SCALES = {"full": (200, 8), "smoke": (20, 2)}   # m (n = 2m), pool size

    def __init__(self, seed: int, scale: str, workdir: Path):
        m, pool = self.SCALES[scale]
        spec = {
            "problem": {"generator": "symmetric-indefinite", "m": m},
            "deflation": {"eigen_indices": f"1-5,{m + 1}-{m + 5}"},
            "run": {"variants": list(self.VARIANTS), "x0": "zero"},
            "solver": {"tolerance": 1e-10},
            "output": {"format": "json"},
        }
        self.spec_path = workdir / "sweep-spec.json"
        self.spec_path.write_text(json.dumps(spec), encoding="ascii")
        self.out_path = workdir / "sweep-out.json"
        self.pool = _seeds(seed, pool)

    def run(self, problem_seed):
        self.out_path.unlink(missing_ok=True)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["run", str(self.spec_path), "--seed", str(problem_seed),
                             "--output", str(self.out_path)])
        return code, stderr.getvalue()

    def check(self, problem_seed, result):
        code, stderr = result
        if code != 0:
            return False, 0, f"exit code {code}: {stderr.strip()}"
        results = json.loads(self.out_path.read_text(encoding="ascii"))["results"]
        variants = tuple(r["variant"] for r in results)
        iterations = sum(r["iterations"] for r in results)
        if variants != self.VARIANTS:
            return False, iterations, f"variants {variants}"
        statuses = {r["variant"]: r["status"] for r in results if r["status"] != "converged"}
        if statuses:
            return False, iterations, f"not converged: {statuses}"
        return True, iterations, ""


class OneshotCg:
    """One op is ``run_method(DEFLATED_CG, ...)``, which builds a new Deflator."""

    name = "oneshot-spd-n600"
    SCALES = {"full": (600, 4), "smoke": (60, 2)}   # n, pool size
    OUTLIERS = 5

    def __init__(self, seed: int, scale: str, workdir: Path):
        n, pool = self.SCALES[scale]
        self.pool = []
        for problem_seed in _seeds(seed, pool):
            problem = problems.clustered_spd_problem(n, self.OUTLIERS, problem_seed)
            basis = problems.eigenvector_basis(problem, range(1, self.OUTLIERS + 1))
            self.pool.append((problem, basis))

    def run(self, item):
        problem, basis = item
        report = deflated.run_method(deflated.MethodVariant.DEFLATED_CG,
                                     problem.a, problem.b, basis, None, CFG)
        return report.deflated_report, report.corrected_iterate

    def check(self, item, result):
        problem, _ = item
        return _check_solve(problem.a, problem.b, *result)


class RecycledCg:
    """One op solves the next right-hand side with a Deflator built once in set-up."""

    name = "recycle-spd-n1000"
    SCALES = {"full": (1000, 16), "smoke": (80, 2)}   # n, right-hand sides
    OUTLIERS = 5

    def __init__(self, seed: int, scale: str, workdir: Path):
        n, pool = self.SCALES[scale]
        problem_seed, rhs_seed = _seeds(seed, 2)
        problem = problems.clustered_spd_problem(n, self.OUTLIERS, problem_seed)
        basis = problems.eigenvector_basis(problem, range(1, self.OUTLIERS + 1))
        self.a = problem.a
        self.deflator = projection.Deflator(
            problem.a, basis, projection.GalerkinMode.RESIDUAL_ORTHOGONAL)
        self.op = operators.deflated_operator(self.deflator, "left")
        rng = np.random.default_rng(rhs_seed)
        self.pool = []
        for _ in range(pool):
            b = rng.standard_normal(n).astype(np.complex128)
            self.pool.append(b / np.linalg.norm(b))
        self.x0 = np.zeros(n, dtype=np.complex128)

    def run(self, b):
        d = self.deflator
        x0 = d.initial_correction(self.x0, b)
        report = solvers.cg_solve(self.op, d.project_residual(b), x0, CFG)
        return report, d.correct_iterate(report.final_iterate, b)

    def check(self, b, result):
        return _check_solve(self.a, b, *result)


def _check_solve(a, b, report, x):
    iterations = report.iterations_used
    if not report.converged:
        return False, iterations, f"status {report.status.value}"
    rel = float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))
    if not rel <= RESIDUAL_CHECK:
        return False, iterations, f"relative residual {rel:.3e} > {RESIDUAL_CHECK:g}"
    return True, iterations, ""


WORKLOADS = {w.name: w for w in (PaperSweep, OneshotCg, RecycledCg)}


def attempt(workload, item, tracer):
    """Run one op; return its wall time in ns and (ok, iterations, reason)."""
    t0 = time.perf_counter_ns()
    span = tracer.open(OP_ID)
    try:
        result = workload.run(item)
    except Exception:  # a raising op is a failed op, and the loop goes on
        tracer.close(span)
        elapsed = time.perf_counter_ns() - t0
        return elapsed, (False, 0, traceback.format_exc())
    tracer.close(span)
    elapsed = time.perf_counter_ns() - t0
    try:
        return elapsed, workload.check(item, result)
    except Exception:
        return elapsed, (False, 0, traceback.format_exc())


def blas_info() -> dict:
    """BLAS library, version and live thread count of numpy's and scipy's OpenBLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    threads[Path(path).name] = int(fn())
                    break
    return {"numpy_blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-repeats", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not Path(dkrylov.__file__).resolve().is_relative_to(SRC):
        print(f"error: dkrylov imported from {dkrylov.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    cls = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        setup_times = []
        workload = None
        for _ in range(args.setup_repeats):
            workload = None
            gc.collect()
            t0 = time.perf_counter()
            workload = cls(args.seed, args.scale, Path(tmp))
            attempt(workload, workload.pool[0], tracer)   # warm-up, not counted
            setup_times.append(time.perf_counter() - t0)

        gc.collect()
        pool = workload.pool
        times, iterations, failures = [], [], []
        first_pass: list[int] = []
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i < len(pool) or time.perf_counter() < deadline:
            tracer.op_id = i
            elapsed, (ok, iters, reason) = attempt(workload, pool[i % len(pool)], tracer)
            tracer.op_id = -1
            if i < len(pool):
                first_pass.append(iters)
            elif ok and iters != first_pass[i % len(pool)]:
                ok, reason = False, (f"iterations {iters} differ from "
                                     f"{first_pass[i % len(pool)]} on the first pass")
            times.append(elapsed)
            iterations.append(iters)
            if not ok:
                failures.append(reason)
            i += 1

    whole = len(times) - len(times) % len(pool)
    iters_per_op = sum(iterations[:whole]) / whole
    samples = sorted(times)
    n = len(samples)
    tail_index = n - 1
    if n > TAIL_BEYOND:
        tail_index = min(n - 1 - TAIL_BEYOND, int(TAIL_CAP * n) - 1)
    ms = 1e-6
    metrics = {
        "op_ms_p50": statistics.median(samples) * ms,
        "op_ms_tail": samples[tail_index] * ms,
        "ops_per_s": (n - len(failures)) / (sum(samples) * 1e-9),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iters_per_op": iters_per_op,
    }
    info = {
        "op_ms_tail_percentile": 100.0 * (tail_index + 1) / n,
        "samples": n,
        "samples_beyond_tail": n - 1 - tail_index,
        "setup_s_samples": setup_times,
        "whole_passes": whole // len(pool),
        "pool_size": len(pool),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        **blas_info(),
    }
    layers = None
    if args.trace:
        layers = tracer.layer_metrics(sum(iterations) / n)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
        info["absent"] = tracer.absent
    if failures:
        print(f"{len(failures)} of {n} ops failed; first: {failures[0]}", file=sys.stderr)
    print(json.dumps({"attempted": n, "failed": len(failures), "metrics": metrics,
                      "layers": layers, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
