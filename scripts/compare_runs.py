"""Compare every method variant's runs between this checkout and another one.

    python scripts/compare_runs.py OTHER_CHECKOUT [--equivalence SEED:COUNT ...]
                                   [--ill-conditioned]
    python scripts/compare_runs.py OTHER_CHECKOUT --cli
    python scripts/compare_runs.py OTHER_CHECKOUT --time

OTHER_CHECKOUT is a second checkout of the repository, typically of the
parent commit (``git clone . ../parent && git -C ../parent checkout HEAD~1``).
Each checkout runs in its own process, which imports ``dkrylov`` from its
own ``src/`` and whose BLAS thread variables (:data:`THREAD_VARIABLES`) are
all pinned to 1, because a seeded problem's matrix depends on the thread
count in its last bits; the output names the count each process ran with.
Both run all eight variants under ``SolveConfig()`` on these systems:

* the paper's +-sqrt(j) problem at m=50 and m=200, deflating eigenvectors
  ``1-5,m+1..m+5``;
* ``clustered_spd_problem(600)``, deflating its five outlier eigenvectors;
* ``inexact-hermitian-200``: the A of ``clustered_spd_problem(200)`` plus
  ``1e-16 * (g - g^T)``, ``g`` a standard-normal draw of ``default_rng(7)``,
  with that problem's b and eigenvectors 1-5 as the basis.  It is Hermitian
  within tolerance but not bit for bit, so set-up takes the Frobenius
  Hermitian test, the symmetrized HPD factor and the full product ``a @ x``
  that no other default system reaches;
* ``checks.equivalence_instances(SEED, COUNT)`` for each ``--equivalence``
  (default ``0:6``), complex Hermitian systems;
* with ``--ill-conditioned``, 18 real symmetric systems Q diag(lam) Q^T,
  ``Q = linalg.random_orthogonal(n, seed)``, with |lam| log-spaced from 1,
  a standard-normal b drawn after the signs, each system's own tolerance
  and ``max_iterations=3000``: 12 at tolerance 1e-10 (s = 0..11,
  n = 150 + 10 s, seed 100 + s, 3 + s % 4 decades, random signs for odd s)
  and 6 at tolerance 1e-8 (s = 0..5, n = 200, seed 200 + s, 7 + s % 2
  decades, random signs for s % 3 == 1).  There MINRES's finite-precision
  behaviour decides the status.  They deflate the eigenvectors of the five
  largest |lam|, whose coupling stays far from singular.  Four more systems
  of order 35 ask for tolerances at and below eps, 1e-15 and 1e-30, on a
  spectrum of two values whose Krylov spaces are exhausted at step 2:
  ``Q = linalg.random_orthogonal(35, 0)``, random signs and then b drawn from
  ``default_rng(0)``, lam = signs (``exhausted-pm1``) or 1.5 + 0.5 signs
  (``exhausted-spd``), deflating the last five columns of Q.  Each matrix
  is ``linalg.assemble_hermitian(Q, lam)`` of the checkout that runs it.

One line per run gives the status and iteration count of each checkout (or
the exception a run raised), the final original residual ||b - A x|| of the
corrected iterate in units of tolerance * ||b|| for each checkout (so a
status that moved can be read against whether the run met its tolerance on
the original system), the largest deviation of its original and deflated
residual curves divided by ||b||, each checkout's number of products with A
and whether every report field (every ``DualReport``/``SolveReport`` field,
iterate, diagnostics entry and the deflator's ``a_hermitian``,
``apply_counts``, ``w`` and coupling matrix) is equal under
``np.array_equal`` with the same dtype.  The summary then lists, for each
variant with a differing run, the names of every field that differs in any
of its runs, list indices folded (``report.deflated_report.iterates[*]``).
The products are those made
through a ``linalg.SquareMatrix`` (:func:`product_counter`), a block
counting one per column; the thin products that ``Deflator`` set-up forms
from the matrix directly are not among them.  Exits 1 when a status, an
iteration count or a raised exception differs, 0 otherwise.

With ``--cli`` it compares ``dkrylov run`` instead: each checkout runs the
paper's spec (all six MINRES and GMRES variants, deflating ``1-5,m+1..m+5``)
at m=50 and m=200, each with ``x0 = zero`` and ``x0 = random``, the
breakdown spec (m=50, ``breakdown_indices 1-5``, ``x0 = breakdown-guess``)
and the ``clustered-spd`` generator's default problem (n=80) with ``cg`` and
``deflated-cg``, deflating ``1-5``, each under ``--format json`` and
``--format csv``.  One line per run says
whether the exit code, standard output and standard error are equal byte for
byte; it exits 1 unless all of them are.

With ``--time`` it times the two checkouts against each other instead, in one
process whose BLAS thread variables are pinned to 1, with each checkout's
``dkrylov`` imported under its own package name.  For :data:`TIME_ROUNDS`
rounds, after :data:`WARM_UP_ROUNDS` untimed ones, it runs one op of each
checkout per workload, which checkout goes first alternating by round.  The
three workloads are those of the benchmark, so one paired run covers all of
them:

* ``paper-sweep-n400``: ``dkrylov run`` of the paper's spec at m=200 (n=400,
  the six MINRES and GMRES variants, tolerance 1e-10), problem seeds 1 to 8
  in turn;
* ``oneshot-spd-n600``: ``run_method`` of deflated CG, which builds a new
  ``Deflator``, on ``clustered_spd_problem(600, 5, seed)`` for seeds 1 to 4
  in turn, deflating the five outlier eigenvectors;
* ``recycle-spd-n1000``: deflated CG with a ``Deflator`` built once on
  ``clustered_spd_problem(1000)``, one of 16 seeded right-hand sides in turn.

Per workload it prints each checkout's median op time with its quartiles,
the median of the paired ratios (this checkout's time over the other's) and
a bootstrap 95% interval of that median from seeded resamples of the rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import importlib
import importlib.util
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE_CHECKOUT = Path(__file__).resolve().parent.parent

#: The environment variables that set a BLAS library's thread count.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _one_thread_env() -> dict:
    """This process's environment with every BLAS thread variable set to 1."""
    return {**os.environ, **dict.fromkeys(THREAD_VARIABLES, "1")}


def _threads() -> str:
    """The BLAS thread count this process was started with."""
    counts = {os.environ.get(name) for name in THREAD_VARIABLES}
    return counts.pop() if len(counts) == 1 else "mixed"


def _symmetric(name, q, lam, b, tolerance):
    """The system Q diag(lam) Q^T x = b, deflating the last five columns of Q."""
    from dkrylov import linalg

    a = linalg.assemble_hermitian(q, lam)
    settings = {"residual_tolerance": tolerance, "max_iterations": 3000}
    return name, a, b, q[:, -5:], None, settings


def _ill_conditioned(name, n, seed, decades, signs, tolerance):
    from dkrylov import linalg

    q = linalg.random_orthogonal(n, seed)
    rng = np.random.default_rng(seed)
    lam = np.logspace(0, decades, n)
    if signs:
        lam = lam * rng.choice([-1, 1], n)
    return _symmetric(name, q, lam, rng.standard_normal(n), tolerance)


def _exhausted(name, spd, tolerance):
    from dkrylov import linalg

    q = linalg.random_orthogonal(35, 0)
    rng = np.random.default_rng(0)
    signs = rng.choice([-1, 1], 35)
    lam = 1.5 + 0.5 * signs if spd else signs
    return _symmetric(name, q, lam, rng.standard_normal(35), tolerance)


def _systems(equivalence, ill_conditioned):
    """(name, a, b, u, x0, SolveConfig settings) of every compared system."""
    from dkrylov import checks, problems

    for m in (50, 200):
        p = problems.symmetric_indefinite_problem(m, seed=0)
        u = problems.eigenvector_basis(p, list(range(1, 6)) + list(range(m + 1, m + 6)))
        yield f"paper-m{m}", p.a, p.b, u, None, {}
    p = problems.clustered_spd_problem(600)
    yield "clustered-spd-600", p.a, p.b, problems.eigenvector_basis(p, range(1, 6)), None, {}
    p = problems.clustered_spd_problem(200)
    g = np.random.default_rng(7).standard_normal((200, 200))
    yield ("inexact-hermitian-200", p.a + 1e-16 * (g - g.T), p.b,
           problems.eigenvector_basis(p, range(1, 6)), None, {})
    for seed, count in equivalence:
        for i, (a, b, u, x0) in enumerate(checks.equivalence_instances(seed, count)):
            yield f"equivalence-{seed}-{i}", a, b, u, x0, {}
    if ill_conditioned:
        for s in range(12):
            yield _ill_conditioned(f"ill-1e-10-{s}", 150 + 10 * s, 100 + s, 3 + s % 4,
                                   s % 2 == 1, 1e-10)
        for s in range(6):
            yield _ill_conditioned(f"ill-1e-8-{s}", 200, 200 + s, 7 + s % 2, s % 3 == 1, 1e-8)
        for kind in ("pm1", "spd"):
            for tolerance in (1e-15, 1e-30):
                yield _exhausted(f"exhausted-{kind}-{tolerance:g}", kind == "spd", tolerance)


def _flatten(obj, name, out):
    """Every leaf of a report as ``out[path] = value``."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _flatten(getattr(obj, f.name), f"{name}.{f.name}", out)
    elif hasattr(obj, "apply_counts"):  # a Deflator
        for attr in ("a_hermitian", "apply_counts", "w", "coupling"):
            _flatten(getattr(obj, attr), f"{name}.{attr}", out)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            _flatten(obj[key], f"{name}[{key}]", out)
    elif isinstance(obj, (list, tuple)):
        out[f"{name}.len"] = len(obj)
        for i, item in enumerate(obj):
            _flatten(item, f"{name}[{i}]", out)
    elif isinstance(obj, enum.Enum):
        out[name] = obj.value
    elif obj is None or isinstance(obj, (str, bool, int, float, complex, np.ndarray, np.generic)):
        out[name] = obj
    else:
        out[name] = repr(obj)


@contextlib.contextmanager
def product_counter(square_matrix):
    """Count the products with A of every ``square_matrix`` (a checkout's
    ``linalg.SquareMatrix``) built inside the block: ``counter[0]`` is the
    number of columns multiplied through its ``product``, a vector counting
    one and an n-by-k block k.  The class is restored on exit."""
    init, counter = square_matrix.__init__, [0]

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        product = self.product

        def counted(x):
            counter[0] += 1 if np.ndim(x) == 1 else np.shape(x)[1]
            return product(x)
        self.product = counted

    square_matrix.__init__ = counted_init
    try:
        yield counter
    finally:
        square_matrix.__init__ = init


def collect(equivalence, ill_conditioned) -> dict:
    """Outcome of every run in this process's ``dkrylov``, keyed by run."""
    from dkrylov import MethodVariant, SolveConfig, linalg, run_method

    outcomes = {}
    with product_counter(linalg.SquareMatrix) as products:
        for system, a, b, u, x0, settings in _systems(equivalence, ill_conditioned):
            cfg = SolveConfig(**settings)
            for variant in MethodVariant:
                key = (system, variant.value)
                products[0] = 0
                try:
                    report = run_method(variant, a, b, u, x0, cfg)
                except Exception as exc:  # the type is the outcome
                    outcomes[key] = {"raised": type(exc).__name__, "products": products[0]}
                    continue
                fields = {}
                _flatten(report, "report", fields)
                b_norm = float(np.linalg.norm(b))
                residual = float(np.linalg.norm(b - a @ report.corrected_iterate))
                outcomes[key] = {"b_norm": b_norm, "fields": fields, "products": products[0],
                                 "final": residual / (cfg.residual_tolerance * b_norm)}
    return outcomes


def _same(x, y) -> bool:
    if isinstance(x, (np.ndarray, np.generic)) or isinstance(y, (np.ndarray, np.generic)):
        x, y = np.asarray(x), np.asarray(y)
        if x.dtype != y.dtype:
            return False
        return bool(np.array_equal(x, y, equal_nan=x.dtype.kind in "fc"))
    return type(x) is type(y) and (x == y or x != x and y != y)


def _curve_deviation(this, other) -> float:
    worst = 0.0
    for name in ("report.original_residual_norms", "report.deflated_report.residual_norms"):
        x, y = this["fields"][name], other["fields"][name]
        k = min(len(x), len(y))
        if k:
            worst = max(worst, float(np.max(np.abs(x[:k] - y[:k]))))
    return worst / this["b_norm"]


def _final(outcome) -> str:
    return "-" if "raised" in outcome else f"{outcome['final']:.2g}"


def _summary(outcome) -> str:
    if "raised" in outcome:
        return f"raised {outcome['raised']}"
    fields = outcome["fields"]
    return f"{fields['report.deflated_report.status']} in {fields['report.deflated_report.iterations_used']}"


def fold_indices(name: str) -> str:
    """A field name with every list index replaced by ``*``."""
    return re.sub(r"\[\d+\]", "[*]", name)


def compare(this: dict, other: dict, threads: tuple) -> int:
    mismatches = 0
    equal_runs = 0
    worst = 0.0
    changed = {}    # variant -> the folded names of its differing fields
    print(f"BLAS threads: this {threads[0]}, other {threads[1]}")
    print(f"{'system':<20} {'variant':<30} {'this':<22} {'other':<22} "
          f"{'res/tol':>8} {'other':>8} {'curve dev':>9} {'A products':>11}  fields")
    for key in this:
        a, b = this[key], other[key]
        a_sum, b_sum = _summary(a), _summary(b)
        mismatches += a_sum != b_sum
        if "raised" in a or "raised" in b:
            dev, equal = "-", "equal" if a_sum == b_sum else "DIFFER"
            equal_runs += a_sum == b_sum
        else:
            deviation = _curve_deviation(a, b)
            worst = max(worst, deviation)
            dev = f"{deviation:.1e}"
            names = set(a["fields"]) | set(b["fields"])
            differ = sorted(n for n in names if n not in a["fields"] or n not in b["fields"]
                            or not _same(a["fields"][n], b["fields"][n]))
            equal_runs += not differ
            if differ:
                changed.setdefault(key[1], set()).update(map(fold_indices, differ))
            equal = "equal" if not differ else f"{len(differ)} differ, e.g. {differ[0]}"
        flag = "" if a_sum == b_sum else "  <-- MISMATCH"
        counts = f"{a['products']}/{b['products']}"
        print(f"{key[0]:<20} {key[1]:<30} {a_sum:<22} {b_sum:<22} "
              f"{_final(a):>8} {_final(b):>8} {dev:>9} {counts:>11}  {equal}{flag}")
    print(f"{len(this)} runs: {mismatches} with a different status, iteration count or "
          f"exception; {equal_runs} with every field equal; largest curve deviation "
          f"{worst:.2e} * ||b||; products with A: this "
          f"{sum(r['products'] for r in this.values())}, "
          f"other {sum(r['products'] for r in other.values())}")
    for variant, names in changed.items():
        print(f"fields that differ in {variant}: {', '.join(sorted(names))}")
    return 1 if mismatches else 0


def _run_checkout(checkout: Path, equivalence, ill_conditioned, out: Path) -> tuple:
    """``(outcomes, BLAS thread count)`` of ``collect`` in ``checkout``."""
    subprocess.run([sys.executable, __file__, "--collect", str(checkout), str(out),
                    "--equivalence", *(f"{s}:{c}" for s, c in equivalence),
                    *(["--ill-conditioned"] if ill_conditioned else [])],
                   check=True, env=_one_thread_env())
    with open(out, "rb") as fh:
        return pickle.load(fh)


#: Runs ``dkrylov``'s command line from the ``src`` directory given as its
#: first argument, with the rest of the arguments.
_CLI = ("import sys; src = sys.argv.pop(1); sys.path.insert(0, src); import dkrylov; "
        "assert dkrylov.__file__.startswith(src), dkrylov.__file__; "
        "from dkrylov.cli import main; sys.exit(main())")

SIX_VARIANTS = ["minres", "rminres-explicit", "rminres-deflation-only", "deflated-minres",
                "deflated-minres-adapted-guess", "deflated-gmres"]


def _cli_specs():
    """(name, spec) of every ``dkrylov run`` that ``--cli`` compares."""
    for m in (50, 200):
        for x0 in ("zero", "random"):
            yield f"paper-m{m}-{x0}", {
                "problem": {"generator": "symmetric-indefinite", "m": m},
                "deflation": {"eigen_indices": f"1-5,{m + 1}-{m + 5}"},
                "run": {"variants": SIX_VARIANTS, "x0": x0}}
    yield "breakdown-m50", {
        "problem": {"generator": "symmetric-indefinite", "m": 50},
        "deflation": {"breakdown_indices": "1-5"},
        "run": {"variants": SIX_VARIANTS, "x0": "breakdown-guess"}}
    yield "clustered-spd", {
        "problem": {"generator": "clustered-spd"},
        "deflation": {"eigen_indices": "1-5"},
        "run": {"variants": ["cg", "deflated-cg"]}}


def compare_cli(other: Path) -> int:
    """Run every ``--cli`` spec in both checkouts; 1 unless all outputs agree."""
    differ = 0
    print("BLAS threads: 1")
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in _cli_specs():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(spec), encoding="ascii")
            for fmt in ("json", "csv"):
                runs = [subprocess.run([sys.executable, "-c", _CLI, str(checkout / "src"),
                                        "run", str(path), "--format", fmt],
                                       capture_output=True, env=_one_thread_env())
                        for checkout in (HERE_CHECKOUT, other.resolve())]
                this, that = runs
                same = {"exit code": this.returncode == that.returncode,
                        "stdout": this.stdout == that.stdout,
                        "stderr": this.stderr == that.stderr}
                differ += not all(same.values())
                verdict = ("equal" if all(same.values()) else
                           "DIFFER in " + ", ".join(k for k, v in same.items() if not v))
                print(f"{name:<20} {fmt:<5} exit {this.returncode}/{that.returncode} "
                      f"stdout {len(this.stdout)} bytes  {verdict}")
    print(f"{differ} of the dkrylov runs differ")
    return 1 if differ else 0


#: Timed rounds of ``--time``, and the untimed rounds before them.
TIME_ROUNDS = 64
WARM_UP_ROUNDS = 2
#: Bootstrap resamples of the paired ratios, and the seed that draws them.
RESAMPLES = 2000
RESAMPLE_SEED = 0


def paired_summary(this, other) -> dict:
    """Quartiles (25%, median, 75%) of each side's times, the median of the
    paired ratios this / other and the 2.5% and 97.5% percentiles of that
    median over :data:`RESAMPLES` seeded bootstrap resamples of the pairs."""
    this, other = np.asarray(this, dtype=float), np.asarray(other, dtype=float)
    ratios = this / other
    picks = np.random.default_rng(RESAMPLE_SEED).integers(
        0, len(ratios), (RESAMPLES, len(ratios)))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return {"this": np.percentile(this, [25, 50, 75]),
            "other": np.percentile(other, [25, 50, 75]),
            "ratio": float(np.median(ratios)), "interval": (float(low), float(high))}


def _import_as(name: str, checkout: Path):
    """``checkout``'s ``dkrylov`` package, imported as the package ``name``."""
    init = checkout / "src" / "dkrylov" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _timed_ops(name: str, checkout: Path, workdir: Path) -> dict:
    """``{workload: op}`` of one checkout; ``op(round)`` runs one op."""
    package = _import_as(name, checkout)
    cli = importlib.import_module(f"{name}.cli")
    spec = {"problem": {"generator": "symmetric-indefinite", "m": 200},
            "deflation": {"eigen_indices": "1-5,201-205"},
            "run": {"variants": SIX_VARIANTS, "x0": "zero"},
            "solver": {"tolerance": 1e-10}, "output": {"format": "json"}}
    spec_path, out = workdir / f"{name}.json", workdir / f"{name}-out.json"
    spec_path.write_text(json.dumps(spec), encoding="ascii")

    def sweep(r):
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["run", str(spec_path), "--seed", str(1 + r % 8), "--output", str(out)])

    oneshot_pool = []
    for seed in range(1, 5):
        problem = package.clustered_spd_problem(600, 5, seed)
        oneshot_pool.append((problem.a, problem.b,
                             package.eigenvector_basis(problem, range(1, 6))))
    cfg = package.SolveConfig(residual_tolerance=1e-10)

    def oneshot(r):
        a, b, u = oneshot_pool[r % len(oneshot_pool)]
        package.run_method(package.MethodVariant.DEFLATED_CG, a, b, u, None, cfg)

    problem = package.clustered_spd_problem(1000, 5, 1)
    d = package.Deflator(problem.a, package.eigenvector_basis(problem, range(1, 6)),
                         package.GalerkinMode.RESIDUAL_ORTHOGONAL)
    op = package.deflated_operator(d, "left")
    rng = np.random.default_rng(1)
    pool = [b / np.linalg.norm(b) for b in rng.standard_normal((16, 1000)).astype(complex)]

    def recycle(r):
        b = pool[r % len(pool)]
        x0 = d.initial_correction(np.zeros(1000, dtype=complex), b)
        d.correct_iterate(package.cg_solve(op, d.project_residual(b), x0, cfg).final_iterate, b)

    return {"paper-sweep-n400": sweep, "oneshot-spd-n600": oneshot,
            "recycle-spd-n1000": recycle}


def compare_time(other: Path) -> int:
    """Time both checkouts' ops in alternation and print the paired ratios."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = [_timed_ops(name, checkout, Path(tmp)) for name, checkout in
                 (("dkrylov_this", HERE_CHECKOUT), ("dkrylov_other", other.resolve()))]
        times = {workload: ([], []) for workload in sides[0]}
        for r in range(WARM_UP_ROUNDS + TIME_ROUNDS):
            for workload, pair in times.items():
                for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    sides[side][workload](r)
                    if r >= WARM_UP_ROUNDS:
                        pair[side].append(time.perf_counter() - start)
    print(f"BLAS threads: {_threads()}; {TIME_ROUNDS} rounds after {WARM_UP_ROUNDS} "
          "untimed; ms as 25% / median / 75%")
    print(f"{'workload':<20} {'this':>24} {'other':>24} {'ratio':>6}  95% interval")
    for workload, (this, that) in times.items():
        summary = paired_summary(this, that)
        low, high = summary["interval"]
        this_ms, that_ms = ("/".join(f"{1e3 * t:.2f}" for t in summary[side])
                            for side in ("this", "other"))
        print(f"{workload:<20} {this_ms:>24} {that_ms:>24} {summary['ratio']:>6.3f}  "
              f"{low:.3f} to {high:.3f}")
    return 0


def _equivalence_spec(text: str) -> tuple[int, int]:
    seed, count = text.split(":")
    return int(seed), int(count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, nargs="?", help="the checkout to compare against")
    parser.add_argument("--equivalence", type=_equivalence_spec, nargs="+", default=[(0, 6)],
                        metavar="SEED:COUNT")
    parser.add_argument("--ill-conditioned", action="store_true",
                        help="also compare the 22 ill-conditioned and exhausted real "
                             "symmetric systems")
    parser.add_argument("--cli", action="store_true",
                        help="compare dkrylov run output byte for byte instead")
    parser.add_argument("--time", action="store_true",
                        help="time both checkouts' ops in one process instead")
    parser.add_argument("--collect", nargs=2, metavar=("CHECKOUT", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        checkout, out = Path(args.collect[0]).resolve(), args.collect[1]
        sys.path.insert(0, str(checkout / "src"))
        import dkrylov
        if not Path(dkrylov.__file__).resolve().is_relative_to(checkout):
            raise SystemExit(f"imported dkrylov from {dkrylov.__file__}, not {checkout}")
        with open(out, "wb") as fh:
            pickle.dump((collect(args.equivalence, args.ill_conditioned), _threads()), fh)
        return 0
    if args.other is None:
        parser.error("the other checkout is required")
    if args.cli:
        return compare_cli(args.other)
    if args.time:
        if _threads() != "1":   # numpy is loaded: pin the threads in a new process
            argv = sys.argv[1:] if argv is None else argv
            return subprocess.run([sys.executable, __file__, *argv],
                                  env=_one_thread_env()).returncode
        return compare_time(args.other)
    with tempfile.TemporaryDirectory() as tmp:
        this, this_threads = _run_checkout(HERE_CHECKOUT, args.equivalence,
                                           args.ill_conditioned, Path(tmp) / "this.pkl")
        other, other_threads = _run_checkout(args.other.resolve(), args.equivalence,
                                             args.ill_conditioned, Path(tmp) / "other.pkl")
    return compare(this, other, (this_threads, other_threads))


if __name__ == "__main__":
    sys.exit(main())
