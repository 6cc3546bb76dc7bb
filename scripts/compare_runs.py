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
* ``dominant-1e5``: Q diag(lam) Q^T, ``Q = linalg.random_orthogonal(200,
  300)``, b drawn from ``default_rng(300)``, lam = linspace(1, 2, 195)
  followed by 1e5 (1..5), deflating the last five columns of Q, so the
  projected operators are far smaller than A;
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
  (``exhausted-spd``), deflating the last five columns of Q.  Last comes
  ``dominant-1e6``, ``dominant-1e5`` with 1e6 (1..5) in place of 1e5
  (1..5), where CG's residual runs away after its smoothed companion meets
  the tolerance.  Each matrix is ``linalg.assemble_hermitian(Q, lam)`` of
  the checkout that runs it.

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
through a ``linalg.SquareMatrix``, a block counting one per column, and
next to them those that ``Deflator`` set-up forms from the matrix directly
(:func:`product_counter`).  Exits 1 when a status, an iteration count or a
raised exception differs, 0 otherwise.

With ``--cli`` it compares the command line instead.  Each checkout runs
``dkrylov run`` on the paper's spec (all six MINRES and GMRES variants,
deflating ``1-5,m+1..m+5``) at m=50 and m=200, each with ``x0 = zero`` and
``x0 = random``, the breakdown spec (m=50, ``breakdown_indices 1-5``,
``x0 = breakdown-guess``) and the ``clustered-spd`` generator's default
problem (n=80) with ``cg`` and ``deflated-cg``, deflating ``1-5``, and
the ``file`` generator on Matrix Market files of the m=50 paper problem's A
and b and of its eigenvector basis ``1-5,51-55``, which this checkout
writes, with all six variants from its zero x0, each with ``[output]
format`` json and csv in its spec; ``dkrylov diagnose`` on the
m=50 paper problem with ``eigen_indices 1-5,51-55`` and with
``breakdown_indices 1-5``; and ``dkrylov check SUITE --seed 0`` for each of
the five suites (:data:`CHECK_SUITES`).  One line per command says whether
the exit code, standard output and standard error are equal byte for byte;
it exits 1 unless all of them are.

With ``--time`` it times the two checkouts with the benchmark itself.  Each
run is one fresh process of the checkout's own ``BENCHMARK.json`` command,
``--workload W --seed 1 --seconds 5 --trace 0``, started in that checkout;
the workload processes pin their own BLAS threads.  It runs
:data:`TIME_PAIRS` pairs of runs per workload of ``BENCHMARK.json``, which
checkout goes first alternating by pair, about 6 minutes for the three
workloads.  Every end-to-end metric is judged by its ``better`` and
``bound`` (:func:`judge`): a gain when this checkout wins at least 9 of 10
pairs, its median is better by more than the other checkout's quartile
distance and it fails no more ops; worse when its median is worse than the
other's by more than the bound, relative to the other's median; unresolved
when the other's quartile distance exceeds the bound; held otherwise.  Per
workload it prints each checkout's attempted and failed ops, and per metric
both medians, the other's quartiles, the pairs won and the verdict.  It
exits 2, before any run, when the checkouts' ``perfbench/workload.py``
differ, so that the pairs never time two definitions of a workload, and 1
when a run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
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


def _dominant(name, scale):
    """Eigenvalues linspace(1, 2, 195) and then ``scale`` (1..5)."""
    from dkrylov import linalg

    lam = np.concatenate([np.linspace(1, 2, 195), scale * np.arange(1, 6)])
    return _symmetric(name, linalg.random_orthogonal(200, 300), lam,
                      np.random.default_rng(300).standard_normal(200), 1e-10)


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
    yield _dominant("dominant-1e5", 1e5)
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
        yield _dominant("dominant-1e6", 1e6)


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
def product_counter(square_matrix, deflator):
    """Count the products with A made inside the block, a vector counting one
    and an n-by-k block k.  ``counter["products"]`` counts those made through
    the ``product`` of every ``square_matrix`` (a checkout's
    ``linalg.SquareMatrix``); ``counter["setup"]`` counts those that every
    ``deflator`` (its ``projection.Deflator``) set-up forms with ``@`` on the
    array: k for w = A u, and k more for B^H A, which is the view w^H, no
    product, only in residual-orthogonal mode on an A equal to A^H bit for
    bit.  Both classes are restored on exit."""
    matrix_init, deflator_init = square_matrix.__init__, deflator.__init__
    counter = {"products": 0, "setup": 0}

    def counted_matrix_init(self, *args, **kwargs):
        matrix_init(self, *args, **kwargs)
        product = self.product

        def counted(x):
            counter["products"] += 1 if np.ndim(x) == 1 else np.shape(x)[1]
            return product(x)
        self.product = counted

    def counted_deflator_init(self, a, u, mode):
        deflator_init(self, a, u, mode)
        view = (mode.name == "RESIDUAL_ORTHOGONAL"
                and np.array_equal(self.a, self.a.conj().T))
        counter["setup"] += self.k if view else 2 * self.k

    square_matrix.__init__, deflator.__init__ = counted_matrix_init, counted_deflator_init
    try:
        yield counter
    finally:
        square_matrix.__init__, deflator.__init__ = matrix_init, deflator_init


def collect(equivalence, ill_conditioned) -> dict:
    """Outcome of every run in this process's ``dkrylov``, keyed by run."""
    from dkrylov import MethodVariant, SolveConfig, linalg, projection, run_method

    outcomes = {}
    with product_counter(linalg.SquareMatrix, projection.Deflator) as counter:
        for system, a, b, u, x0, settings in _systems(equivalence, ill_conditioned):
            cfg = SolveConfig(**settings)
            for variant in MethodVariant:
                key = (system, variant.value)
                counter.update(products=0, setup=0)
                try:
                    report = run_method(variant, a, b, u, x0, cfg)
                except Exception as exc:  # the type is the outcome
                    outcomes[key] = {"raised": type(exc).__name__, **counter}
                    continue
                fields = {}
                _flatten(report, "report", fields)
                b_norm = float(np.linalg.norm(b))
                residual = float(np.linalg.norm(b - a @ report.corrected_iterate))
                outcomes[key] = {"b_norm": b_norm, "fields": fields, **counter,
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
    print(f"{'system':<20} {'variant':<30} {'this':<22} {'other':<22} {'res/tol':>8} "
          f"{'other':>8} {'curve dev':>9} {'A products':>11} {'set-up':>7}  fields")
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
        counts, setup = (f"{a[name]}/{b[name]}" for name in ("products", "setup"))
        print(f"{key[0]:<20} {key[1]:<30} {a_sum:<22} {b_sum:<22} "
              f"{_final(a):>8} {_final(b):>8} {dev:>9} {counts:>11} {setup:>7}  {equal}{flag}")
    this_total, other_total = ({name: sum(r[name] for r in runs.values())
                                for name in ("products", "setup")} for runs in (this, other))
    print(f"{len(this)} runs: {mismatches} with a different status, iteration count or "
          f"exception; {equal_runs} with every field equal; largest curve deviation "
          f"{worst:.2e} * ||b||; products with A: this {this_total['products']}, "
          f"other {other_total['products']}; in Deflator set-up: this {this_total['setup']}, "
          f"other {other_total['setup']}")
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


#: The ``dkrylov check`` suites that ``--cli`` compares, every one of them.
CHECK_SUITES = ("projections", "equivalence", "spectrum", "breakdown", "status")


def _cli_specs(tmp: Path):
    """(name, spec) of every ``dkrylov run`` that ``--cli`` compares, writing
    the Matrix Market files of the ``file`` spec to ``tmp``."""
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
    src = str(HERE_CHECKOUT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from dkrylov import io, problems
    p = problems.symmetric_indefinite_problem(50, seed=0)
    for name, value in (("a", p.a), ("b", p.b),
                        ("u", problems.eigenvector_basis(p, [*range(1, 6), *range(51, 56)]))):
        io.write_matrix_market(tmp / f"{name}.mtx", value)
    yield "file-m50", {
        "problem": {"generator": "file", "a": str(tmp / "a.mtx"), "b": str(tmp / "b.mtx")},
        "deflation": {"file": str(tmp / "u.mtx")},
        "run": {"variants": SIX_VARIANTS}}


def _cli_commands(tmp: Path):
    """(name, arguments) of every ``dkrylov`` command that ``--cli`` compares,
    writing the specs and files they read to ``tmp``: each ``run`` spec in both
    output formats, ``diagnose`` on the m=50 paper problem with its eigenvector and
    its breakdown-prone basis, and every check suite at seed 0."""
    def spec_file(name, spec):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="ascii")
        return str(path)

    for name, spec in _cli_specs(tmp):
        for fmt in ("json", "csv"):
            yield f"run {name} {fmt}", ["run", spec_file(f"{name}-{fmt}", {
                **spec, "output": {"format": fmt}})]
    for name, deflation in (("eigen-m50", {"eigen_indices": "1-5,51-55"}),
                            ("breakdown-m50", {"breakdown_indices": "1-5"})):
        yield f"diagnose {name}", ["diagnose", spec_file(f"diagnose-{name}", {
            "problem": {"generator": "symmetric-indefinite", "m": 50}, "deflation": deflation})]
    for suite in CHECK_SUITES:
        yield f"check {suite}", ["check", suite, "--seed", "0"]


def compare_cli(other: Path) -> int:
    """Run every ``--cli`` command in both checkouts; 1 unless all outputs agree."""
    differ = 0
    print("BLAS threads: 1")
    with tempfile.TemporaryDirectory() as tmp:
        for name, arguments in _cli_commands(Path(tmp)):
            this, that = [subprocess.run([sys.executable, "-c", _CLI, str(checkout / "src"),
                                          *arguments],
                                         capture_output=True, env=_one_thread_env())
                          for checkout in (HERE_CHECKOUT, other.resolve())]
            same = {"exit code": this.returncode == that.returncode,
                    "stdout": this.stdout == that.stdout,
                    "stderr": this.stderr == that.stderr}
            differ += not all(same.values())
            verdict = ("equal" if all(same.values()) else
                       "DIFFER in " + ", ".join(k for k, v in same.items() if not v))
            print(f"{name:<32} exit {this.returncode}/{that.returncode} "
                  f"stdout {len(this.stdout)} bytes  {verdict}")
    print(f"{differ} of the dkrylov commands differ")
    return 1 if differ else 0


#: Pairs of runs per workload of ``--time``, and each run's seed and seconds.
TIME_PAIRS = 10
TIME_SEED = 1
TIME_SECONDS = 5


def judge(this, other, better: str, bound: float, more_failures: bool = False) -> dict:
    """The verdict on one end-to-end metric from paired runs, ``this[i]``
    against ``other[i]``, with the metric's ``better`` ("lower" or "higher")
    and relative ``bound``: "gain" when this side wins at least nine tenths
    of the pairs, ties counting for neither, its median is better by more
    than the other side's quartile distance and it has no
    ``more_failures``; else "worse" when its median is worse by more than
    ``bound`` times the other's; else "unresolved" when the other's quartile
    distance is more than that; else "held".  Returns this median, the
    other's quartiles (25%, median, 75%), the pairs won and the verdict."""
    this, other = np.asarray(this, dtype=float), np.asarray(other, dtype=float)
    sign = 1.0 if better == "higher" else -1.0
    wins = int(np.sum(sign * (this - other) > 0))
    low, median, high = np.percentile(other, [25, 50, 75])
    gap = sign * (np.median(this) - median)       # > 0: this side is better
    if wins >= 0.9 * len(this) and gap > high - low and not more_failures:
        verdict = "gain"
    elif -gap > bound * abs(median):
        verdict = "worse"
    elif high - low > bound * abs(median):
        verdict = "unresolved"
    else:
        verdict = "held"
    return {"this": float(np.median(this)), "other": (low, median, high), "wins": wins,
            "verdict": verdict}


def _benchmark_run(checkout: Path, workload: str) -> dict:
    """The result object that one run of ``checkout``'s benchmark command
    prints last; raises ``CalledProcessError`` when the run fails."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run([*spec["command"], "--workload", workload, "--seed", str(TIME_SEED),
                           "--seconds", str(TIME_SECONDS), "--trace", "0"],
                          cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compare_time(this: Path, other: Path) -> int:
    """Run both checkouts' benchmark in alternation and judge every end-to-end
    metric (:func:`judge`); 2 when their workloads differ, 1 when a run fails."""
    checkouts = {"this": this.resolve(), "other": other.resolve()}
    if len({(c / "perfbench" / "workload.py").read_bytes() for c in checkouts.values()}) > 1:
        print("perfbench/workload.py differs between the checkouts: their runs would "
              "not time the same ops", file=sys.stderr)
        return 2
    spec = json.loads((checkouts["this"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {(workload, side): [] for workload in workloads for side in checkouts}
    for pair in range(TIME_PAIRS):
        for workload in workloads:
            for side in (("this", "other") if pair % 2 == 0 else ("other", "this")):
                try:
                    runs[workload, side].append(_benchmark_run(checkouts[side], workload))
                except subprocess.CalledProcessError as exc:
                    print(f"{workload} in {checkouts[side]}: {exc}", file=sys.stderr)
                    return 1
    print(f"{TIME_PAIRS} pairs per workload, seed {TIME_SEED}, {TIME_SECONDS} s a run; "
          "'other' gives its 25% / median / 75%")
    for workload in workloads:
        attempted, failed = ({side: sum(r[key] for r in runs[workload, side])
                              for side in checkouts} for key in ("attempted", "failed"))
        print(f"{workload}: ops attempted this {attempted['this']}, other "
              f"{attempted['other']}; failed this {failed['this']}, other {failed['other']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            judged = judge(*([r["metrics"][name]["value"] for r in runs[workload, side]]
                             for side in checkouts), metric["better"], metric["bound"],
                           failed["this"] > failed["other"])
            quartiles = " / ".join(f"{q:.4g}" for q in judged["other"])
            print(f"  {name:<12} this {judged['this']:<10.4g} other {quartiles:<28} "
                  f"won {judged['wins']:>2}/{TIME_PAIRS}  {judged['verdict']}")
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
                        help="also compare the 23 ill-conditioned, exhausted and "
                             "dominant-1e6 real symmetric systems")
    parser.add_argument("--cli", action="store_true",
                        help="compare dkrylov run, diagnose and check output byte for "
                             "byte instead")
    parser.add_argument("--time", action="store_true",
                        help="run both checkouts' benchmark in alternating pairs instead")
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
        return compare_time(HERE_CHECKOUT, args.other)
    with tempfile.TemporaryDirectory() as tmp:
        this, this_threads = _run_checkout(HERE_CHECKOUT, args.equivalence,
                                           args.ill_conditioned, Path(tmp) / "this.pkl")
        other, other_threads = _run_checkout(args.other.resolve(), args.equivalence,
                                             args.ill_conditioned, Path(tmp) / "other.pkl")
    return compare(this, other, (this_threads, other_threads))


if __name__ == "__main__":
    sys.exit(main())
