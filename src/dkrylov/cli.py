"""Command-line front end: run experiments, property suites and diagnoses.

Experiment specs are declarative files, INI-style sections or the same
structure as JSON.  Convergence histories are written as CSV (one row per
variant and iteration) or JSON for external plotting; a breakdown is a
reported result, not a tool failure.  Every history of a run is divided by
one shared reference, ||b|| of the problem (1 when b = 0), so the variants
can be compared with each other; the JSON output records it as
``reference_norm``.

Exit codes: 0 completed run, 1 failed check suite, 2 spec parse error,
3 construction/setup error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as dkio
from . import linalg
from .analysis import breakdown_initial_guess, diagnose_breakdown
from .checks import SUITES, run_suite
from .deflated import PLAIN_VARIANTS, DualReport, MethodVariant, run_method
from .problems import (TestProblem, breakdown_prone_basis, clustered_spd_problem,
                       eigenvector_basis, near_invariant_problem, perturb_basis,
                       symmetric_indefinite_problem, toy_breakdown_problem)
from .solvers import SolveConfig

CSV_HEADER = "variant,iteration,rel_residual_original,rel_residual_deflated,status"

_SECTIONS = {
    "problem": {"generator", "m", "n", "outliers", "alpha", "seed",
                "a", "b", "x0", "path"},
    "deflation": {"eigen_indices", "breakdown_indices", "file",
                  "perturb_eps", "perturb_seed"},
    "run": {"variants", "x0", "x0_seed", "x0_perturbation",
            "breakdown_coefficient_seed"},
    "solver": {"tolerance", "max_iterations", "breakdown_threshold",
               "explicit_residuals", "reorthogonalize"},
    "output": {"path", "format"},
}

_GENERATORS = ("symmetric-indefinite", "clustered-spd", "toy-breakdown",
               "near-invariant", "file", "container")


class SpecError(ValueError):
    """The experiment spec file could not be parsed or validated."""


class SetupError(RuntimeError):
    """The experiment could not be constructed from a valid spec."""


@dataclass
class ExperimentSpec:
    problem: dict
    deflation: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


def parse_spec(path) -> ExperimentSpec:
    """Parse an INI or JSON spec file, rejecting unknown sections and keys."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise SpecError(f"{path}: top-level JSON value must be an object")
        sections = {name: dict(value) for name, value in raw.items()}
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise SpecError(f"{path}: invalid spec file ({exc})") from exc
        sections = {name: dict(parser.items(name)) for name in parser.sections()}

    for name, keys in sections.items():
        if name not in _SECTIONS:
            raise SpecError(f"{path}: unknown section [{name}]")
        unknown = set(keys) - _SECTIONS[name]
        if unknown:
            raise SpecError(f"{path}: unknown key(s) in [{name}]: {', '.join(sorted(unknown))}")
    if "problem" not in sections:
        raise SpecError(f"{path}: missing [problem] section")
    return ExperimentSpec(
        problem=sections.get("problem", {}),
        deflation=sections.get("deflation", {}),
        run=sections.get("run", {}),
        solver=sections.get("solver", {}),
        output=sections.get("output", {}),
    )


def _as_int(section, key, value):
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"[{section}] {key} must be an integer, got {value!r}") from exc


def _as_float(section, key, value):
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"[{section}] {key} must be a number, got {value!r}") from exc


def _as_bool(section, key, value):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "yes", "1", "on"):
        return True
    if text in ("false", "no", "0", "off"):
        return False
    raise SpecError(f"[{section}] {key} must be a boolean, got {value!r}")


def parse_index_list(text) -> list[int]:
    """Parse "1-5,51-55" or "1,2,3" into a list of 1-based indices."""
    indices: list[int] = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise SpecError(f"descending index range {part!r}")
            indices.extend(range(lo, hi + 1))
        else:
            indices.append(int(part))
    if not indices:
        raise SpecError("empty index list")
    return indices


def build_problem(spec: ExperimentSpec, seed_override=None) -> TestProblem:
    section = spec.problem
    generator = section.get("generator")
    if generator not in _GENERATORS:
        raise SpecError(f"[problem] generator must be one of {', '.join(_GENERATORS)}")
    seed = seed_override if seed_override is not None else _as_int(
        "problem", "seed", section.get("seed", 0))
    if generator == "symmetric-indefinite":
        return symmetric_indefinite_problem(_as_int("problem", "m", section.get("m", 50)), seed)
    if generator == "clustered-spd":
        return clustered_spd_problem(
            _as_int("problem", "n", section.get("n", 80)),
            _as_int("problem", "outliers", section.get("outliers", 5)),
            seed)
    if generator == "toy-breakdown":
        return toy_breakdown_problem()
    if generator == "near-invariant":
        return near_invariant_problem(_as_float("problem", "alpha", section.get("alpha", 1e-3)))
    if generator == "container":
        if "path" not in section:
            raise SpecError("[problem] container generator requires path")
        return dkio.load_problem(section["path"])
    # generator == "file": Matrix Market inputs
    if "a" not in section or "b" not in section:
        raise SpecError("[problem] file generator requires a and b")
    a = dkio.read_matrix_market(section["a"])
    b = dkio.read_matrix_market(section["b"])
    x0 = (dkio.read_matrix_market(section["x0"]) if "x0" in section
          else np.zeros(a.shape[0], dtype=np.complex128))
    return TestProblem(a=a, b=b, x0=x0, label=f"file({section['a']})", seed=seed)


def build_basis(spec: ExperimentSpec, problem: TestProblem):
    section = spec.deflation
    sources = [key for key in ("eigen_indices", "breakdown_indices", "file") if key in section]
    if len(sources) > 1:
        raise SpecError(f"[deflation] choose one basis source, got {', '.join(sources)}")
    if not sources:
        basis = problem.u
    elif sources[0] == "eigen_indices":
        basis = eigenvector_basis(problem, parse_index_list(section["eigen_indices"]))
    elif sources[0] == "breakdown_indices":
        basis = breakdown_prone_basis(problem, parse_index_list(section["breakdown_indices"]))
    else:
        basis = dkio.read_matrix_market(section["file"])
    if basis is not None and "perturb_eps" in section:
        basis = perturb_basis(
            basis,
            _as_float("deflation", "perturb_eps", section["perturb_eps"]),
            _as_int("deflation", "perturb_seed", section.get("perturb_seed", 0)),
        )
    return basis


def build_solve_config(spec: ExperimentSpec, tol_override=None, maxit_override=None) -> SolveConfig:
    section = spec.solver
    kwargs = {}
    if "tolerance" in section:
        kwargs["residual_tolerance"] = _as_float("solver", "tolerance", section["tolerance"])
    if "max_iterations" in section:
        kwargs["max_iterations"] = _as_int("solver", "max_iterations", section["max_iterations"])
    if "breakdown_threshold" in section:
        kwargs["breakdown_threshold"] = _as_float(
            "solver", "breakdown_threshold", section["breakdown_threshold"])
    if "explicit_residuals" in section:
        kwargs["explicit_residuals"] = _as_bool(
            "solver", "explicit_residuals", section["explicit_residuals"])
    if "reorthogonalize" in section:
        kwargs["reorthogonalize"] = _as_bool(
            "solver", "reorthogonalize", section["reorthogonalize"])
    if tol_override is not None:
        kwargs["residual_tolerance"] = tol_override
    if maxit_override is not None:
        kwargs["max_iterations"] = maxit_override
    try:
        return SolveConfig(**kwargs)
    except ValueError as exc:
        raise SpecError(f"[solver] {exc}") from exc


def build_variants(spec: ExperimentSpec) -> list[MethodVariant]:
    text = spec.run.get("variants")
    if not text:
        raise SpecError("[run] variants is required")
    if isinstance(text, (list, tuple)):
        names = [str(t).strip() for t in text]
    else:
        names = [t.strip() for t in str(text).split(",") if t.strip()]
    variants = []
    known = {v.value: v for v in MethodVariant}
    for name in names:
        if name not in known:
            raise SpecError(f"[run] unknown variant {name!r}; known: {', '.join(known)}")
        variants.append(known[name])
    return variants


def build_initial_guess(spec: ExperimentSpec, problem: TestProblem, basis) -> np.ndarray:
    section = spec.run
    choice = str(section.get("x0", "zero")).strip().lower()
    n = problem.dim
    seed = _as_int("run", "x0_seed", section.get("x0_seed", 0))
    if choice == "zero":
        x0 = problem.x0.copy()
    elif choice == "random":
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(n).astype(np.complex128)
    elif choice == "breakdown-guess":
        if basis is None:
            raise SpecError("[run] x0 = breakdown-guess requires a deflation basis")
        coeff_seed = _as_int("run", "breakdown_coefficient_seed",
                             section.get("breakdown_coefficient_seed", 0))
        rng = np.random.default_rng(coeff_seed)
        coeff = rng.standard_normal(basis.shape[1]).astype(np.complex128)
        x0 = breakdown_initial_guess(problem.a, problem.b, basis, coeff)
    else:
        raise SpecError(f"[run] unknown x0 choice {choice!r}")
    if "x0_perturbation" in section:
        eps = _as_float("run", "x0_perturbation", section["x0_perturbation"])
        rng = np.random.default_rng(seed + 1)
        delta = rng.standard_normal(n).astype(np.complex128)
        delta *= eps * max(1.0, linalg.vector_norm(x0)) / linalg.vector_norm(delta)
        x0 = x0 + delta
    return x0


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def reference_norm(b) -> float:
    """Shared divisor of every residual history: ||b||, or 1 when b = 0."""
    norm = linalg.vector_norm(b)
    return norm if norm > 0.0 else 1.0


def render_csv(results: list[DualReport], reference: float) -> str:
    lines = [CSV_HEADER]
    for result in results:
        status = result.status.value
        rel_orig = result.original_residual_norms / reference
        rel_defl = result.deflated_report.residual_norms / reference
        m = min(len(rel_orig), len(rel_defl))
        for i in range(m):
            lines.append(f"{result.variant.value},{i},{_fmt(rel_orig[i])},"
                         f"{_fmt(rel_defl[i])},{status}")
    return "\n".join(lines) + "\n"


def render_json(results: list[DualReport], reference: float) -> str:
    payload = []
    for result in results:
        rep = result.deflated_report
        payload.append({
            "variant": result.variant.value,
            "status": result.status.value,
            "iterations": int(rep.iterations_used),
            "breakdown_iteration": rep.breakdown_iteration,
            "relative_residuals": {
                "original": [float(v) / reference for v in result.original_residual_norms],
                "deflated": [float(v) / reference for v in rep.residual_norms],
            },
        })
    return json.dumps({"reference_norm": reference, "results": payload},
                      indent=2, sort_keys=True) + "\n"


def cmd_run(args) -> int:
    try:
        spec = parse_spec(args.spec_file)
        variants = build_variants(spec)
        cfg = build_solve_config(spec, args.tol, args.maxit)
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        problem = build_problem(spec, args.seed)
        basis = build_basis(spec, problem)
        x0 = build_initial_guess(spec, problem, basis)
        needs_basis = [v for v in variants if v not in PLAIN_VARIANTS]
        if needs_basis and basis is None:
            raise SetupError(
                f"variants {', '.join(v.value for v in needs_basis)} require a deflation basis")
        results = [run_method(variant, problem.a, problem.b, basis, x0, cfg)
                   for variant in variants]
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # construction / solver errors
        print(f"error: {exc}", file=sys.stderr)
        return 3

    fmt = args.format or spec.output.get("format", "csv")
    if fmt not in ("csv", "json"):
        print(f"error: unknown output format {fmt!r}", file=sys.stderr)
        return 2
    reference = reference_norm(problem.b)
    rendered = (render_csv(results, reference) if fmt == "csv"
                else render_json(results, reference))
    out_path = args.output or spec.output.get("path")
    if out_path:
        Path(out_path).write_text(rendered, encoding="ascii")
    else:
        sys.stdout.write(rendered)
    for result in results:
        rep = result.deflated_report
        final = result.original_residual_norms[-1]
        at_step = ("" if rep.breakdown_iteration is None
                   else f" at step {rep.breakdown_iteration}")
        print(f"{result.variant.value}: {result.status.value}{at_step} after "
              f"{rep.iterations_used} iterations (final residual "
              f"{final / reference:.3e} relative to ||b||, {final:.3e} absolute)",
              file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    try:
        report = run_suite(args.suite, args.seed if args.seed is not None else 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(rendered, encoding="ascii")
    else:
        sys.stdout.write(rendered)
    return 0 if report["passed"] else 1


def cmd_diagnose(args) -> int:
    try:
        spec = parse_spec(args.spec_file)
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        problem = build_problem(spec, args.seed)
        basis = build_basis(spec, problem)
        if basis is None:
            raise SetupError("diagnose requires a deflation basis")
        diagnosis = diagnose_breakdown(problem.a, basis)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    payload = {
        "intersection_nontrivial": diagnosis.intersection_nontrivial,
        "smallest_indicator": diagnosis.smallest_indicator,
        "largest_principal_angle_radians": diagnosis.largest_principal_angle_rad,
        "largest_principal_angle_degrees": diagnosis.largest_principal_angle_deg,
    }
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(rendered, encoding="ascii")
    else:
        sys.stdout.write(rendered)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkrylov",
        description="Deflated and augmented Krylov solvers: experiments, "
                    "property checks and breakdown diagnosis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec and write convergence histories")
    p_run.add_argument("spec_file")
    p_run.add_argument("--output", help="output file (defaults to the spec's [output] path or stdout)")
    p_run.add_argument("--format", choices=("csv", "json"))
    p_run.add_argument("--seed", type=int, help="override the problem seed")
    p_run.add_argument("--tol", type=float, help="override the residual tolerance")
    p_run.add_argument("--maxit", type=int, help="override the iteration limit")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run a property suite on seeded random instances")
    p_check.add_argument("suite", choices=SUITES)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--output")
    p_check.set_defaults(func=cmd_check)

    p_diag = sub.add_parser("diagnose", help="report the breakdown geometry of a problem/basis pair")
    p_diag.add_argument("spec_file")
    p_diag.add_argument("--seed", type=int, help="override the problem seed")
    p_diag.add_argument("--output")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
