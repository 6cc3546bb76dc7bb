"""Command-line front end: run experiments, property suites and diagnoses.

Experiment specs are declarative files, INI-style sections or the same
structure as JSON.  Convergence histories are written as CSV (one row per
variant and iteration) or JSON for external plotting; a breakdown is a
reported result, not a tool failure.  Every history of a run is divided by
one shared reference, ||b|| of the problem (1 when b = 0), so the variants
can be compared with each other; the JSON output records it as
``reference_norm``.

Every spec value is typed by one schema when the spec is read, so a bad
value exits with code 2 before any problem is built; requirements that tie
keys together are checked while the experiment is built, before any solve.

Exit codes: 0 completed run, 1 failed check suite, 2 spec parse error or an
output path in a missing directory, 3 construction/setup error or a failed
write of the output.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
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

_BOOLEANS = {"true": True, "yes": True, "1": True, "on": True,
             "false": False, "no": False, "0": False, "off": False}


class SpecError(ValueError):
    """The experiment spec file could not be parsed or validated."""


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
                raise ValueError(f"descending index range {part!r}")
            indices.extend(range(lo, hi + 1))
        else:
            indices.append(int(part))
    if not indices:
        raise ValueError("empty index list")
    return indices


def _boolean(value) -> bool:
    return value if isinstance(value, bool) else _BOOLEANS[str(value).strip().lower()]


def _variants(value) -> list[MethodVariant]:
    names = value if isinstance(value, (list, tuple)) else str(value).split(",")
    return [MethodVariant(str(name).strip()) for name in names if str(name).strip()]


def _integer(value) -> int:
    # int() would truncate 5.7 and accept True; integer strings from INI pass.
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _finite(value) -> float:
    # float() would accept True, "nan" and "inf".
    number = float(value)
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


def _choice(*names):
    return (lambda value: names[names.index(str(value).strip().lower())],
            f"one of {', '.join(names)}")


_INT = (_integer, "an integer")
_FLOAT = (_finite, "a finite number")
_BOOL = (_boolean, "a boolean")
_TEXT = (str, "a string")
_INDICES = (parse_index_list, 'ascending 1-based indices such as "1-5,51-55"')

#: Section -> key -> (function that types the value, what it expects).
_SCHEMA = {
    "problem": {"generator": _choice("symmetric-indefinite", "clustered-spd", "toy-breakdown",
                                     "near-invariant", "file", "container"),
                "m": _INT, "n": _INT, "outliers": _INT, "alpha": _FLOAT, "seed": _INT,
                "a": _TEXT, "b": _TEXT, "x0": _TEXT, "path": _TEXT},
    "deflation": {"eigen_indices": _INDICES, "breakdown_indices": _INDICES, "file": _TEXT,
                  "perturb_eps": _FLOAT, "perturb_seed": _INT},
    "run": {"variants": (_variants, "variant names from "
                         + ", ".join(v.value for v in MethodVariant)),
            "x0": _choice("zero", "random", "breakdown-guess"), "x0_seed": _INT,
            "x0_perturbation": _FLOAT, "breakdown_coefficient_seed": _INT},
    "solver": {"tolerance": _FLOAT, "max_iterations": _INT, "breakdown_threshold": _FLOAT,
               "explicit_residuals": _BOOL, "reorthogonalize": _BOOL},
    "output": {"path": _TEXT, "format": _choice("csv", "json")},
}

#: [solver] keys whose SolveConfig field has another name.
_SOLVER_FIELDS = {"tolerance": "residual_tolerance"}


def parse_spec(path) -> dict[str, dict]:
    """Parse an INI or JSON spec file into one dict of typed values per
    :data:`_SCHEMA` section, rejecting unknown sections and keys."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"{path}: cannot read spec ({exc})") from exc
    if text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict) or not all(isinstance(v, dict) for v in raw.values()):
            raise SpecError(f"{path}: JSON spec must be an object of section objects")
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise SpecError(f"{path}: invalid spec file ({exc})") from exc
        raw = {name: dict(parser.items(name)) for name in parser.sections()}

    sections = {}
    for name, values in raw.items():
        if name not in _SCHEMA:
            raise SpecError(f"{path}: unknown section [{name}]")
        unknown = set(values) - set(_SCHEMA[name])
        if unknown:
            raise SpecError(f"{path}: unknown key(s) in [{name}]: {', '.join(sorted(unknown))}")
        sections[name] = {}
        for key, value in values.items():
            convert, expected = _SCHEMA[name][key]
            try:
                sections[name][key] = convert(value)
            except (TypeError, ValueError, KeyError) as exc:
                raise SpecError(f"{path}: [{name}] {key} must be {expected}, "
                                f"got {value!r}") from exc
    if "generator" not in sections.get("problem", {}):
        raise SpecError(f"{path}: [problem] generator is required")
    return {name: sections.get(name, {}) for name in _SCHEMA}


def build_problem(spec: dict, seed_override=None) -> TestProblem:
    section = spec["problem"]
    generator = section["generator"]
    seed = section.get("seed", 0) if seed_override is None else seed_override
    if generator == "symmetric-indefinite":
        return symmetric_indefinite_problem(section.get("m", 50), seed)
    if generator == "clustered-spd":
        return clustered_spd_problem(section.get("n", 80), section.get("outliers", 5), seed)
    if generator == "toy-breakdown":
        return toy_breakdown_problem()
    if generator == "near-invariant":
        return near_invariant_problem(section.get("alpha", 1e-3))
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
          else np.zeros(a.shape[0]))
    return TestProblem(a=a, b=b, x0=x0, label=f"file({section['a']})", seed=seed)


def build_basis(spec: dict, problem: TestProblem):
    section = spec["deflation"]
    sources = [key for key in ("eigen_indices", "breakdown_indices", "file") if key in section]
    if len(sources) > 1:
        raise SpecError(f"[deflation] choose one basis source, got {', '.join(sources)}")
    if not sources:
        basis = problem.u
    elif sources[0] == "eigen_indices":
        basis = eigenvector_basis(problem, section["eigen_indices"])
    elif sources[0] == "breakdown_indices":
        basis = breakdown_prone_basis(problem, section["breakdown_indices"])
    else:
        basis = dkio.read_matrix_market(section["file"])
    if basis is not None and "perturb_eps" in section:
        basis = perturb_basis(basis, section["perturb_eps"], section.get("perturb_seed", 0))
    return basis


def build_solve_config(spec: dict, tol_override=None, maxit_override=None) -> SolveConfig:
    kwargs = {_SOLVER_FIELDS.get(key, key): value for key, value in spec["solver"].items()}
    if tol_override is not None:
        kwargs["residual_tolerance"] = tol_override
    if maxit_override is not None:
        kwargs["max_iterations"] = maxit_override
    try:
        return SolveConfig(**kwargs)
    except ValueError as exc:
        raise SpecError(f"[solver] {exc}") from exc


def build_variants(spec: dict) -> list[MethodVariant]:
    if not spec["run"].get("variants"):
        raise SpecError("[run] variants is required")
    return spec["run"]["variants"]


def build_initial_guess(spec: dict, problem: TestProblem, basis) -> np.ndarray:
    section = spec["run"]
    choice = section.get("x0", "zero")
    n = problem.dim
    seed = section.get("x0_seed", 0)
    if choice == "zero":
        x0 = problem.x0.copy()
    elif choice == "random":
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(n)
    else:  # "breakdown-guess"
        if basis is None:
            raise SpecError("[run] x0 = breakdown-guess requires a deflation basis")
        coeff_seed = section.get("breakdown_coefficient_seed", 0)
        rng = np.random.default_rng(coeff_seed)
        coeff = rng.standard_normal(basis.shape[1])
        x0 = breakdown_initial_guess(problem.a, problem.b, basis, coeff)
    if "x0_perturbation" in section:
        eps = section["x0_perturbation"]
        rng = np.random.default_rng(seed + 1)
        delta = rng.standard_normal(n)
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


def _error(exc, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _check_destination(path) -> None:
    """Reject an output path whose directory does not exist, before any work."""
    if path and not Path(path).parent.is_dir():
        raise SpecError(f"output directory '{Path(path).parent}' does not exist")


def _emit(rendered: str, path) -> int:
    """Write ``rendered`` to ``path``, or to standard output when it is unset.

    Returns 0, or exit code 3 after reporting a write that failed.
    """
    try:
        if path:
            Path(path).write_text(rendered, encoding="ascii")
        else:
            sys.stdout.write(rendered)
    except OSError as exc:
        return _error(f"cannot write output: {exc}", 3)
    return 0


def cmd_run(args) -> int:
    try:
        spec = parse_spec(args.spec_file)
        destination = args.output or spec["output"].get("path")
        _check_destination(destination)
        variants = build_variants(spec)
        cfg = build_solve_config(spec, args.tol, args.maxit)
        problem = build_problem(spec, args.seed)
        basis = build_basis(spec, problem)
        x0 = build_initial_guess(spec, problem, basis)
        needs_basis = [v for v in variants if v not in PLAIN_VARIANTS]
        if needs_basis and basis is None:
            raise ValueError(
                f"variants {', '.join(v.value for v in needs_basis)} require a deflation basis")
        results = [run_method(variant, problem.a, problem.b, basis, x0, cfg)
                   for variant in variants]
    except SpecError as exc:
        return _error(exc, 2)
    except Exception as exc:  # construction / solver errors
        return _error(exc, 3)

    reference = reference_norm(problem.b)
    render = render_json if (args.format or spec["output"].get("format")) == "json" else render_csv
    if _emit(render(results, reference), destination):
        return 3
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
        _check_destination(args.output)
        report = run_suite(args.suite, args.seed)
    except ValueError as exc:
        return _error(exc, 2)
    return (_emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.output)
            or (0 if report["passed"] else 1))


def cmd_diagnose(args) -> int:
    try:
        spec = parse_spec(args.spec_file)
        _check_destination(args.output)
        problem = build_problem(spec, args.seed)
        basis = build_basis(spec, problem)
        if basis is None:
            raise ValueError("diagnose requires a deflation basis")
        diagnosis = diagnose_breakdown(problem.a, basis)
    except SpecError as exc:
        return _error(exc, 2)
    except Exception as exc:
        return _error(exc, 3)
    payload = {
        "intersection_nontrivial": diagnosis.intersection_nontrivial,
        "smallest_indicator": diagnosis.smallest_indicator,
        "largest_principal_angle_radians": diagnosis.largest_principal_angle_rad,
        "largest_principal_angle_degrees": diagnosis.largest_principal_angle_deg,
    }
    return _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)


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
