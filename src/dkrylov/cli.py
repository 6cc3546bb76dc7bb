"""Command-line front end: run experiments, property suites and diagnoses.

An experiment is described by one JSON spec, an object of section objects;
the command line adds only the output destination and, for a seeded
generator (``symmetric-indefinite`` or ``clustered-spd``), the problem seed.
A spec's problem comes from a generator (those, ``toy-breakdown`` or
``near-invariant``) or, with ``file``, from Matrix Market files of A, b and
x0 (:mod:`dkrylov.io`), as may its deflation basis.  Convergence histories
are written as CSV (one row per variant and iteration) or JSON for external
plotting; a breakdown is a reported result, not a tool failure.  Every
history of a run is divided by one shared reference, ||b|| of the problem
(1 when b = 0), so the variants can be compared with each other; the JSON
output records it as ``reference_norm``.

Every spec value is typed by one schema when the spec is read, and a key
that the chosen generator or the other keys leave unread is rejected there,
as is ``--seed`` for a generator that reads no seed.  The range of a key is
checked by the generator or :class:`SolveConfig` it feeds, before that builds
anything, and a missing basis or an index past the problem's order while the
experiment is built; each error names its keys and exits with code 2 before
any solve.

Exit codes: 0 completed run, 1 failed check suite, 2 spec parse error or an
output path in a missing directory, 3 construction/setup error, a check
suite that raised or a failed write of the output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as dkio
from . import linalg
from .analysis import GuessInvalidError, breakdown_initial_guess, diagnose_breakdown
from .checks import SUITES, run_suite
from .deflated import _RECIPES, DualReport, MethodVariant, run_methods
from .problems import (TestProblem, breakdown_prone_basis, clustered_spd_problem,
                       eigenvector_basis, near_invariant_problem, perturb_basis,
                       symmetric_indefinite_problem, toy_breakdown_problem)
from .solvers import SolveConfig

CSV_HEADER = "variant,iteration,rel_residual_original,rel_residual_deflated,status"


class SpecError(ValueError):
    """The experiment spec file could not be parsed or validated."""


def parse_index_list(text) -> list[int]:
    """Parse "1-5,51-55" or "1,2,3" into a list of 1-based indices, strictly
    ascending from at least 1.  The upper bound depends on the problem and
    is checked where the basis is built."""
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
    if indices[0] < 1:
        raise ValueError(f"index {indices[0]} below 1")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("indices not strictly ascending")
    return indices


def _variants(value) -> list[MethodVariant]:
    names = value if isinstance(value, (list, tuple)) else str(value).split(",")
    return [MethodVariant(str(name).strip()) for name in names if str(name).strip()]


def _integer(value) -> int:
    # int() would truncate 5.7 and accept True; an integer string passes.
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _finite(value) -> float:
    # float() would accept True, "nan" and "inf".
    number = float(value)
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


def _where(parse, holds):
    """``parse``, rejecting a value of which ``holds`` is false."""
    def check(value):
        number = parse(value)
        if not holds(number):
            raise ValueError(f"out of range: {value!r}")
        return number
    return check


def _option(kind):
    """The argparse type of a ``(function, what it expects)`` pair: a value it
    rejects exits 2 with a message that names the option."""
    def parse(text):
        try:
            return kind[0](text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {kind[1]}, got {text!r}") from None
    return parse


def _choice(*names):
    return (lambda value: names[names.index(str(value).strip().lower())],
            f"one of {', '.join(names)}")


_INTEGER = (_integer, "an integer")
_FINITE = (_finite, "a finite number")
_SEED = (_where(_integer, lambda n: n >= 0), "a non-negative integer")
_POSITIVE = (_where(_finite, lambda x: x > 0), "a positive finite number")
_NON_NEGATIVE = (_where(_finite, lambda x: x >= 0), "a non-negative finite number")
_TEXT = (str, "a string")
_INDICES = (parse_index_list, 'ascending 1-based indices such as "1-5,51-55"')

#: Section -> key -> (function that types the value, what it expects).  The
#: library call a key feeds checks its range (:func:`_named`), except for the
#: ranges here: perturb_eps and the index lists are checked only once the
#: problem exists, seeds in words that name no key, x0_perturbation never.
_SCHEMA = {
    "problem": {"generator": _choice("symmetric-indefinite", "clustered-spd", "toy-breakdown",
                                     "near-invariant", "file"),
                "m": _INTEGER, "n": _INTEGER, "outliers": _INTEGER, "alpha": _FINITE,
                "seed": _SEED, "a": _TEXT, "b": _TEXT, "x0": _TEXT},
    "deflation": {"eigen_indices": _INDICES, "breakdown_indices": _INDICES, "file": _TEXT,
                  "perturb_eps": _POSITIVE, "perturb_seed": _SEED},
    "run": {"variants": (_variants, "variant names from "
                         + ", ".join(v.value for v in MethodVariant)),
            "x0": _choice("zero", "random", "breakdown-guess"), "x0_seed": _SEED,
            "x0_perturbation": _NON_NEGATIVE},
    "solver": {"tolerance": _FINITE, "max_iterations": _INTEGER},
    "output": {"format": _choice("csv", "json")},
}

#: [solver] keys whose SolveConfig field has another name.
_SOLVER_FIELDS = {"tolerance": "residual_tolerance"}

#: The [problem] keys each generator reads.
_GENERATOR_KEYS = {"symmetric-indefinite": ("m", "seed"),
                   "clustered-spd": ("n", "outliers", "seed"), "toy-breakdown": (),
                   "near-invariant": ("alpha",), "file": ("a", "b", "x0")}

#: Keys read only under other keys or choices: (section, key, whether its
#: section reads it, the condition in words).
_CONDITIONAL_KEYS = (
    ("deflation", "perturb_seed", lambda s: "perturb_eps" in s, "with perturb_eps"),
    ("run", "x0_seed",
     lambda s: s.get("x0") in ("random", "breakdown-guess") or "x0_perturbation" in s,
     'with x0 = "random" or "breakdown-guess", or with x0_perturbation'),
)


def parse_spec(path) -> dict[str, dict]:
    """Parse a JSON spec file, an object of section objects, into one dict
    of typed values per :data:`_SCHEMA` section, rejecting unknown sections
    and keys, values it cannot type or bound, and keys that the spec's
    choices never read (:data:`_GENERATOR_KEYS`, :data:`_CONDITIONAL_KEYS`)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"{path}: cannot read spec ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict) or not all(isinstance(v, dict) for v in raw.values()):
        raise SpecError(f"{path}: JSON spec must be an object of section objects")

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
    sections = {name: sections.get(name, {}) for name in _SCHEMA}
    generator = sections["problem"]["generator"]
    unread = set(sections["problem"]) - {"generator", *_GENERATOR_KEYS[generator]}
    if unread:
        raise SpecError(f"{path}: generator {generator} does not read "
                        f"[problem] {', '.join(sorted(unread))}")
    for name, key, read, condition in _CONDITIONAL_KEYS:
        if key in sections[name] and not read(sections[name]):
            raise SpecError(f"{path}: [{name}] {key} is read only {condition}")
    return sections


def _named(keys: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, whose ValueError or IndexError names the spec ``keys``."""
    try:
        return call(*args, **kwargs)
    except (IndexError, ValueError) as exc:
        raise SpecError(f"{keys}: {exc}") from None


def build_problem(spec: dict, seed_override=None) -> TestProblem:
    """The spec's problem; ``seed_override`` (``--seed``) replaces ``[problem]
    seed`` and is rejected, as that key is, for a generator that reads none."""
    section = spec["problem"]
    generator = section["generator"]
    if seed_override is not None and "seed" not in _GENERATOR_KEYS[generator]:
        raise SpecError(f"--seed: generator {generator} reads no seed")
    seed = section.get("seed", 0) if seed_override is None else seed_override
    if generator == "symmetric-indefinite":
        return _named("[problem] m", symmetric_indefinite_problem, section.get("m", 50), seed)
    if generator == "clustered-spd":
        return _named("[problem] n, outliers", clustered_spd_problem, section.get("n", 80),
                      section.get("outliers", 5), seed)
    if generator == "toy-breakdown":
        return toy_breakdown_problem()
    if generator == "near-invariant":
        return _named("[problem] alpha", near_invariant_problem, section.get("alpha", 1e-3))
    # generator == "file": Matrix Market inputs
    if "a" not in section or "b" not in section:
        raise SpecError("[problem] file generator requires a and b")
    a = dkio.read_matrix_market(section["a"])
    b = dkio.read_matrix_market(section["b"])
    x0 = (dkio.read_matrix_market(section["x0"]) if "x0" in section
          else np.zeros(a.shape[0]))
    return TestProblem(a=a, b=b, x0=x0)


def build_basis(spec: dict, problem: TestProblem):
    section = spec["deflation"]
    sources = [key for key in ("eigen_indices", "breakdown_indices", "file") if key in section]
    if len(sources) > 1:
        raise SpecError(f"[deflation] choose one basis source, got {', '.join(sources)}")
    if not sources:
        basis = problem.u
    elif sources[0] == "file":
        basis = dkio.read_matrix_market(section["file"])
    else:
        # What the indices need of the problem (its eigenvectors, its order,
        # an even order for pairs) is known only here.
        key = sources[0]
        builder = eigenvector_basis if key == "eigen_indices" else breakdown_prone_basis
        basis = _named(f"[deflation] {key}", builder, problem, section[key])
    if basis is not None and "perturb_eps" in section:
        basis = perturb_basis(basis, section["perturb_eps"], section.get("perturb_seed", 0))
    return basis


def build_solve_config(spec: dict) -> SolveConfig:
    """The run's :class:`SolveConfig` from the spec's ``[solver]`` section,
    whose values :func:`parse_spec` has typed; :class:`SolveConfig` checks
    their ranges.  The command reports residuals and final iterates only, so
    it records no iterate history; a variant that corrects every iterate
    still records its own (:func:`run_methods`)."""
    kwargs = {_SOLVER_FIELDS.get(key, key): value for key, value in spec["solver"].items()}
    return _named("[solver] tolerance, max_iterations", SolveConfig, **kwargs,
                  record_history=False)


def build_variants(spec: dict) -> list[MethodVariant]:
    if not spec["run"].get("variants"):
        raise SpecError("[run] variants is required")
    return spec["run"]["variants"]


def build_initial_guess(spec: dict, problem: TestProblem, basis) -> np.ndarray:
    """The run's x0: without a ``[run] x0`` key the problem's own (the
    ``x0`` file's, zeros without one and for every generator), and zeros for
    ``zero``.  ``x0_seed`` seeds the one draw of ``random`` (x0) or of
    ``breakdown-guess`` (its basis coefficients), and plus one that of
    ``x0_perturbation``."""
    section = spec["run"]
    n = problem.dim
    seed = section.get("x0_seed", 0)
    choice = section.get("x0")
    if choice is None:
        x0 = problem.x0.copy()
    elif choice == "zero":
        x0 = np.zeros(n)
    elif choice == "random":
        x0 = np.random.default_rng(seed).standard_normal(n)
    else:  # "breakdown-guess"
        if basis is None:
            raise SpecError("[run] x0 = breakdown-guess requires a deflation basis")
        coeff = np.random.default_rng(seed).standard_normal(basis.shape[1])
        try:
            x0 = breakdown_initial_guess(problem.a, problem.b, basis, coeff)
        except GuessInvalidError as exc:  # a singular A still exits 3
            raise SpecError(f"[run] x0: {exc}") from None
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


def _check_destination(path) -> None:
    """Reject an output path whose directory does not exist, before any work."""
    if path and not Path(path).parent.is_dir():
        raise SpecError(f"output directory '{Path(path).parent}' does not exist")


def _emit(rendered: str, path) -> None:
    """Write ``rendered`` to ``path``, or to standard output when it is unset."""
    try:
        if path:
            Path(path).write_text(rendered, encoding="ascii")
        else:
            sys.stdout.write(rendered)
    except OSError as exc:
        raise OSError(f"cannot write output: {exc}") from exc


def cmd_run(args) -> int:
    spec = parse_spec(args.spec_file)
    _check_destination(args.output)
    variants = build_variants(spec)
    cfg = build_solve_config(spec)
    problem = build_problem(spec, args.seed)
    basis = build_basis(spec, problem)
    needs_basis = ", ".join(v.value for v in variants if _RECIPES[v].mode is not None)
    if basis is None and needs_basis:
        raise SpecError(f"variants {needs_basis} require a deflation basis from [deflation]")
    x0 = build_initial_guess(spec, problem, basis)
    results = run_methods(variants, problem.a, problem.b, basis, x0, cfg)

    reference = reference_norm(problem.b)
    render = render_json if spec["output"].get("format") == "json" else render_csv
    _emit(render(results, reference), args.output)
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
    _check_destination(args.output)
    report = run_suite(args.suite, args.seed)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.output)
    return 0 if report["passed"] else 1


def cmd_diagnose(args) -> int:
    spec = parse_spec(args.spec_file)
    _check_destination(args.output)
    problem = build_problem(spec, args.seed)
    basis = build_basis(spec, problem)
    if basis is None:
        raise SpecError("diagnose requires a deflation basis from [deflation]")
    diagnosis = diagnose_breakdown(problem.a, basis)
    payload = {
        "intersection_nontrivial": diagnosis.intersection_nontrivial,
        "smallest_indicator": diagnosis.smallest_indicator,
        "largest_principal_angle_radians": diagnosis.largest_principal_angle_rad,
        "largest_principal_angle_degrees": diagnosis.largest_principal_angle_deg,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
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
    p_run.add_argument("--output", help="output file (defaults to stdout)")
    p_run.add_argument("--seed", type=_option(_SEED), help="override the problem seed")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run a property suite on seeded random instances")
    p_check.add_argument("suite", choices=SUITES)
    p_check.add_argument("--seed", type=_option(_SEED), default=0)
    p_check.add_argument("--output")
    p_check.set_defaults(func=cmd_check)

    p_diag = sub.add_parser("diagnose", help="report the breakdown geometry of a problem/basis pair")
    p_diag.add_argument("spec_file")
    p_diag.add_argument("--seed", type=_option(_SEED), help="override the problem seed")
    p_diag.add_argument("--output")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    """Run one command and map its errors to exit codes (module docstring):
    a :class:`SpecError` exits 2, any other exception 3."""
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SpecError) else 3


if __name__ == "__main__":
    sys.exit(main())
