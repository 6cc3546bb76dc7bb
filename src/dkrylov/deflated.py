"""Deflated and augmented method variants, each one row of a recipe table.

Every deflated method is the same recipe with five ingredients:

* a Galerkin mode (residual-orthogonal for CG, residual-minimizing for
  MINRES and GMRES), which fixes the :class:`Deflator` and its projector P;
* a projected operator, as :func:`deflated_operator` names it: ``"left"``
  (P A) or ``"two_sided"`` (P A P, Hermitian for a Hermitian A);
* an initial-guess map from the given x0 to a guess xi: ``"given"`` (xi =
  x0) or ``"adapted"`` (:meth:`Deflator.adapted_initial_guess`).  A shift of
  x0 by U c would change nothing: P A U = 0, so the projected run from
  x0 + U c has the same residuals, and the correction maps its iterates and
  those from x0 to the same corrected iterate;
* one right-hand-side rule: the run starts at the projected residual
  P (b - A xi) of its guess.  The left operator runs from xi on P b, the
  two-sided one from x0 on P (b - A xi) + (P A P) x0: its Krylov vectors
  lie in the image of P, where it acts as P A does;
* one correction, :meth:`Deflator.correct_iterate`, of the final iterate
  read through the guess map.

Explicit and implicit augmentation are the same iteration and differ only in
what the final-step correction is applied to: ``RMINRES_EXPLICIT`` applies it
to the whole block of iterates at once (explicit augmentation), which needs
no product with A, and recomputes the original residual norms from them by
one product of A with the block, which makes their equality with the
deflated norms checkable rather than definitional;
``RMINRES_DEFLATION_ONLY`` corrects the final iterate only (implicit
augmentation) and reports the deflated history, which the correction
preserves.  The table layout follows KryPy, the source paper's reference
implementation (github.com/andrenarchy/krypy).

The source paper proves that MINRES on the left-projected system from the
adapted guess x~0 = P x0 + W E^-1 U^H b is deflated MINRES on the two-sided
system from x0, with iterates ``adapted_initial_guess`` of the two-sided
ones and the same residuals.  So ``DEFLATED_MINRES`` is the two-sided recipe
of the adapted guess and ``DEFLATED_MINRES_ADAPTED_GUESS`` reads its iterates
through that map; the ``RMINRES_*`` pair is the two-sided recipe of the
given guess.

:func:`run_methods` runs a list of variants on one system and builds each
shared ingredient once: one :class:`Deflator` per Galerkin mode and one
iteration per distinct recipe.  So each pair above shares one iteration,
each equivalence made literal, and a shared deflator's ``apply_counts``
total the whole run.  A projected operator is built per iteration, at no
cost: it is linear by construction and takes its Hermitian flag from the
deflator's one verdict on A.  :func:`run_method` is :func:`run_methods` of
one variant.

A breakdown of the underlying solver freezes the report at the last valid
iterate; the correction formula is still applied so the (generally wrong)
corrected iterate can be inspected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .operators import deflated_operator, dense_operator
from .projection import Deflator, GalerkinMode
from .solvers import (SolveConfig, SolveReport, SolveStatus, cg_solve, gmres_solve,
                      minres_solve)


class MethodVariant(enum.Enum):
    """The method variants known to the experiment runner."""

    CG = "cg"
    DEFLATED_CG = "deflated-cg"
    MINRES = "minres"
    RMINRES_EXPLICIT = "rminres-explicit"
    RMINRES_DEFLATION_ONLY = "rminres-deflation-only"
    DEFLATED_MINRES = "deflated-minres"
    DEFLATED_MINRES_ADAPTED_GUESS = "deflated-minres-adapted-guess"
    DEFLATED_GMRES = "deflated-gmres"


@dataclass(frozen=True)
class _Recipe:
    """How one variant composes a solver with a deflator.

    ``system`` is the projected operator, ``"left"`` or ``"two_sided"``
    (:func:`deflated_operator`), and ``guess`` the initial-guess map,
    ``"given"`` or ``"adapted"``; together they fix the
    right-hand side and the correction by the module's one rule of each.
    ``mode`` is None for the undeflated solvers.  The last two fields say
    how a variant reads its iteration, not which one it runs (:func:`_key`):
    ``per_iterate`` corrects every iterate, as one block through
    ``correct_iterate``, so it needs a recipe of that correction;
    ``adapted`` reports the iterates of an ``"adapted"`` recipe read through
    :meth:`Deflator.adapted_initial_guess` (module docstring).
    """

    solver: str
    mode: GalerkinMode | None = None
    system: str = "left"
    guess: str = "given"
    per_iterate: bool = False
    adapted: bool = False


_OR = GalerkinMode.RESIDUAL_ORTHOGONAL
_MR = GalerkinMode.RESIDUAL_MINIMIZING

_RECIPES = {
    MethodVariant.CG: _Recipe("cg"),
    MethodVariant.DEFLATED_CG: _Recipe("cg", _OR),
    MethodVariant.MINRES: _Recipe("minres"),
    MethodVariant.RMINRES_EXPLICIT: _Recipe("minres", _MR, "two_sided", per_iterate=True),
    MethodVariant.RMINRES_DEFLATION_ONLY: _Recipe("minres", _MR, "two_sided"),
    MethodVariant.DEFLATED_MINRES: _Recipe("minres", _MR, "two_sided", guess="adapted"),
    MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS: _Recipe("minres", _MR, "two_sided",
                                                         guess="adapted", adapted=True),
    MethodVariant.DEFLATED_GMRES: _Recipe("gmres", _MR),
}


@dataclass
class DualReport:
    """Deflated-system run plus its original-system interpretation."""

    variant: MethodVariant
    deflated_report: SolveReport
    original_residual_norms: np.ndarray
    corrected_iterate: np.ndarray
    correction_count: int = 0
    deflator: Deflator | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def status(self):
        return self.deflated_report.status


def run_methods(variants, a, b, u=None, x0=None,
                cfg: SolveConfig | None = None) -> list[DualReport]:
    """Run method variants on one system, in order, sharing what they share.

    Variants of one Galerkin mode share one :class:`Deflator`, and variants
    of one recipe (solver, mode, system and initial-guess map) share one
    iteration, on a ``deflated_operator`` built for it, which keeps the
    operator contract of :mod:`dkrylov.operators` by construction and so is
    not probed.  Two pairs share one, each one of the paper's equivalences
    made literal (module docstring): ``RMINRES_EXPLICIT`` and
    ``RMINRES_DEFLATION_ONLY``, and ``DEFLATED_MINRES`` and
    ``DEFLATED_MINRES_ADAPTED_GUESS``, which alone records
    ``diagnostics["adapted_initial_guess"]``.  A shared iteration records its
    history when any of its variants needs it (recording does not change an
    iteration, and MINRES and GMRES form the recorded iterates at the end);
    a variant whose ``cfg`` does not record history gets ``iterates=None``.
    Each report holds its own copy of the :class:`SolveReport`, so every
    report is the one the variant would get if it were run alone, bit for
    bit, except that a shared deflator's ``apply_counts`` total the whole
    run.  Without a basis ``u``, one ValueError names every variant that
    needs one, before any solve; otherwise the first variant that fails
    raises, with the error it raises alone.

    MINRES-based deflated variants require a Hermitian matrix; deflated CG
    requires a Hermitian positive definite one; deflated GMRES accepts any
    nonsingular matrix.

    A deflated run iterates on a projected system whose right-hand side can
    be far larger than b, so its own tolerance test does not bound the
    original residual.  The corrected iterate's residual ||b - A x|| is
    therefore formed once, recorded as ``diagnostics["original_residual_norm"]``,
    and a converged run whose residual exceeds 10 * tolerance * max(||b||,
    ||b - A x0||) for the given x0 is reported as stagnated.
    """
    cfg = cfg or SolveConfig()
    # Looked up per call, so that rebinding a solver's module name takes effect.
    solvers = {"cg": cg_solve, "minres": minres_solve, "gmres": gmres_solve}
    variants = list(variants)
    recipes = [_RECIPES[v] for v in variants]
    needs_basis = [v.value for v, r in zip(variants, recipes) if r.mode is not None]
    if u is None and needs_basis:
        raise ValueError(f"variants {', '.join(needs_basis)} require a deflation basis")
    with_history = {_key(r) for r in recipes if r.per_iterate}
    made = {}

    def once(key, make):
        if key not in made:
            made[key] = make()
        return made[key]

    results = []
    for variant, recipe in zip(variants, recipes):
        key = _key(recipe)
        solve = solvers[recipe.solver]
        solve_cfg = replace(cfg, record_history=True) if key in with_history else cfg
        keep_iterates = cfg.record_history or recipe.per_iterate
        if recipe.mode is None:
            rep = once(key, lambda: solve(once("dense", lambda: dense_operator(a)),
                                          b, x0, solve_cfg))
            rep = _own_copy(rep, keep_iterates)
            results.append(DualReport(variant, rep, rep.residual_norms.copy(),
                                      rep.final_iterate))
            continue
        d = once(recipe.mode, lambda: Deflator(a, u, recipe.mode))
        if recipe.solver == "minres" and not d.a_hermitian:
            raise ValueError(f"{variant.value} requires a Hermitian matrix")
        rep, b_vec, x_vec = once(
            key, lambda: _deflated_solve(recipe, d, b, x0, solve_cfg, solve))
        results.append(_correct(variant, recipe, d, _own_copy(rep, keep_iterates),
                                b_vec, x_vec, cfg))
    return results


def run_method(variant: MethodVariant, a, b, u=None, x0=None,
               cfg: SolveConfig | None = None) -> DualReport:
    """Run one method variant: :func:`run_methods` of ``[variant]``."""
    return run_methods([variant], a, b, u, x0, cfg)[0]


def _key(recipe: _Recipe) -> tuple:
    """What decides a recipe's iteration: all of it but ``per_iterate`` and
    ``adapted``."""
    return recipe.solver, recipe.mode, recipe.system, recipe.guess


def _own_copy(rep: SolveReport, keep_iterates: bool) -> SolveReport:
    """A report of its own for one variant, whose iterates are kept only if
    the variant asked for them."""
    keep = keep_iterates and rep.iterates is not None
    return replace(rep, residual_norms=rep.residual_norms.copy(),
                   iterates=list(rep.iterates) if keep else None,
                   diagnostics=dict(rep.diagnostics))


def _deflated_solve(recipe, d, b, x0, cfg, solve):
    """The iteration of a deflated recipe with the system it ran on:
    ``(report, b, x0)``."""
    b = linalg.as_vector(b, d.dim)
    x0 = linalg.as_vector(np.zeros(d.dim) if x0 is None else x0, d.dim)
    op = deflated_operator(d, recipe.system)
    if recipe.system == "left":
        rhs = d.project_residual(b)
    else:
        xi = d.adapted_initial_guess(x0, b) if recipe.guess == "adapted" else x0
        rhs = d.project_residual(b - d.a_product(xi)) + op.apply(x0)
    return solve(op, rhs, x0, cfg), b, x0


def _correct(variant, recipe, d, rep, b, x0, cfg) -> DualReport:
    """Correct a deflated run back to the original system and judge its status
    there.

    Implicit augmentation corrects the final iterate.  Explicit augmentation
    (``per_iterate``, a recipe of the given guess) applies the same final-step
    correction to the whole block of iterates at once, which needs no
    product with A.  Its one product of A is with the corrected block, for
    their original residuals b - A x, so the curve it reports is of true
    residuals, each norm taken on its own.

    An ``"adapted"`` recipe reads its final iterate through
    :meth:`Deflator.adapted_initial_guess` before the correction; an
    ``adapted`` variant also reports its iterates and the given x0 so read."""
    diagnostics = {}
    x_final = rep.final_iterate
    if recipe.guess == "adapted":
        adapt = lambda x: d.adapted_initial_guess(x, b)  # noqa: E731
        x_final = adapt(x_final)
        if recipe.adapted:
            rep = replace(rep, final_iterate=x_final, iterates=None if rep.iterates is None
                          else list(map(adapt, rep.iterates)))
            diagnostics["adapted_initial_guess"] = adapt(x0)
    if recipe.per_iterate:
        # The iterates as the columns of an n-by-k block, stacked once.
        corrected = d.correct_iterate(np.stack(rep.iterates).T, b)
        residuals = d.a_product(corrected)
        np.subtract(b[:, None], residuals, out=residuals)
        original = np.array([linalg.vector_norm(r) for r in residuals.T])
        x, count, final = corrected[:, -1].copy(), corrected.shape[1], float(original[-1])
    else:
        x, count = d.correct_iterate(x_final, b), 1
        original = rep.residual_norms.copy()
        final = linalg.vector_norm(b - d.a_product(x))
    diagnostics["original_residual_norm"] = final
    limit = 10 * cfg.residual_tolerance
    # b - A x0 is formed only for a residual that misses 10 tol ||b||.
    if (rep.converged and final > limit * linalg.vector_norm(b)
            and final > limit * linalg.vector_norm(b - d.a_product(x0))):
        rep = replace(rep, status=SolveStatus.STAGNATED)
    return DualReport(variant, rep, original, x, count, d, diagnostics)
