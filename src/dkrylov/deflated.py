"""Deflated and augmented method variants, each one row of a recipe table.

Every deflated method is the same recipe with five ingredients:

* a Galerkin mode (residual-orthogonal for CG, residual-minimizing for
  MINRES and GMRES), which fixes the :class:`Deflator`;
* a projected operator, left-projected or two-sided projected;
* a right-hand side for that operator;
* an initial-guess map (keep the guess, shift it so its residual is
  orthogonal to the basis, or adapt it to the two-sided system);
* a correction that maps deflated iterates back to the original system.

Explicit and implicit augmentation are the same iteration and differ only in
when the correction is applied: ``RMINRES_EXPLICIT`` corrects every iterate
(explicit augmentation) and recomputes the original residual norms from them,
which makes their equality with the deflated norms checkable rather than
definitional; ``RMINRES_DEFLATION_ONLY`` corrects once at the end (implicit
augmentation) and reports the deflated history, which the correction
preserves.  The table layout follows KryPy, the source paper's reference
implementation (github.com/andrenarchy/krypy).

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

    ``system`` picks the operator, right-hand side and correction:

    * ``"left"``: the left-projected operator with the projected right-hand
      side, corrected by :meth:`Deflator.correct_iterate`;
    * ``"two-sided"``: the Hermitian two-sided operator with
      :meth:`Deflator.two_sided_rhs`, corrected by
      :meth:`Deflator.correct_two_sided_iterate`;
    * ``"left-as-two-sided"``: the left-projected system iterated through the
      two-sided operator.  Its Krylov vectors live in the projector's image,
      where both operators act identically, so the effective right-hand side
      r0 + op(x0) makes MINRES compute the residuals of the left-projected
      system for any initial guess; corrected by ``correct_iterate``.

    ``guess`` is ``"given"``, ``"shifted"`` (:meth:`Deflator.initial_correction`)
    or ``"adapted"`` (:meth:`Deflator.adapted_initial_guess`).  ``mode`` is
    None for the undeflated solvers.
    """

    solver: str
    mode: GalerkinMode | None = None
    system: str = "left"
    guess: str = "given"
    per_iterate: bool = False


_OR = GalerkinMode.RESIDUAL_ORTHOGONAL
_MR = GalerkinMode.RESIDUAL_MINIMIZING

_RECIPES = {
    MethodVariant.CG: _Recipe("cg"),
    MethodVariant.DEFLATED_CG: _Recipe("cg", _OR, guess="shifted"),
    MethodVariant.MINRES: _Recipe("minres"),
    MethodVariant.RMINRES_EXPLICIT: _Recipe("minres", _MR, "left-as-two-sided",
                                            per_iterate=True),
    MethodVariant.RMINRES_DEFLATION_ONLY: _Recipe("minres", _MR, "left-as-two-sided"),
    MethodVariant.DEFLATED_MINRES: _Recipe("minres", _MR, "two-sided"),
    MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS: _Recipe("minres", _MR, "left-as-two-sided",
                                                         guess="adapted"),
    MethodVariant.DEFLATED_GMRES: _Recipe("gmres", _MR),
}

#: Variants that run without a deflation basis.
PLAIN_VARIANTS = tuple(v for v, recipe in _RECIPES.items() if recipe.mode is None)


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


def run_method(variant: MethodVariant, a, b, u=None, x0=None,
               cfg: SolveConfig | None = None) -> DualReport:
    """Run one method variant on a system, deflated variants requiring a basis.

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
    recipe = _RECIPES[variant]
    cfg = cfg or SolveConfig()
    # Looked up per call, so that rebinding a solver's module name takes effect.
    solve = {"cg": cg_solve, "minres": minres_solve, "gmres": gmres_solve}[recipe.solver]
    if recipe.mode is None:
        rep = solve(dense_operator(a), b, x0, cfg)
        return DualReport(variant, rep, rep.residual_norms.copy(), rep.final_iterate)
    if u is None:
        raise ValueError(f"variant {variant.value} requires a deflation basis")

    d = Deflator(a, u, recipe.mode)
    if recipe.solver == "minres" and not d.a_hermitian:
        raise ValueError(f"{variant.value} requires a Hermitian matrix")
    b = linalg.as_vector(b, d.dim)
    x0 = x_given = linalg.as_vector(np.zeros(d.dim) if x0 is None else x0, d.dim)
    diagnostics = {}
    if recipe.guess == "shifted":
        x0 = d.initial_correction(x0, b)
    elif recipe.guess == "adapted":
        x0 = diagnostics["adapted_initial_guess"] = d.adapted_initial_guess(x0, b)

    if recipe.system == "left":
        op = deflated_operator(d, "left")
        rhs = d.project_residual(b)
    else:
        op = deflated_operator(d, "two_sided")
        if recipe.system == "two-sided":
            rhs = d.two_sided_rhs(b)
        else:
            rhs = d.project_residual(b - d.a_product(x0)) + op.apply(x0)
    correct = (d.correct_two_sided_iterate if recipe.system == "two-sided"
               else d.correct_iterate)

    if recipe.per_iterate:
        cfg = replace(cfg, record_history=True)
    rep = solve(op, rhs, x0, cfg)
    if recipe.per_iterate:
        corrected = [correct(x, b) for x in rep.iterates]
        original = np.array([linalg.vector_norm(b - d.a_product(x)) for x in corrected])
        final = float(original[-1])
    else:
        corrected = [correct(rep.final_iterate, b)]
        original = rep.residual_norms.copy()
        final = linalg.vector_norm(b - d.a_product(corrected[-1]))
    diagnostics["original_residual_norm"] = final
    limit = 10 * cfg.residual_tolerance
    # b - A x0 is formed only for a residual that misses 10 tol ||b||.
    if (rep.converged and final > limit * linalg.vector_norm(b)
            and final > limit * linalg.vector_norm(b - d.a_product(x_given))):
        rep = replace(rep, status=SolveStatus.STAGNATED)
    return DualReport(variant, rep, original, corrected[-1], len(corrected), d, diagnostics)
