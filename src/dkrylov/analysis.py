"""Breakdown predicates, breakdown-guess construction and spectral checks.

These are analysis-side tools: they form dense projected matrices, run dense
factorizations and eigendecompositions, and are not meant for the solver hot
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .projection import Deflator, GalerkinMode

#: Singular values of the subspace coupling below this declare a nontrivial
#: intersection between the deflation space and the orthogonal complement of
#: its image.
INTERSECTION_THRESHOLD = 1e-10

#: Relative defect up to which a basis combination counts as orthogonal to its
#: image in :func:`breakdown_initial_guess`.
GUESS_TOLERANCE = 1e-8

#: Largest eigenvalue mismatch :func:`check_deflated_spectrum` accepts,
#: relative to ||a||_2.
SPECTRUM_TOLERANCE = 1e-8


class GuessInvalidError(ValueError):
    """The requested breakdown guess does not satisfy the breakdown geometry."""


class NotInvariantError(ValueError):
    """The basis does not span an invariant subspace to the required accuracy."""


@dataclass(frozen=True)
class BreakdownDiagnosis:
    """Geometry report for a (matrix, deflation basis) pair.

    ``largest_principal_angle_rad`` is the largest principal angle between
    the deflation space and its image, and ``smallest_indicator`` its cosine,
    the smallest singular value of the coupling between orthonormal bases of
    the two.  The indicator vanishes exactly when some deflation vector is
    orthogonal to the whole image, the condition under which left-projected
    minimal-residual runs can break down.
    """

    intersection_nontrivial: bool
    smallest_indicator: float
    largest_principal_angle_rad: float

    @property
    def largest_principal_angle_deg(self) -> float:
        return float(np.degrees(self.largest_principal_angle_rad))


def diagnose_breakdown(a, u) -> BreakdownDiagnosis:
    """Decide whether the deflation space intersects the orthogonal complement
    of its image under ``a``: whether the smallest indicator is below
    INTERSECTION_THRESHOLD.

    The angles come from :func:`linalg.principal_angles`, which keeps full
    precision near zero, where an arccos of the indicator loses half of it.
    An image of lower dimension than the basis meets that complement, so its
    largest angle is pi/2.
    """
    a = linalg.as_matrix(a)
    u = linalg.as_matrix(u)
    k = u.shape[1]
    if scipy.linalg.orth(u).shape[1] != k:
        raise ValueError("deflation basis is rank deficient")
    angles = linalg.principal_angles(u, a @ u)
    angle = float(angles[-1]) if len(angles) == k else np.pi / 2
    indicator = float(np.cos(angle))
    return BreakdownDiagnosis(indicator < INTERSECTION_THRESHOLD, indicator, angle)


def breakdown_initial_guess(a, b, u, coefficients) -> np.ndarray:
    """Initial guess that forces a first-step breakdown of the left-projected run.

    The guess solves a x0 = b - v for v the given combination of basis
    columns; it is valid only when v lies in the orthogonal complement of the
    image of the basis (then the initial deflated residual equals v and is
    annihilated by the deflated operator).  Raises GuessInvalidError when the
    basis does not realize that geometry to GUESS_TOLERANCE, and
    SingularMatrixError when ``a`` is numerically singular.
    """
    a = linalg.as_matrix(a)
    u = linalg.as_matrix(u)
    b = linalg.as_vector(b, a.shape[0])
    coefficients = linalg.as_vector(coefficients, u.shape[1])
    v = u @ coefficients
    vnorm = linalg.vector_norm(v)
    if vnorm == 0.0:
        raise GuessInvalidError("the coefficient vector must combine to a nonzero vector")
    d = Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING)
    # v must be a fixed point of the residual projector (equivalently v is
    # orthogonal to the image of the basis); the projected image of v is then
    # zero identically.
    defect = linalg.vector_norm(d.project_residual(v) - v)
    if defect > GUESS_TOLERANCE * vnorm:
        raise GuessInvalidError(
            f"basis combination is not orthogonal to its image "
            f"(defect {defect:.3e} vs {GUESS_TOLERANCE:g} * {vnorm:.3e})"
        )
    image_defect = linalg.vector_norm(d.project_residual(a @ v))
    scale = linalg.spectral_norm(a) * vnorm
    if image_defect > GUESS_TOLERANCE * max(scale, np.finfo(float).tiny):
        raise GuessInvalidError(f"projected image of the combination does not vanish "
                                f"({image_defect:.3e})")
    return scipy.linalg.lu_solve(linalg.lu_factor_checked(a), b - v)


@dataclass(frozen=True)
class SpectrumCheck:
    """Result of comparing the deflated operator's spectrum to prediction."""

    computed: np.ndarray
    expected: np.ndarray
    max_mismatch: float
    tolerance: float
    passed: bool


def check_deflated_spectrum(a, u, mode: GalerkinMode) -> SpectrumCheck:
    """Verify that deflating an invariant subspace moves exactly its
    eigenvalues to zero and leaves the rest of the spectrum intact.

    Requires a Hermitian matrix, positive definite in residual-orthogonal
    mode as :class:`Deflator` requires, and a basis spanning an exact
    invariant subspace; compares the spectrum of the deflator's dense
    left-projected matrix (as a multiset) against {0 with the basis
    dimension's multiplicity} plus the non-deflated eigenvalues.  The check
    passes when the largest mismatch is at most SPECTRUM_TOLERANCE * ||a||_2;
    a failing one is reported, not raised.  A deflated matrix M whose
    Hermitian defect ||M - M^H||_2 exceeds that bound fails too, with the
    defect as its mismatch if it is the larger: an invariant basis keeps M
    Hermitian to roundoff.
    """
    a = linalg.as_matrix(a)
    u = linalg.as_matrix(u)
    k = u.shape[1]
    if not linalg.is_hermitian(a):
        raise ValueError("spectral verification requires a Hermitian matrix")
    theta = _invariant_eigenvalues(a, u)
    d = Deflator(a, u, mode)
    deflated = d.dense_deflated_matrix()
    anorm = linalg.spectral_norm(a)
    tolerance = SPECTRUM_TOLERANCE * max(anorm, np.finfo(float).tiny)
    computed = _hermitian_eigenvalues(deflated)
    full = _hermitian_eigenvalues(a)
    remaining = _remove_matched(full, theta, tolerance)
    expected = np.sort(np.concatenate([np.zeros(k), remaining]))
    max_mismatch = float(np.max(np.abs(computed - expected)))
    defect = linalg.hermitian_defect(deflated)
    if defect > tolerance:
        max_mismatch = max(max_mismatch, defect)
    return SpectrumCheck(computed, expected, max_mismatch, tolerance, max_mismatch <= tolerance)


def _hermitian_eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``a``, a matrix that is
    Hermitian only to roundoff."""
    return np.linalg.eigvalsh(0.5 * (a + a.conj().T))


def _invariant_eigenvalues(a, u) -> np.ndarray:
    """Eigenvalues of ``a`` restricted to span(u); fails unless the residual
    ||a q - q (q^H a q)||_2 is at most 1e-10 ||a||_2."""
    tol = 1e-10
    q = scipy.linalg.orth(u)
    if q.shape[1] != u.shape[1]:
        raise ValueError("basis is rank deficient")
    aq = a @ q
    restriction = q.conj().T @ aq
    defect = linalg.spectral_norm(aq - q @ restriction)
    scale = max(linalg.spectral_norm(a), np.finfo(float).tiny)
    if defect > tol * scale:
        raise NotInvariantError(f"basis is not invariant: residual {defect:.3e} vs {tol:g} * "
                                f"{scale:.3e}")
    return _hermitian_eigenvalues(restriction)


def _remove_matched(values: np.ndarray, removed: np.ndarray, tol: float) -> np.ndarray:
    """Multiset difference with nearest-match pairing."""
    values = list(values)
    for r in removed:
        idx = int(np.argmin([abs(v - r) for v in values]))
        if abs(values[idx] - r) > max(tol, 1e-6 * max(abs(r), 1.0)):
            raise NotInvariantError(f"eigenvalue {r:.6g} of the restriction is not in the spectrum")
        values.pop(idx)
    return np.asarray(values)

