"""Deflation apparatus built from an augmentation basis.

Given a square matrix ``a`` and a basis ``u`` of the augmentation space, the
:class:`Deflator` factorizes the small coupling matrix once and then provides
the projector actions and every iterate-correction formula the deflated
solvers need.  Two Galerkin modes are supported: residual-orthogonal (test
space equals the search space; requires a Hermitian positive definite matrix)
and residual-minimizing (test space is the matrix image of the search space;
works for any nonsingular matrix).
"""

from __future__ import annotations

import enum
import functools

import numpy as np
import scipy.linalg

from . import linalg
from .linalg import SingularMatrixError


class GalerkinMode(enum.Enum):
    """Which test space the underlying Galerkin condition uses."""

    #: Residual orthogonal to the search space itself (orthogonal-residual methods).
    RESIDUAL_ORTHOGONAL = "residual-orthogonal"
    #: Residual orthogonal to the image of the search space (minimal-residual methods).
    RESIDUAL_MINIMIZING = "residual-minimizing"


class SingularCouplingError(SingularMatrixError):
    """The coupling matrix of the augmentation basis is numerically singular.

    This is the hard precondition of the whole construction; it fails e.g.
    when the basis is rank deficient, or in residual-orthogonal mode when the
    basis is chosen so that u^H a u vanishes.
    """


class ModeMismatchError(ValueError):
    """An operation was requested in a Galerkin mode that does not support it."""


class Deflator:
    """Projection and correction toolbox for one (matrix, basis, mode) triple.

    The thin product w = a @ u and a factorization of the k-by-k coupling
    matrix are cached at construction, so every projector application costs a
    small solve plus thin matrix-vector products; the projected matrix is
    never formed.  The matrix ``a`` is kept by reference and must not be
    mutated afterwards.  Instances are immutable apart from the diagnostic
    apply counters.

    Set-up looks at ``a`` once, through one :class:`linalg.SquareMatrix`,
    which gives ``a_product``, ``a_hermitian`` and an estimate of ||a||_2, a
    lower bound to about 1e-3 relative, without an n-by-n SVD or a scaled copy
    of ``a``.  The estimate scales the pivot tests of the HPD pre-check and of
    the coupling factorization, so they are up to 1e-3 looser than with the
    exact norm (2e-3 where the scale holds ||a||_2 squared); only the n-by-k
    basis is measured exactly.

    ``a``, ``u``, ``w`` and the coupling factor are kept in the common field
    of ``a`` and ``u`` (:func:`linalg.as_matrix`), so a real system is
    factored and projected in real arithmetic.  The methods also accept
    vectors of the other field: a complex vector against a real deflator is
    projected as its real and imaginary parts.
    """

    def __init__(self, a, u, mode: GalerkinMode, *, allow_indefinite: bool = False):
        u = linalg.as_matrix(u)
        matrix = linalg.SquareMatrix(a, u.dtype)
        a = matrix.a
        n = a.shape[0]
        u = u.astype(a.dtype, copy=False)
        if u.shape[0] != n:
            raise ValueError(f"basis has {u.shape[0]} rows, expected {n}")
        k = u.shape[1]
        if not 0 < k < n:
            raise ValueError(f"basis dimension must satisfy 0 < k < {n}, got {k}")
        if not np.isfinite(u).all():
            raise ValueError("basis entries must be finite")
        self.a = a
        self.a_product = matrix.product
        self.mode = mode
        self.dim = n
        self.k = k
        a_norm, self.a_hermitian = matrix.norm, matrix.hermitian
        self.u = u
        self.w = a @ u

        # The coupling matrix can be numerically zero for adversarial bases,
        # so the singularity test measures its pivots against the natural
        # problem scale rather than against the coupling matrix itself.
        u_norm = linalg.spectral_norm(self.u)
        if mode is GalerkinMode.RESIDUAL_ORTHOGONAL:
            if not allow_indefinite:
                self._require_hpd(a_norm)
            self._bu = self.u
            self.coupling = self.u.conj().T @ self.w
            coupling_scale = a_norm * u_norm**2
            factor_fn = (linalg.lu_factor_checked if allow_indefinite
                         else linalg.cholesky_factor_checked)
        elif mode is GalerkinMode.RESIDUAL_MINIMIZING:
            self._bu = self.w
            self.coupling = self.w.conj().T @ self.w
            coupling_scale = (a_norm * u_norm) ** 2
            factor_fn = linalg.cholesky_factor_checked
        else:
            raise ValueError(f"unknown mode {mode!r}")

        try:
            factorization = factor_fn(self.coupling, scale=coupling_scale)
        except SingularMatrixError as exc:
            raise SingularCouplingError(
                f"coupling matrix is numerically singular ({exc})"
            ) from exc
        # The factor is solved against by LAPACK directly: the same routine
        # scipy's cho_solve/lu_solve call, without their per-call checks.  A
        # coupling matrix with no imaginary part is factored real; its factor
        # is kept in the deflator's field all the same.
        if factor_fn is linalg.cholesky_factor_checked:
            c, lower = factorization
            c = c.astype(a.dtype, copy=False)
            potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (c,))
            self._coupling_lapack = functools.partial(potrs, c, lower=lower)
        else:
            lu, piv = factorization
            lu = lu.astype(a.dtype, copy=False)
            getrs, = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))
            self._coupling_lapack = functools.partial(getrs, lu, piv)

        self.apply_counts = {"project_residual": 0, "project_solution": 0,
                             "coarse_solve": 0, "corrections": 0}

    def _require_hpd(self, a_norm):
        if not self.a_hermitian:
            raise ValueError(
                "residual-orthogonal mode requires a Hermitian positive definite "
                "matrix (pass allow_indefinite=True to override)"
            )
        try:
            linalg.cholesky_factor_checked(self.a, scale=a_norm)
        except SingularMatrixError as exc:
            raise ValueError(
                "residual-orthogonal mode requires a Hermitian positive definite "
                "matrix (pass allow_indefinite=True to override)"
            ) from exc

    def _solve_coupling(self, rhs) -> np.ndarray:
        if rhs.dtype.kind == "c" and self.a.dtype.kind != "c":
            return self._solve_coupling(rhs.real) + 1j * self._solve_coupling(rhs.imag)
        x, info = self._coupling_lapack(rhs)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of the coupling solve")
        return x

    # -- projector actions -------------------------------------------------

    def coarse_solve(self, v) -> np.ndarray:
        """Augmentation-space correction u (u^H b^H a u)^-1 u^H v."""
        v = linalg.as_vector(v, self.dim)
        self.apply_counts["coarse_solve"] += 1
        return self.u @ self._solve_coupling(self.u.conj().T @ v)

    def project_residual(self, v) -> np.ndarray:
        """Residual projector: annihilates the image of the basis under ``a``.

        Applied to b it gives the right-hand side of the left-projected system.
        """
        v = linalg.as_vector(v, self.dim)
        self.apply_counts["project_residual"] += 1
        return v - self.w @ self._solve_coupling(self._bu.conj().T @ v)

    def project_solution(self, v) -> np.ndarray:
        """Solution-space projector: annihilates the augmentation space itself."""
        v = linalg.as_vector(v, self.dim)
        self.apply_counts["project_solution"] += 1
        return v - self.u @ self._solve_coupling(self._bu.conj().T @ self.a_product(v))

    # -- right-hand sides for the deflated systems --------------------------

    def two_sided_rhs(self, b) -> np.ndarray:
        """Right-hand side of the two-sided projected (Hermitian) system."""
        self._require_minimizing("two_sided_rhs")
        b = linalg.as_vector(b, self.dim)
        # A (w y) from the stored w = A u spares a product with A, and w y is
        # |lambda_min| times smaller than u y when u spans small eigenvalues.
        y = self._solve_coupling(self.u.conj().T @ b)
        return self.project_residual(b - self.a_product(self.w @ y))

    # -- iterate corrections -------------------------------------------------

    def correct_iterate(self, x_hat, b) -> np.ndarray:
        """Map a left-projected-system iterate to an original-system iterate.

        The corrected iterate x satisfies b - a x = projected residual of
        x_hat, so an exact deflated solution is mapped to the exact solution.
        """
        x_hat = linalg.as_vector(x_hat, self.dim)
        b = linalg.as_vector(b, self.dim)
        self.apply_counts["corrections"] += 1
        residual = b - self.a_product(x_hat)
        return x_hat + self.u @ self._solve_coupling(self._bu.conj().T @ residual)

    def correct_two_sided_iterate(self, x_bar, b) -> np.ndarray:
        """Map a two-sided-projected-system iterate to an original-system iterate."""
        self._require_minimizing("correct_two_sided_iterate")
        x_bar = linalg.as_vector(x_bar, self.dim)
        b = linalg.as_vector(b, self.dim)
        self.apply_counts["corrections"] += 1
        ub = self._solve_coupling(self.u.conj().T @ b)
        inner_term = self.project_residual(x_bar) + self.w @ ub
        coarse = self.u @ self._solve_coupling(self.u.conj().T @ self.a_product(b))
        return self.project_solution(inner_term) + coarse

    def adapted_initial_guess(self, x0, b) -> np.ndarray:
        """Initial guess that makes the left-projected run match the two-sided one."""
        self._require_minimizing("adapted_initial_guess")
        x0 = linalg.as_vector(x0, self.dim)
        b = linalg.as_vector(b, self.dim)
        return self.project_residual(x0) + self.w @ self._solve_coupling(self.u.conj().T @ b)

    def initial_correction(self, x_prev, b) -> np.ndarray:
        """Shift an initial guess so its residual is orthogonal to the basis.

        Residual-orthogonal mode only; the returned guess leaves an exact
        solution untouched.
        """
        if self.mode is not GalerkinMode.RESIDUAL_ORTHOGONAL:
            raise ModeMismatchError("initial_correction requires residual-orthogonal mode")
        x_prev = linalg.as_vector(x_prev, self.dim)
        b = linalg.as_vector(b, self.dim)
        return x_prev + self.coarse_solve(b - self.a_product(x_prev))

    def dense_deflated_matrix(self) -> np.ndarray:
        """Densely formed left-projected matrix, for analysis and tests only."""
        return self.a - self.w @ self._solve_coupling(self._bu.conj().T @ self.a)

    def _require_minimizing(self, name: str):
        if self.mode is not GalerkinMode.RESIDUAL_MINIMIZING:
            raise ModeMismatchError(f"{name} requires residual-minimizing mode")

    def __repr__(self):
        return f"<Deflator dim={self.dim} k={self.k} mode={self.mode.value}>"
