"""Deflation apparatus built from an augmentation basis.

Given a square matrix ``a`` and a basis ``u`` of the augmentation space, the
:class:`Deflator` Cholesky-factors the small coupling matrix once and then
provides the residual projector and every iterate-correction formula the
deflated solvers need; the solution projector is the correction of b = 0.
Two Galerkin modes are supported: residual-orthogonal (test space equals the
search space; requires a Hermitian positive definite matrix, so the coupling
u^H a u is one too) and residual-minimizing (test space is the matrix image
of the search space; works for any nonsingular matrix, whose coupling w^H w
with w = a u is Hermitian positive definite).
A correction sees ``a`` only through the k-by-n matrix B^H a of the test
basis B, formed at set-up, so it costs O(n k) and no product with ``a``.
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

    This is the hard precondition of the whole construction.  Both couplings
    are Hermitian positive semidefinite, so one is singular only where a u
    is: where the basis is rank deficient or ``a`` annihilates part of it.
    """


class Deflator:
    """Projection and correction toolbox for one (matrix, basis, mode) triple.

    The thin product w = a @ u, a Cholesky factor of the k-by-k coupling
    matrix E = B^H a u and the k-by-n matrix B^H a, with B = u in
    residual-orthogonal and B = w in residual-minimizing mode, are cached at
    construction.  B^H a is the view w^H for a residual-orthogonal ``a``
    Hermitian bit for bit, one more thin product otherwise (always in
    residual-minimizing mode).  Both set-up products are taken with ``@`` on
    the array, not through ``a_product``: its block product returns w
    column-major and, at some orders, in other bits, which would move every
    later projection.  So a count of ``a_product``'s products leaves them
    out.  Every projector application and correction costs O(n k): a small
    solve plus thin products.  After set-up no method multiplies by ``a``;
    the projected operators and the deflated right-hand sides do, through
    ``a_product``.  ``a`` is kept by reference and must not be mutated.
    Instances are immutable apart from the diagnostic apply counters.

    Set-up looks at ``a`` once, through one :class:`linalg.SquareMatrix`,
    which gives ``a_product``, ``a_hermitian``, the HPD verdict of
    residual-orthogonal mode (``check_hpd``) and the size of ``a`` that
    scales the pivot tests of that verdict and of the coupling factorization.
    Each test judges its smallest pivot first against the free bound
    n max|a_ij| >= ||a||_2; only a pivot that fails there asks for the
    estimate of ||a||_2, a lower bound to about 1e-3 relative made from
    products with ``a``, which then decides.  So a well-conditioned set-up
    costs its factorizations and no estimate, and every test accepts and
    rejects exactly as it would against the estimate: up to 1e-3 looser than
    with the exact norm (2e-3 where the scale holds ||a||_2 squared).  The
    n-by-k basis enters the free bound as ||u||_F >= ||u||_2 and the decisive
    scale as ||u||_2 itself, an SVD taken only when the bound fails.

    ``a``, ``u``, ``w`` and the coupling factor are kept in the common field
    of ``a`` and ``u`` (:func:`linalg.as_matrix`), so a real system is
    factored and projected in real arithmetic.  The methods also accept
    vectors of the other field: a complex vector against a real deflator is
    projected as its real and imaginary parts.
    """

    def __init__(self, a, u, mode: GalerkinMode):
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
        self.a_hermitian = matrix.hermitian
        self.u = u
        self.w = a @ u

        # The coupling matrix can be numerically zero for adversarial bases,
        # so the singularity test measures its pivots against the natural
        # problem scale rather than against the coupling matrix itself.
        if mode is GalerkinMode.RESIDUAL_ORTHOGONAL:
            try:
                matrix.check_hpd()
            except SingularMatrixError as exc:
                raise ValueError("residual-orthogonal mode requires a Hermitian positive "
                                 "definite matrix") from exc
            self._bu = self.u
            self.coupling = self.u.conj().T @ self.w
            coupling_scale = lambda a_norm, u_norm: a_norm * u_norm**2  # noqa: E731
        elif mode is GalerkinMode.RESIDUAL_MINIMIZING:
            self._bu = self.w
            self.coupling = self.w.conj().T @ self.w
            coupling_scale = lambda a_norm, u_norm: (a_norm * u_norm) ** 2  # noqa: E731
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self._bu_h = self._bu.conj().T
        # u^H a is w^H only for an a^H equal to a bit for bit.
        self._bu_h_a = (self.w.conj().T if mode is GalerkinMode.RESIDUAL_ORTHOGONAL
                        and matrix.exactly_hermitian else self._bu_h @ a)

        try:
            c, lower = linalg.cholesky_factor_checked(self.coupling, scale=(
                coupling_scale(matrix.bound, linalg.vector_norm(self.u)),
                lambda: coupling_scale(matrix.norm, linalg.spectral_norm(self.u))))
        except SingularMatrixError as exc:
            raise SingularCouplingError(
                f"coupling matrix is numerically singular ({exc})"
            ) from exc
        # The factor is solved against by LAPACK directly: the routine scipy's
        # cho_solve calls, without its per-call checks.  A coupling matrix
        # with no imaginary part is factored real; its factor is kept in the
        # deflator's field all the same.
        c = c.astype(a.dtype, copy=False)
        potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (c,))
        self._coupling_lapack = functools.partial(potrs, c, lower=lower)

        self.apply_counts = {"project_residual": 0, "corrections": 0}

    def _solve_coupling(self, rhs) -> np.ndarray:
        if rhs.dtype.kind == "c" and self.a.dtype.kind != "c":
            return self._solve_coupling(rhs.real) + 1j * self._solve_coupling(rhs.imag)
        x, info = self._coupling_lapack(rhs)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of the coupling solve")
        return x

    # -- projector and corrections ------------------------------------------

    def project_residual(self, v) -> np.ndarray:
        """Residual projector: annihilates the image of the basis under ``a``.

        Applied to b it gives the right-hand side of the left-projected system.
        """
        if not linalg.is_float_vector(v, self.dim):
            v = linalg.as_vector(v, self.dim)
        self.apply_counts["project_residual"] += 1
        return v - self.w @ self._solve_coupling(self._bu_h @ v)

    def correct_iterate(self, x_hat, b) -> np.ndarray:
        """Map a left-projected-system iterate to an original-system iterate.

        The corrected iterate x = x_hat + u E^-1 (B^H b - (B^H a) x_hat)
        satisfies b - a x = projected residual of x_hat, so an exact deflated
        solution is mapped to the exact solution, with no product with ``a``.
        At b = 0 it is the solution projector Q, which annihilates the
        augmentation space and satisfies P a = a Q for the residual
        projector P.

        ``x_hat`` may also be an n-by-m block of iterates, one per column,
        which is corrected as a whole: one product of B^H a with the block,
        one coupling solve with m right-hand sides and one product with the
        basis.  The result is the block of corrected iterates, each equal to
        its own correction to roundoff, and counts m corrections.
        """
        x_hat = linalg.in_field(x_hat)
        bu_h_b = self._bu_h @ linalg.as_vector(b, self.dim)
        if x_hat.ndim == 2 and x_hat.shape[0] == self.dim:
            count, bu_h_b = x_hat.shape[1], bu_h_b[:, None]
        else:
            count, x_hat = 1, linalg.as_vector(x_hat, self.dim)
        self.apply_counts["corrections"] += count
        # The correction is in the field of x_hat or a wider one, so x_hat is
        # added in place: a block then makes one temporary of its size.
        corrected = self.u @ self._solve_coupling(bu_h_b - self._bu_h_a @ x_hat)
        corrected += x_hat
        return corrected

    def adapted_initial_guess(self, x0, b) -> np.ndarray:
        """The adapted guess P x0 + w E^-1 u^H b, which makes the left-projected
        run from it match the two-sided run from ``x0``.

        Needs a Hermitian ``a``, the only case the two-sided system is built
        for: then w^H = u^H a, and :meth:`correct_iterate` of this map of a
        two-sided iterate is its two-sided correction.  For any other ``a``
        it is not, so it raises ValueError, as it does in residual-orthogonal
        mode, which builds no two-sided system.
        """
        if self.mode is not GalerkinMode.RESIDUAL_MINIMIZING:
            raise ValueError("adapted_initial_guess requires residual-minimizing mode")
        if not self.a_hermitian:
            raise ValueError("adapted_initial_guess requires a Hermitian matrix")
        x0 = linalg.as_vector(x0, self.dim)
        b = linalg.as_vector(b, self.dim)
        return self.project_residual(x0) + self.w @ self._solve_coupling(self.u.conj().T @ b)

    def initial_correction(self, x_prev, b) -> np.ndarray:
        """Shift an initial guess so its residual is orthogonal to the basis.

        Residual-orthogonal mode only: in residual-minimizing mode it raises
        ValueError.  The returned guess leaves an exact solution untouched.
        No recipe of :mod:`dkrylov.deflated` uses it: each ends with
        :meth:`correct_iterate`, which maps a run from the shifted guess and
        one from the given guess to the same iterate, as P A U = 0.  It
        serves a caller that skips that final correction.
        """
        if self.mode is not GalerkinMode.RESIDUAL_ORTHOGONAL:
            raise ValueError("initial_correction requires residual-orthogonal mode")
        return self.correct_iterate(x_prev, b)

    def dense_deflated_matrix(self) -> np.ndarray:
        """Densely formed left-projected matrix, for analysis and tests only."""
        return self.a - self.w @ self._solve_coupling(self._bu_h_a)

    def __repr__(self):
        return f"<Deflator dim={self.dim} k={self.k} mode={self.mode.value}>"
