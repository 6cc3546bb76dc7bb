"""Dense linear algebra kernels shared by all higher-level modules.

Vectors are 1-d and matrices 2-d numpy arrays.  Their field is decided by
their data (:func:`in_field`): an array with no nonzero imaginary part is
float64, even when it arrives typed complex, and any other array is
complex128.  A real system is therefore solved in real arithmetic, at about
half the cost per matrix-vector product of complex arithmetic.
Factorizations are delegated to LAPACK through numpy/scipy; this module
enforces the pivot and symmetry tolerances the rest of the library relies on.

The solve path looks at a dense square matrix once, through
:class:`SquareMatrix`: one conversion, one reduction that gives the entry
scale and rejects a non-finite entry, one exact test of ``a == a^H`` that
chooses the product kernel, and an estimate of ||a||_2 from products alone
when a caller asks for it.  No caller repeats a pass over the matrix.

Two kinds of norm live here.  :func:`spectral_norm`, :func:`hermitian_defect`
and :func:`is_hermitian` are exact (a dense SVD) and serve as oracles for
analysis, the check suites and the tests.  The solve path sizes a matrix with
:attr:`SquareMatrix.norm` instead, which never forms an n-by-n SVD.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

#: Relative pivot threshold below which a dense factorization is declared singular.
SINGULARITY_THRESHOLD = 1e-14

#: Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOLERANCE = 1e-12

#: Relative accuracy asked of ARPACK for the largest eigenvalue of a^H a.
_NORM_ESTIMATE_TOLERANCE = 1e-3
#: ARPACK restarts before the estimate gives up and takes the exact norm.
_NORM_ESTIMATE_RESTARTS = 10
#: Below this dimension an SVD is cheaper than the estimate and is used instead.
_EXACT_NORM_BELOW = 32
#: Smallest order at which a symmetric matrix is applied through one triangle.
_SYMV_FROM = 32


class SingularMatrixError(ValueError):
    """A dense factorization produced a pivot below the singularity threshold."""


def in_field(x) -> np.ndarray:
    """``x`` as an array in its field: float64 when no entry has a nonzero
    imaginary part, complex128 otherwise.

    A float64 array is returned as is; a complex array with zero imaginary
    part comes back as a contiguous float64 copy of its real part.
    """
    x = np.asarray(x)
    if x.dtype == np.float64:
        return x
    if x.dtype.kind == "c":
        if x.imag.any():
            return x.astype(np.complex128, copy=False)
        return x.real.astype(np.float64, order="C")
    return x.astype(np.float64)


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Return ``x`` as a 1-d array in its field (:func:`in_field`),
    optionally checking its length."""
    v = in_field(x)
    if v.ndim == 2 and 1 in v.shape:
        v = v.ravel()
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {np.shape(x)}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {v.shape[0]}")
    return v


def as_matrix(a) -> np.ndarray:
    """Return ``a`` as a 2-d array in its field (:func:`in_field`); a vector
    becomes one column."""
    m = in_field(a)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {np.shape(a)}")
    return m


def inner(x, y) -> complex:
    """Inner product x^H y; the first argument is conjugated."""
    x = as_vector(x)
    y = as_vector(y, x.shape[0])
    return complex(np.vdot(x, y))


def vector_norm(x) -> float:
    return float(np.linalg.norm(x))


def spectral_norm(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def hermitian_defect(a) -> float:
    """Spectral norm of a - a^H."""
    a = as_matrix(a)
    return spectral_norm(a - a.conj().T)


def is_hermitian(a, tol: float = HERMITIAN_TOLERANCE) -> bool:
    """Exact test ||a - a^H||_2 <= tol * ||a||_2 by two SVDs (an oracle)."""
    a = as_matrix(a)
    return hermitian_defect(a) <= tol * max(spectral_norm(a), np.finfo(float).tiny)


class SquareMatrix:
    """The facts set-up needs about a dense square matrix, from one look at it.

    ``a`` is the matrix in the common field of its data and ``field``
    (:func:`as_matrix`), kept by reference where no conversion is needed; it
    must not be mutated afterwards.  Construction makes one reduction for the
    largest entry modulus, which also rejects a non-finite entry, and one test
    of ``a == a^H`` bit for bit; it copies a real ``a`` nowhere.

    ``product`` is x -> a @ x: BLAS ``dsymv`` on one triangle for a float64
    ``a`` of order at least 32 that passed the exact test (read through the
    F-contiguous view ``a.T``; a non-contiguous ``a`` is copied once), and
    ``a @ x`` for any other, so a nearly symmetric ``a`` is never replaced by
    a triangle.  A complex ``x`` against a real ``a`` is multiplied by its
    real and imaginary parts.  ``norm`` and ``hermitian`` are computed on
    first use.
    """

    def __init__(self, a, field=np.float64):
        a = as_matrix(a)
        a = a.astype(np.result_type(a, field), copy=False)
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if a.dtype.kind == "c":
            scale = np.abs(a).max(initial=0.0)
        else:
            scale = np.maximum(a.max(initial=0.0), -a.min(initial=0.0))
        if not np.isfinite(scale):      # NaN propagates through max and min
            raise ValueError("matrix entries must be finite")
        self.a = a
        self._scale = float(scale)
        self._exactly_hermitian = np.array_equal(a, a.conj().T)
        if a.dtype == np.float64 and self._exactly_hermitian and a.shape[0] >= _SYMV_FROM:
            triangle = a.T if a.flags.c_contiguous else np.asfortranarray(a)
            real = functools.partial(scipy.linalg.blas.dsymv, 1.0, triangle)
        else:
            real = a.__matmul__
        if a.dtype.kind == "c":
            self.product = real
            return

        def apply(x):
            if x.dtype.kind == "c":
                return real(x.real) + 1j * real(x.imag)
            return real(x)
        self.product = apply

    @functools.cached_property
    def norm(self) -> float:
        """Estimate of ||a||_2 from below, without an n-by-n SVD.

        The square root of ARPACK's largest Ritz value of s^H s, s = a divided
        by its largest entry modulus, from a seeded start to about 1e-3
        relative.  A product with s is ``product`` of the vector divided by
        that modulus, so nothing under- or overflows and no scaled copy of
        ``a`` is made.  Below order 32, and when ARPACK fails or does not
        converge in a few restarts, it is the exact :func:`spectral_norm`.
        """
        a, scale, n = self.a, self._scale, self.a.shape[0]
        if scale == 0.0:
            return 0.0
        if n < _EXACT_NORM_BELOW:
            return spectral_norm(a)
        scaled = lambda v: self.product(v / scale)  # noqa: E731
        if self._exactly_hermitian:
            gram = lambda v: scaled(scaled(v))  # noqa: E731
        else:
            # s^H (s v) as conj(conj(s v) @ s) needs no conjugated copy of a.
            gram = lambda v: ((scaled(v) / scale).conj() @ a).conj()  # noqa: E731
        gram = scipy.sparse.linalg.LinearOperator((n, n), matvec=gram, dtype=a.dtype)
        start = np.random.default_rng(0).standard_normal(n)
        try:
            ritz = scipy.sparse.linalg.eigsh(
                gram, k=1, v0=start, tol=_NORM_ESTIMATE_TOLERANCE,
                maxiter=_NORM_ESTIMATE_RESTARTS, return_eigenvectors=False)
        except scipy.sparse.linalg.ArpackError:
            return spectral_norm(a)
        return float(np.sqrt(max(ritz[0], 0.0))) * scale

    @functools.cached_property
    def hermitian(self) -> bool:
        """True for an ``a`` equal to a^H bit for bit, with no estimate.  Any
        other ``a`` is Hermitian when ||s - s^H||_F <= HERMITIAN_TOLERANCE *
        ``norm`` of s, on the scaled values s of :attr:`norm` so that the
        difference cannot underflow.  As ||.||_F >= ||.||_2 and the estimate
        is a lower bound, this accepts nothing :func:`is_hermitian` rejects.
        """
        if self._exactly_hermitian:
            return True
        defect = self.a - self.a.conj().T
        defect /= self._scale
        return bool(np.linalg.norm(defect) <= HERMITIAN_TOLERANCE * (self.norm / self._scale))


@dataclass(frozen=True)
class GivensRotation:
    """Unitary 2x2 rotation [[c, s], [-conj(s), c]] with real c and |c|^2+|s|^2=1.

    ``s`` and ``r`` are real floats for a real rotation, complex otherwise.
    """

    c: float
    s: complex
    r: complex

    def apply(self, f: complex, g: complex) -> tuple[complex, complex]:
        return (
            self.c * f + self.s * g,
            -np.conj(self.s) * f + self.c * g,
        )


def make_givens(f: complex, g: complex) -> GivensRotation:
    """Rotation annihilating ``g`` against ``f``: it maps (f, g) to (r, 0).

    The rotation is real when ``f`` and ``g`` are.
    """
    field = complex if isinstance(f, complex) or isinstance(g, complex) else float
    f = field(f)
    g = field(g)
    if g == 0:
        return GivensRotation(1.0, field(0.0), f)
    if f == 0:
        ag = abs(g)
        return GivensRotation(0.0, np.conj(g) / ag, ag)
    af = abs(f)
    d = np.hypot(af, abs(g))
    phase = f / af
    return GivensRotation(af / d, phase * np.conj(g) / d, phase * d)


def givens_qr_step(column, prior_rotations) -> tuple[np.ndarray, GivensRotation]:
    """One column update of a running QR factorization by Givens rotations.

    ``column`` holds the new nonzero column segment; ``prior_rotations[i]`` is
    applied to entries (i, i+1) in order, then a new rotation is generated to
    annihilate the last entry against the second-to-last.  Returns the updated
    column (last entry zeroed) and the new rotation, both real when the column
    and the prior rotations are.
    """
    rotations = list(prior_rotations)
    complex_field = (np.iscomplexobj(column)
                     or any(isinstance(rot.s, complex) for rot in rotations))
    col = np.array(column, dtype=np.complex128 if complex_field else np.float64)
    if col.ndim != 1 or col.shape[0] < 2:
        raise ValueError("column must be a vector with at least two entries")
    if len(rotations) != col.shape[0] - 2:
        raise ValueError(
            f"need {col.shape[0] - 2} prior rotations for a column of "
            f"length {col.shape[0]}, got {len(rotations)}"
        )
    for i, rot in enumerate(rotations):
        col[i], col[i + 1] = rot.apply(col[i], col[i + 1])
    rot = make_givens(col[-2], col[-1])
    col[-2] = rot.r
    col[-1] = 0.0
    return col, rot


def random_orthogonal(n: int, seed) -> np.ndarray:
    """Seeded random real orthogonal matrix (float64).

    QR of a standard-normal matrix with the signs of diag(R) fixed, which
    makes the draw deterministic and Haar-like.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Eigenvalues in ascending order and a unitary matrix of eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(a, tol: float = HERMITIAN_TOLERANCE) -> HermitianEigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Raises ValueError when the input is not Hermitian within ``tol`` relative
    to its spectral norm.  Intended as an analysis/test oracle, not for the
    solver hot path.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not is_hermitian(a, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, q = np.linalg.eigh(0.5 * (a + a.conj().T))
    return HermitianEigenDecomposition(w, q)


def lu_factor_checked(a, threshold: float = SINGULARITY_THRESHOLD, scale: float | None = None):
    """Pivoted LU factorization that raises SingularMatrixError on tiny pivots.

    ``scale`` sets the magnitude the pivots are measured against; it defaults
    to the matrix's own spectral norm but callers that know the natural size
    of the entries (e.g. a coupling matrix that may be numerically zero)
    should pass it explicitly.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    if scale is None:
        scale = spectral_norm(a)
    scale = max(scale, np.finfo(float).tiny)
    pivots = np.abs(np.diag(lu))
    if pivots.size and float(pivots.min()) < threshold * scale:
        raise SingularMatrixError(
            f"smallest pivot {pivots.min():.3e} below {threshold:g} * {scale:.3e}"
        )
    return lu, piv


def solve_dense(a, b) -> np.ndarray:
    """Solve a small dense square system, rejecting numerically singular input."""
    a = as_matrix(a)
    b = as_vector(b, a.shape[0])
    lu_piv = lu_factor_checked(a)
    return scipy.linalg.lu_solve(lu_piv, b)


def cholesky_factor_checked(e, threshold: float = SINGULARITY_THRESHOLD,
                            scale: float | None = None):
    """Cholesky factorization of a Hermitian positive definite matrix.

    Raises SingularMatrixError when the matrix is not positive definite or a
    pivot (squared diagonal of L) falls below the relative threshold; see
    :func:`lu_factor_checked` for the ``scale`` convention.
    """
    e = as_matrix(e)
    e = 0.5 * (e + e.conj().T)
    try:
        factor = scipy.linalg.cho_factor(e, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Cholesky factorization failed: {exc}") from exc
    if scale is None:
        scale = spectral_norm(e)
    scale = max(scale, np.finfo(float).tiny)
    pivots = np.diag(factor[0]).real ** 2
    if pivots.size and float(pivots.min()) < threshold * scale:
        raise SingularMatrixError(
            f"smallest Cholesky pivot {pivots.min():.3e} below {threshold:g} * {scale:.3e}"
        )
    return factor


def orthonormal_basis(a) -> np.ndarray:
    """Orthonormal basis of the column span (SVD-based, rank-revealing)."""
    return scipy.linalg.orth(as_matrix(a))


def principal_angles(x, y) -> np.ndarray:
    """Principal angles in radians between the column spans of x and y, ascending.

    Uses the combined sine/cosine formulation, which stays accurate for
    angles near zero where a plain arccos of singular values loses half the
    working precision.
    """
    angles = scipy.linalg.subspace_angles(as_matrix(x), as_matrix(y))
    return np.sort(np.clip(angles, 0.0, np.pi / 2))
