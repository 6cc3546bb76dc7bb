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
chooses the product kernel and, on request, an estimate of ||a||_2 from
products alone and the HPD verdict (:meth:`SquareMatrix.check_hpd`).  Each
:class:`SquareMatrix` makes these passes once; ``deflated.run_methods`` builds
one for its plain variants and one in each mode's :class:`Deflator`.

Three kinds of norm live here.  :func:`spectral_norm`, :func:`hermitian_defect`
and :func:`is_hermitian` are exact (a dense SVD) and serve as oracles for
analysis, the check suites and the tests.  The solve path sizes a matrix with
:attr:`SquareMatrix.bound`, the upper bound ||a||_2 <= n max|a_ij| that the
entry scale gives for free, and with :attr:`SquareMatrix.norm`, an estimate
from below that never forms an n-by-n SVD.  Both checked factorizations
judge a pivot against n max|a_ij| first and ask for their scale (that
estimate, or an SVD) only for a pivot that fails there (:func:`_check_pivot`),
so a well-conditioned matrix is factored without any norm.

Of scipy, only ``scipy.linalg`` is imported with this module.  ARPACK
(``scipy.sparse.linalg``) is imported on first use, by
:attr:`SquareMatrix.norm`, which is asked for only where its free bound
cannot decide: a Hermitian test of a matrix not Hermitian bit for bit, or a
pivot test.  ``scipy.sparse`` is never imported: :func:`as_matrix` asks it
about its argument only when some other code has loaded it.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

import numpy as np
import scipy.linalg

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
#: Smallest sum of squares that :func:`vector_norm` takes as it is.
_TINY = float(np.finfo(np.float64).tiny)


class SingularMatrixError(ValueError):
    """A dense matrix failed a factorization's pivot test or the HPD check."""


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


def is_float_vector(x, n: int) -> bool:
    """True for a float64 ndarray of shape (n,), which :func:`as_vector`
    returns as it is, so that a caller may skip the conversion."""
    return type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (n,)


def as_matrix(a) -> np.ndarray:
    """Return ``a`` as a 2-d array in its field (:func:`in_field`); a vector
    becomes one column.  A scipy.sparse matrix is rejected with a TypeError:
    every kernel here needs a dense array.  No sparse object exists unless
    ``scipy.sparse`` is loaded, so the test asks it only then."""
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(a):
        raise TypeError(f"{type(a).__name__} is not supported: a dense array is required "
                        "(convert it with .toarray())")
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
    """||x||_2 of a float64 or complex128 array, flattened; any other dtype
    goes through ``np.linalg.norm``.

    The square root of the sum of squares, numpy's own formula for
    ``np.linalg.norm(x)`` and equal to it bit for bit, unless that sum is not
    a finite normal number: where squares under- or overflowed (a norm below
    about 1e-154 or above about 1e154) or an entry is not finite, it is the
    largest entry modulus times the norm of x divided by it, whose sum is in
    range.  ``np.vdot`` makes the same BLAS sum as ``x.dot(x)`` without a
    floating-point warning, so an overflow on the way to a finite norm is
    silent.
    """
    x = np.asarray(x)
    if x.dtype == np.float64:
        x = x.ravel(order="K")
        squares = np.vdot(x, x)
    elif x.dtype == np.complex128:
        x = x.ravel(order="K")
        re, im = x.real, x.imag
        squares = float(np.vdot(re, re)) + float(np.vdot(im, im))
    else:
        return float(np.linalg.norm(x))
    if _TINY <= squares < math.inf:
        return math.sqrt(squares)
    scale = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < scale < math.inf:
        return scale
    return scale * vector_norm(x / scale)


def spectral_norm(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def hermitian_defect(a) -> float:
    """Spectral norm of a - a^H."""
    a = as_matrix(a)
    return spectral_norm(a - a.conj().T)


def is_hermitian(a) -> bool:
    """Exact test ||a - a^H||_2 <= HERMITIAN_TOLERANCE * ||a||_2 by two SVDs
    (an oracle)."""
    a = as_matrix(a)
    scale = max(spectral_norm(a), np.finfo(float).tiny)
    return hermitian_defect(a) <= HERMITIAN_TOLERANCE * scale


class SquareMatrix:
    """The facts set-up needs about a dense square matrix, from one look at it.

    ``a`` is the matrix in the common field of its data and ``field``
    (:func:`as_matrix`), kept by reference where no conversion is needed; it
    must not be mutated afterwards.  Construction makes one reduction for the
    largest entry modulus, which also rejects a non-finite entry, and one test
    of ``a == a^H`` bit for bit, ``exactly_hermitian``; it copies a real ``a``
    nowhere.

    ``product`` is x -> a @ x: BLAS ``dsymv`` on one triangle for a float64
    ``a`` of order at least 32 that passed the exact test (read through the
    F-contiguous view ``a.T``; a non-contiguous ``a`` is copied once), and
    ``a @ x`` for any other, so a nearly symmetric ``a`` is never replaced by
    a triangle.  An n-by-k block ``x`` is multiplied by one matrix product.
    A complex ``x`` against a real ``a`` is multiplied by its real and
    imaginary parts.  ``bound`` is n times the largest entry modulus, an
    upper bound on ||a||_F >= ||a||_2 that costs nothing; ``norm`` and
    ``hermitian`` are computed on first use.
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
        self.bound = a.shape[0] * self._scale
        self.exactly_hermitian = np.array_equal(a, a.conj().T)
        if a.dtype == np.float64 and self.exactly_hermitian and a.shape[0] >= _SYMV_FROM:
            triangle = a.T if a.flags.c_contiguous else np.asfortranarray(a)
            vector = functools.partial(scipy.linalg.blas.dsymv, 1.0, triangle)
        else:
            vector = a.__matmul__
        if a.dtype.kind == "c":
            self.product = a.__matmul__
            return

        def block(x):
            # (x^T a^T)^T: the product's columns come out contiguous.
            return (x.T @ a.T).T

        def apply(x):
            real = vector if x.ndim == 1 else block
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
        ARPACK is imported here, on first use, so that a run which never
        estimates a norm never loads ``scipy.sparse.linalg``.
        """
        import scipy.sparse.linalg

        a, scale, n = self.a, self._scale, self.a.shape[0]
        if scale == 0.0:
            return 0.0
        if n < _EXACT_NORM_BELOW:
            return spectral_norm(a)
        scaled = lambda v: self.product(v / scale)  # noqa: E731
        if self.exactly_hermitian:
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
        difference cannot underflow; one that fails against the bound
        n >= ||s||_2 is rejected first, with no estimate.  As ||.||_F >=
        ||.||_2 and the estimate is a lower bound, this accepts nothing
        :func:`is_hermitian` rejects."""
        if self.exactly_hermitian:
            return True
        defect = self.a - self.a.conj().T
        defect /= self._scale
        defect = np.linalg.norm(defect)
        return bool(defect <= HERMITIAN_TOLERANCE * self.a.shape[0]
                    and defect <= HERMITIAN_TOLERANCE * (self.norm / self._scale))

    def check_hpd(self) -> None:
        """Raise SingularMatrixError unless ``a`` is :attr:`hermitian` and its
        :func:`cholesky_factor_checked` succeeds: the exact HPD verdict."""
        if not self.hermitian:
            raise SingularMatrixError("matrix is not Hermitian")
        cholesky_factor_checked(self)


def make_givens(f, g):
    """``(c, s, r)``: the rotation [[c, s], [-conj(s), c]], real c and
    |c|^2 + |s|^2 = 1, that maps (f, g) to (r, 0); real for real f and g."""
    if g == 0:
        return 1.0, 0.0, f
    if f == 0:
        ag = abs(g)
        return 0.0, g.conjugate() / ag, ag
    af = abs(f)
    d = float(np.hypot(af, abs(g)))
    phase = f / af
    return af / d, phase * g.conjugate() / d, phase * d


def givens_cascade(column, c, s):
    """One column update of a running QR factorization by Givens rotations.

    ``column`` is a list of Python numbers, the new nonzero column segment,
    updated in place: the prior rotation ``(c[i], s[i])`` of the sequences
    ``c``, ``s``, ``len(column) - 2`` of them, is applied to entries
    (i, i+1) in order, then a new rotation (:func:`make_givens`) annihilates
    the last entry against the second-to-last.  Returns the new rotation's
    ``c`` and ``s``.  Python's float arithmetic is the IEEE arithmetic of
    numpy's, so a column in a run's field updates bit for bit as its array
    would."""
    m = len(column) - 2
    f = column[0]
    for i, (ci, si) in enumerate(zip(c, s)):
        g = column[i + 1]
        column[i] = ci * f + si * g
        f = -si.conjugate() * f + ci * g
    c_new, s_new, column[m] = make_givens(f, column[m + 1])
    column[m + 1] = 0.0
    return c_new, s_new


def random_orthogonal(n: int, seed) -> np.ndarray:
    """Seeded random real orthogonal matrix (float64, C-ordered).

    QR of a standard-normal matrix with the signs of diag(R) fixed, which
    makes the draw deterministic and Haar-like.  LAPACK ``geqrf`` factors a
    Fortran-ordered copy of the draw in place, and ``orgqr`` forms Q over it
    once the signs are read from its diagonal, so at most two n-by-n arrays
    are alive at once.  Each takes the workspace of its size query, as
    ``scipy.linalg.qr`` does: the blocking, and so Q's bits, depend on it.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    a = np.asfortranarray(np.random.default_rng(seed).standard_normal((n, n)))
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (a,))
    lwork = int(geqrf(a, lwork=-1, overwrite_a=True)[2][0])
    qr, tau, _, _ = geqrf(a, lwork=lwork, overwrite_a=True)
    d = np.sign(qr.diagonal())
    d[d == 0] = 1.0
    lwork = int(orgqr(qr, tau, lwork=-1, overwrite_a=True)[1][0])
    q = orgqr(qr, tau, lwork=lwork, overwrite_a=True)[0]
    q *= d
    # Products with an F-ordered q round differently from those with a
    # C-ordered one at some orders (n = 100); q is returned C-ordered.
    return np.ascontiguousarray(q)


def assemble_hermitian(q, lam) -> np.ndarray:
    """q diag(lam) q^H, symmetrized to be exactly Hermitian.

    The product is averaged with its conjugate transpose, so that the result
    equals its conjugate transpose bit for bit and a real one is applied
    through one triangle (:class:`SquareMatrix`).  The sum is halved in
    place: the bits of 0.5 (a + a^H), with at most three n-by-n arrays
    alive (q, the product and the sum) instead of four.
    """
    a = (q * lam) @ q.conj().T
    a = a + a.conj().T
    a *= 0.5
    return a


def _check_pivot(smallest: float, bound: float, exact, what: str) -> None:
    """Raise SingularMatrixError when ``smallest`` < SINGULARITY_THRESHOLD
    times the scale ``exact()``, of which ``bound`` is an upper bound;
    ``exact`` is called only for ``smallest`` below that times the bound.  A
    pivot that passes against an upper bound passes against the scale
    itself, so the decision and its message are always the scale's."""
    tiny = np.finfo(float).tiny
    if smallest >= SINGULARITY_THRESHOLD * max(bound, tiny):
        return
    scale = max(exact(), tiny)
    if smallest < SINGULARITY_THRESHOLD * scale:
        raise SingularMatrixError(
            f"smallest {what} {smallest:.3e} below {SINGULARITY_THRESHOLD:g} * {scale:.3e}"
        )


def lu_factor_checked(a):
    """Pivoted LU factorization that raises SingularMatrixError on a pivot
    below SINGULARITY_THRESHOLD times ||a||_2, bounded by n max|a_ij| first."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    pivots = np.abs(np.diag(lu))
    if pivots.size:
        _check_pivot(float(pivots.min()), a.shape[0] * float(np.abs(a).max()),
                     lambda: spectral_norm(a), "pivot")
    return lu, piv


def cholesky_factor_checked(e, scale=None):
    """Cholesky factorization of a Hermitian positive definite matrix.

    Raises SingularMatrixError when the matrix is not positive definite or a
    pivot (squared diagonal of L) falls below SINGULARITY_THRESHOLD times the
    ``scale``, a pair (bound, exact) as in :func:`_check_pivot`, which an
    array ``e`` requires: its caller knows the natural size of the entries
    (a coupling matrix may be numerically zero).  The factor is that of the
    Hermitian part 0.5 (e + e^H).

    ``e`` may be a :class:`SquareMatrix`, whose scale defaults to the pair
    (``bound``, ``norm``), so that its estimate is made only for a pivot
    close to the threshold.  One that is exactly Hermitian is its own
    Hermitian part and is already known to be finite, so LAPACK factors its
    data directly, without the symmetrized copy or a second scan.
    """
    exact = False
    if isinstance(e, SquareMatrix):
        matrix, e, exact = e, e.a, e.exactly_hermitian
        if scale is None:
            scale = (matrix.bound, lambda: matrix.norm)
        # a.T equals a bit for bit; for a real C-ordered a it is the
        # Fortran-ordered matrix LAPACK reads, so the copy is a plain one.
        if exact and e.dtype.kind == "f" and e.flags.c_contiguous:
            e = e.T
    elif scale is None:
        raise TypeError("an array needs its pivot scale, a (bound, exact) pair")
    if not exact:
        e = as_matrix(e)
        e = 0.5 * (e + e.conj().T)
    try:
        factor = scipy.linalg.cho_factor(e, lower=True, check_finite=not exact)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Cholesky factorization failed: {exc}") from exc
    pivots = np.diag(factor[0]).real ** 2
    if pivots.size:
        _check_pivot(float(pivots.min()), *scale, "Cholesky pivot")
    return factor


def principal_angles(x, y) -> np.ndarray:
    """Principal angles in radians between the column spans of x and y, ascending.

    An angle whose cosine squared is at least 1/2 is the arcsine of its sine,
    the others the arccosine of their cosine (Knyazev and Argentati, 2002), the
    i-th largest cosine paired with the i-th smallest sine; y's surplus sines
    are 1.  ``scipy.linalg.subspace_angles`` pairs them the other way round.
    """
    qx, qy = scipy.linalg.orth(as_matrix(x)), scipy.linalg.orth(as_matrix(y))
    coupling = qx.conj().T @ qy
    cosines = np.clip(scipy.linalg.svdvals(coupling), 0.0, 1.0)
    sines = np.clip(scipy.linalg.svdvals(qy - qx @ coupling)[::-1][:len(cosines)], 0.0, 1.0)
    return np.sort(np.where(cosines ** 2 >= 0.5, np.arcsin(sines), np.arccos(cosines)))
