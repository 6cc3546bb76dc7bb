"""Deterministic generators for the library's benchmark problems.

Every generator is a pure function of its parameters and seed.  Index
arguments that select eigenvector columns are 1-based, matching the usual
subscript convention in the numerical linear algebra literature; storage is
0-based internally.  Every generated system is real and stored float64, so it
is solved in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass
class TestProblem:
    """A linear system together with optional ground-truth data.

    ``eigenvectors`` holds the full eigenvector matrix when the construction
    knows it (column j pairs with ``known_spectrum`` entry of the same
    construction index, not with the sorted spectrum).
    """

    a: np.ndarray
    b: np.ndarray
    x0: np.ndarray
    u: np.ndarray | None = None
    known_solution: np.ndarray | None = None
    known_spectrum: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    seed: int = 0
    label: str = ""

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def symmetric_indefinite_problem(m: int, seed: int = 0) -> TestProblem:
    """Real symmetric indefinite 2m-by-2m system with spectrum {±sqrt(j)}.

    The matrix is assembled as w diag(lambda) w^T from a seeded random
    orthogonal w, so column j of w is exactly the eigenvector for
    lambda_j = sqrt(j) (j = 1..m) and column m+j the one for -sqrt(j).
    The right-hand side is a seeded standard-normal vector normalized to
    unit length; the initial guess is zero.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    ss = np.random.SeedSequence(seed)
    ss_w, ss_b = ss.spawn(2)
    n = 2 * m
    w = linalg.random_orthogonal(n, ss_w)
    lam = np.concatenate([np.sqrt(np.arange(1, m + 1)),
                          -np.sqrt(np.arange(1, m + 1))])
    a = (w * lam) @ w.conj().T
    a = 0.5 * (a + a.conj().T)
    b = np.random.default_rng(ss_b).standard_normal(n)
    b /= linalg.vector_norm(b)
    return TestProblem(
        a=a,
        b=b,
        x0=np.zeros(n),
        known_spectrum=lam.copy(),
        eigenvectors=w,
        seed=seed,
        label=f"symmetric-indefinite(m={m})",
    )


def eigenvector_basis(problem: TestProblem, indices) -> np.ndarray:
    """Selected eigenvector columns (1-based indices) as a deflation basis."""
    if problem.eigenvectors is None:
        raise ValueError("problem carries no eigenvector matrix")
    idx = _validate_indices(indices, problem.eigenvectors.shape[1])
    return problem.eigenvectors[:, idx - 1].copy()


def breakdown_prone_basis(problem: TestProblem, indices) -> np.ndarray:
    """Basis of paired opposite-sign eigenvectors, orthogonal to its own image.

    For the symmetric indefinite problem the columns w_i + w_{m+i} span a
    space orthogonal to its image under the matrix (u^H a u = 0), the
    geometry in which left-projected minimal-residual runs can break down.
    Indices must be strictly increasing with 0 < i < m.
    """
    if problem.eigenvectors is None:
        raise ValueError("problem carries no eigenvector matrix")
    n = problem.dim
    if n % 2 != 0:
        raise ValueError("paired basis requires an even-dimensional problem")
    m = n // 2
    idx = _validate_indices(indices, m - 1)
    w = problem.eigenvectors
    return (w[:, idx - 1] + w[:, m + idx - 1]).copy()


def _validate_indices(indices, upper: int) -> np.ndarray:
    idx = np.asarray(list(indices), dtype=int)
    if idx.size == 0:
        raise ValueError("index list must be nonempty")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("indices must be strictly increasing")
    if idx[0] < 1 or idx[-1] > upper:
        raise IndexError(f"indices must lie in 1..{upper}")
    return idx


def perturb_basis(u, eps: float, seed: int = 0) -> np.ndarray:
    """Add a seeded random complex perturbation of exact spectral norm eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    u = linalg.as_matrix(u)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    e *= eps / linalg.spectral_norm(e)
    return u + e


def toy_breakdown_problem() -> TestProblem:
    """2x2 exchange system whose one-dimensional deflation space is orthogonal
    to its image, the smallest instance on which the left-projected system
    breaks down from a zero initial guess."""
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([1.0, 0.0])
    u = np.array([[1.0], [0.0]])
    return TestProblem(
        a=a,
        b=b,
        x0=np.zeros(2),
        u=u,
        known_solution=np.array([0.0, 1.0]),
        label="toy-breakdown",
    )


def near_invariant_problem(alpha: float) -> TestProblem:
    """3x3 system where the deflation space is within distance alpha of an
    exact eigenvector yet still admits first-step breakdowns.

    [0, 1, alpha] is an eigenvector for eigenvalue 1; the basis used is the
    perturbed vector [0, 1, 0].
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    inv = 1.0 / alpha
    a = np.array([[0.0, 1.0, -inv],
                  [1.0, 0.0, inv],
                  [0.0, 0.0, 1.0]])
    u = np.array([[0.0], [1.0], [0.0]])
    x = np.ones(3)
    return TestProblem(
        a=a,
        b=a @ x,
        x0=np.zeros(3),
        u=u,
        known_solution=x,
        label=f"near-invariant(alpha={alpha:g})",
    )


def clustered_spd_problem(n: int = 80, n_outliers: int = 5, seed: int = 0,
                          outlier_scale: float = 1e-3) -> TestProblem:
    """Hermitian positive definite system with a few small outlying
    eigenvalues below a well-conditioned cluster, the standard setting in
    which deflating the outliers accelerates conjugate gradients."""
    if not 0 < n_outliers < n:
        raise ValueError("need 0 < n_outliers < n")
    ss = np.random.SeedSequence(seed)
    ss_w, ss_b = ss.spawn(2)
    w = linalg.random_orthogonal(n, ss_w)
    rng = np.random.default_rng(ss_b)
    outliers = outlier_scale * (1.0 + np.arange(n_outliers, dtype=float))
    cluster = 1.0 + rng.uniform(0.0, 1.0, size=n - n_outliers)
    lam = np.concatenate([outliers, np.sort(cluster)])
    a = (w * lam) @ w.conj().T
    a = 0.5 * (a + a.conj().T)
    b = rng.standard_normal(n)
    b /= linalg.vector_norm(b)
    return TestProblem(
        a=a,
        b=b,
        x0=np.zeros(n),
        known_spectrum=lam.copy(),
        eigenvectors=w,
        seed=seed,
        label=f"clustered-spd(n={n})",
    )
