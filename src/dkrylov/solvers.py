"""Base Krylov iterations: CG, MINRES and GMRES over a LinearOperator.

All three solvers record the explicitly computed residual norm ||b - op x_n||
per iteration by default (recurrence estimates are kept alongside for
cross-checking), classify termination into converged / breakdown / stagnated /
max-iterations, and never silently return a breakdown as success.  Without
per-iteration explicit residuals, a run that converges by its recurrence
residual records the explicit residual of its final iterate instead, and is
reported as stagnated if that misses the tolerance.

MINRES and GMRES are one minimal-residual iteration that differs only in how
the Krylov basis grows: by the Lanczos or by the Arnoldi recurrence.

A *breakdown* means the Krylov basis cannot be continued while the residual
is still above tolerance.  When the continuation vector vanishes, the last
step is committed only if its pivot in the least-squares factor is
numerically nonzero relative to the operator's scale and its recurrence
residual meets the tolerance; the committed iterate is reported as converged
if its explicit residual meets the tolerance too, and as stagnated if not,
which happens on a nonsingular system whose tolerance lies below the accuracy
attainable at its condition number (A = Q diag(1, -2, 1e-8) Q^H,
b = Q (1, 1, 1) stagnates at step 3 with ||b - A x|| about 1e-8 under the
default tolerance).  Otherwise the run is frozen at the last valid iterate
and reported as a breakdown; singular systems, such as the left-projected
deflated systems, are the usual cause.
"""

from __future__ import annotations

import collections
import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import linalg
from .operators import LinearOperator, dense_operator

#: Consecutive-iteration window of the stagnation rule.
STAGNATION_WINDOW = 50

#: Minimum improvement factor of the best residual over one window; less
#: improvement than this while above tolerance flags stagnation.
STAGNATION_FACTOR = 10.0 ** (-1.0 / STAGNATION_WINDOW)


class IndefiniteOperatorError(RuntimeError):
    """CG observed a direction of negative curvature; the operator is not
    positive semidefinite."""


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    BREAKDOWN = "breakdown"
    STAGNATED = "stagnated"
    MAX_ITERATIONS = "max-iterations"


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances and bookkeeping switches shared by all solvers.

    ``residual_tolerance`` is relative to max(||r0||, ||b||).
    ``breakdown_threshold`` is the relative cutoff below which a Lanczos or
    Arnoldi continuation vector counts as vanished, and below which a pivot
    of the least-squares factor counts as zero.
    ``reorthogonalize`` requests full reorthogonalization in MINRES: every
    new Lanczos vector is orthogonalized against all stored ones.  MINRES
    always reorthogonalizes partially (see :func:`minres_solve`); this switch
    makes it do so on every step.  GMRES orthogonalizes every Arnoldi vector
    twice regardless, so the switch does not affect it.
    """

    residual_tolerance: float = 1e-10
    max_iterations: int = 1000
    breakdown_threshold: float = 1e-13
    record_history: bool = True
    explicit_residuals: bool = True
    reorthogonalize: bool = False

    def __post_init__(self):
        if not 0 < self.residual_tolerance < math.inf:     # also rejects NaN
            raise ValueError("residual_tolerance must be positive and finite")
        if not 0 < self.breakdown_threshold < math.inf:
            raise ValueError("breakdown_threshold must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``residual_norms[i]`` is the residual norm at iteration i (index 0 holds
    the initial residual); ``iterates``, when history recording is on, is the
    matching list of approximations.  After a breakdown the report is frozen
    at the last valid iterate and ``breakdown_iteration`` names the step that
    failed.  Iterates come back in the run's field, the common field of the
    operator's ``dtype``, the right-hand side and the initial guess: float64
    for a real system, complex128 otherwise.
    """

    final_iterate: np.ndarray
    residual_norms: np.ndarray
    status: SolveStatus
    iterations_used: int
    breakdown_iteration: int | None = None
    recurrence_residual_norms: np.ndarray | None = None
    iterates: list | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


class _Run:
    """Shared recording / termination bookkeeping for one solver run."""

    def __init__(self, op, b, x0, cfg):
        self.op = op
        self.b = b
        self.cfg = cfg
        self.x = x0.copy()
        self.residual_norms = []
        self.recurrence_norms = []
        self.iterates = [] if cfg.record_history else None
        self.best = collections.deque(maxlen=STAGNATION_WINDOW + 1)

    def record(self, x, recurrence_norm) -> float:
        """Record ``x`` with its residual norm, explicit or the recurrence's."""
        explicit = recurrence_norm
        if self.cfg.explicit_residuals:
            explicit = linalg.vector_norm(self.b - self.op.apply(x))
        self.residual_norms.append(explicit)
        self.recurrence_norms.append(recurrence_norm)
        if self.iterates is not None:
            self.iterates.append(x.copy())
        prev_best = self.best[-1] if self.best else math.inf
        self.best.append(min(prev_best, explicit))
        return explicit

    def start(self, r0_norm) -> float:
        self.denominator = max(r0_norm, linalg.vector_norm(self.b),
                               np.finfo(float).tiny)
        return self.record(self.x, r0_norm)

    def tol_reached(self, value) -> bool:
        return value <= self.cfg.residual_tolerance * self.denominator

    def stagnated(self) -> bool:
        if len(self.best) <= STAGNATION_WINDOW:
            return False
        current = self.best[-1]
        if self.tol_reached(current):
            return False
        return current > self.best[0] * STAGNATION_FACTOR

    def report(self, status, x, breakdown_iteration=None, diagnostics=None) -> SolveReport:
        if status is SolveStatus.CONVERGED and not self.cfg.explicit_residuals:
            self.residual_norms[-1] = linalg.vector_norm(self.b - self.op.apply(x))
            if not self.tol_reached(self.residual_norms[-1]):
                status = SolveStatus.STAGNATED
        return SolveReport(
            final_iterate=x,
            residual_norms=np.asarray(self.residual_norms, dtype=float),
            status=status,
            iterations_used=len(self.residual_norms) - 1,
            breakdown_iteration=breakdown_iteration,
            recurrence_residual_norms=np.asarray(self.recurrence_norms, dtype=float),
            iterates=self.iterates,
            diagnostics=diagnostics or {},
        )


def _prepare(op, b, x0, cfg):
    if isinstance(op, np.ndarray):
        op = dense_operator(op)
    if not isinstance(op, LinearOperator):
        raise TypeError("op must be a LinearOperator or a square ndarray")
    b = linalg.as_vector(b, op.dim)
    x0 = linalg.as_vector(np.zeros(op.dim) if x0 is None else x0, op.dim)
    if not (np.isfinite(b).all() and np.isfinite(x0).all()):
        raise ValueError("right-hand side and initial guess entries must be finite")
    field = np.result_type(op.dtype, b, x0)
    b = b.astype(field, copy=False)
    x0 = x0.astype(field, copy=False)
    cfg = cfg or SolveConfig()
    return op, b, x0, cfg


def cg_solve(op, b, x0=None, cfg: SolveConfig | None = None) -> SolveReport:
    """Conjugate gradients for Hermitian positive (semi)definite operators.

    On a consistent positive semidefinite system the iteration is well defined
    until termination.  A direction of significantly negative curvature raises
    :class:`IndefiniteOperatorError`; a vanishing curvature with the residual
    still above tolerance is reported as a breakdown (this cannot happen on a
    consistent semidefinite system).
    """
    op, b, x0, cfg = _prepare(op, b, x0, cfg)
    if op.hermitian is not True:
        raise ValueError("cg_solve requires an operator flagged hermitian")

    run = _Run(op, b, x0, cfg)
    x = run.x
    r = b - op.apply(x)
    r0_norm = linalg.vector_norm(r)
    value = run.start(r0_norm)
    if run.tol_reached(value):
        return run.report(SolveStatus.CONVERGED, x)

    residual_vectors = [r.copy()] if cfg.record_history else None
    p = r.copy()
    rho = np.vdot(r, r).real
    for iteration in range(1, cfg.max_iterations + 1):
        ap = op.apply(p)
        curvature = np.vdot(p, ap).real
        scale = linalg.vector_norm(p) * linalg.vector_norm(ap)
        if curvature <= 0.0:
            if curvature < -1e-12 * scale:
                raise IndefiniteOperatorError(
                    f"negative curvature {curvature:.3e} at iteration {iteration}"
                )
            if run.tol_reached(run.residual_norms[-1]):
                return run.report(SolveStatus.CONVERGED, x, diagnostics=_cg_diag(residual_vectors))
            return run.report(SolveStatus.BREAKDOWN, x, breakdown_iteration=iteration,
                              diagnostics=_cg_diag(residual_vectors))
        alpha = rho / curvature
        x = x + alpha * p
        r = r - alpha * ap
        rho_next = np.vdot(r, r).real
        if residual_vectors is not None:
            residual_vectors.append(r.copy())
        value = run.record(x, math.sqrt(max(rho_next, 0.0)))
        if run.tol_reached(value):
            return run.report(SolveStatus.CONVERGED, x, diagnostics=_cg_diag(residual_vectors))
        if run.stagnated():
            return run.report(SolveStatus.STAGNATED, x, diagnostics=_cg_diag(residual_vectors))
        p = r + (rho_next / rho) * p
        rho = rho_next
    return run.report(SolveStatus.MAX_ITERATIONS, x, diagnostics=_cg_diag(residual_vectors))


def _cg_diag(residual_vectors):
    if residual_vectors is None:
        return {}
    return {"residual_vectors": residual_vectors}


#: Level of the estimated loss of orthogonality at which MINRES reorthogonalizes:
#: a basis orthogonal to about sqrt(eps) yields the tridiagonal matrix of an
#: exactly orthogonal one to working accuracy.
SEMI_ORTHOGONALITY = math.sqrt(np.finfo(float).eps)


def _cgs2(basis, w):
    """Orthogonalize ``w`` against the columns of ``basis`` by classical
    Gram-Schmidt run twice ("twice is enough": Giraud, Langou and Rozloznik
    2005); return the new vector and the summed coefficients basis^H w."""
    h = np.conj(np.conj(w) @ basis)
    w = w - basis @ h
    correction = np.conj(np.conj(w) @ basis)
    return w - basis @ correction, h + correction


class _StoredBasis:
    """Krylov basis in one preallocated Fortran-order array, grown (with the
    arrays named in ``grown``) only when a run outlasts the dimension.

    ``expand`` returns the new column of the projected matrix from the first
    row a prior Givens rotation touches, the continuation vector and its
    norm; ``advance`` turns the rotated column and right-hand side entry into
    the new iterate; ``scale`` is the size the pivots are judged against.
    """

    grown = ("betas",)

    def __init__(self, v0, cfg):
        capacity = min(cfg.max_iterations, v0.shape[0]) + 1
        self.vectors = np.empty((v0.shape[0], capacity), dtype=v0.dtype, order="F")
        self.vectors[:, 0] = v0
        self.betas = np.zeros(capacity)     # betas[k] couples v_{k-1} and v_k
        self.size = 1
        self.scale = 0.0
        self.reorthogonalizations = 0

    def append(self, w, norm):
        """Store the continuation vector ``w`` normalized by ``norm``."""
        if self.size == self.vectors.shape[1]:
            self.vectors = np.pad(self.vectors, ((0, 0), (0, self.size)))
            for name in self.grown:
                setattr(self, name, np.pad(getattr(self, name), (0, self.size)))
        self.vectors[:, self.size] = w / norm
        self.betas[self.size] = norm
        self.size += 1

    def diagnostics(self) -> dict:
        """Drift ||V^H V - I||_2 of the stored basis V, reorthogonalization count."""
        gram = self.vectors[:, :self.size].conj().T @ self.vectors[:, :self.size]
        return {"basis_orthogonality_drift": linalg.spectral_norm(gram - np.eye(self.size)),
                "reorthogonalizations": self.reorthogonalizations}


class _LanczosBasis(_StoredBasis):
    """Stored Lanczos basis, kept semi-orthogonal by partial reorthogonalization.

    Simon's omega-recurrence (H. Simon, *The Lanczos algorithm with partial
    reorthogonalization*, Math. Comp. 42, 1984) propagates estimates
    ``omega[k]`` of |v_{j+1}^H v_k| from the tridiagonal coefficients alone,
    at O(j) scalar work per step.  Once one of them passes
    :data:`SEMI_ORTHOGONALITY`, the new vector is orthogonalized against the
    whole basis, twice, and so is the vector after it, because the
    three-term recurrence hands the contamination of the current vector on
    to the next; the estimates then restart at roundoff level.  With
    ``cfg.reorthogonalize`` every vector is orthogonalized and the estimates
    are not run.
    """

    grown = ("alphas", "betas")

    def __init__(self, x0, v0, cfg):
        super().__init__(v0, cfg)
        self.alphas = np.zeros(self.vectors.shape[1])
        self.full = cfg.reorthogonalize
        self.follow_up = False
        self.roundoff = np.finfo(float).eps * math.sqrt(v0.shape[0])
        self.omega_prev = np.zeros(0)
        self.omega = np.ones(1)
        self.x = x0
        self.dir_prev = np.zeros_like(v0)
        self.dir_prev2 = np.zeros_like(v0)

    def expand(self, op):
        j = self.size - 1
        v = self.vectors[:, j]
        av = op.apply(v)
        alpha = np.vdot(v, av).real
        w = av - alpha * v
        beta = self.betas[j]
        if j > 0:
            w = w - beta * self.vectors[:, j - 1]
        beta_next = linalg.vector_norm(w)
        if self.loses_orthogonality(alpha, beta_next):
            w = self.orthogonalize(w)
            beta_next = linalg.vector_norm(w)
        # In the run's field, so that the Givens rotations are complex on a
        # complex run although T is real.
        column = np.array([0.0, beta, alpha, beta_next][max(0, 2 - j):], dtype=v.dtype)
        return column, w, beta_next

    def loses_orthogonality(self, alpha, beta_next) -> bool:
        """Take alpha_j and the norm of the unnormalized v_{j+1}; say whether
        v_{j+1} must be reorthogonalized before it is normalized.  Also keeps
        ``scale``, the largest row sum |alpha| + beta + beta' of T so far."""
        j = self.size - 1
        beta = self.betas[j]
        self.alphas[j] = alpha
        self.scale = max(self.scale, abs(alpha) + beta + beta_next)
        om_prev, om = self.omega_prev, self.omega
        self.omega_prev = om
        if self.full or self.follow_up:
            return True
        if beta_next == 0.0:
            return False
        # beta' omega'[k] = beta_{k+1} omega[k+1] + (alpha_k - alpha) omega[k]
        #                   + beta_k omega[k-1] - beta om_prev[k] + roundoff,
        # the roundoff term taken with the sign that makes |omega'| larger.
        t = (self.betas[1:j + 1] * om[1:j + 1]
             + (self.alphas[:j] - alpha) * om[:j]
             - beta * om_prev)
        t[1:] += self.betas[1:j] * om[:j - 1]
        theta = self.roundoff * self.scale
        nxt = np.empty(j + 2)
        nxt[:j] = (t + np.copysign(theta, t)) / beta_next
        nxt[j] = theta / beta_next          # local orthogonality to v_j
        nxt[j + 1] = 1.0
        self.omega = nxt
        return float(np.max(np.abs(nxt[:j + 1]))) > SEMI_ORTHOGONALITY

    def orthogonalize(self, w):
        """Orthogonalize ``w`` against the stored basis twice (CGS2)."""
        w, _ = _cgs2(self.vectors[:, :self.size], w)
        self.reorthogonalizations += 1
        self.follow_up = not (self.full or self.follow_up)
        self.omega = np.full(self.size + 1, self.roundoff)
        self.omega[-1] = 1.0
        return w

    def advance(self, updated, coefficient):
        delta = updated[-3] if updated.shape[0] > 2 else 0.0
        epsilon = updated[-4] if updated.shape[0] > 3 else 0.0
        direction = (self.vectors[:, self.size - 1] - delta * self.dir_prev
                     - epsilon * self.dir_prev2) / updated[-2]
        self.dir_prev2, self.dir_prev = self.dir_prev, direction
        self.x = self.x + coefficient * direction
        return self.x


class _ArnoldiBasis(_StoredBasis):
    """Stored Arnoldi basis, every new vector orthogonalized by CGS2.

    The iterate is x0 + V y, with y from the triangular factor R and the
    rotated right-hand side g; GMRES cannot keep MINRES's short direction
    recurrence without losing accuracy (Sleijpen, van der Vorst and
    Modersitzki, SIAM J. Matrix Anal. Appl. 22, 2000).
    """

    grown = ("betas", "r", "g")

    def __init__(self, x0, v0, cfg):
        super().__init__(v0, cfg)
        capacity = self.vectors.shape[1]
        self.x0 = x0
        self.r = np.zeros((capacity, capacity), dtype=v0.dtype, order="F")
        self.g = np.zeros(capacity, dtype=v0.dtype)
        self.trsv, = scipy.linalg.get_blas_funcs(("trsv",), (self.r,))

    def expand(self, op):
        basis = self.vectors[:, :self.size]
        w, h = _cgs2(basis, op.apply(basis[:, -1]))
        self.reorthogonalizations += 1
        h_next = linalg.vector_norm(w)
        column = np.append(h, h_next)
        self.scale = max(self.scale, float(np.max(np.abs(column))))
        return column, w, h_next

    def advance(self, updated, coefficient):
        j = self.size
        self.r[:j, j - 1] = updated[:-1]
        self.g[j - 1] = coefficient
        y = self.trsv(self.r[:j, :j], self.g[:j])
        return self.x0 + self.vectors[:, :j] @ y


def _minimal_residual(op, b, x0, cfg, basis_type) -> SolveReport:
    """MINRES or GMRES, by the basis that ``basis_type`` grows; the rule for
    an exhausted Krylov space is the one in the module docstring."""
    run = _Run(op, b, x0, cfg)
    x = run.x
    r0 = b - op.apply(x)
    beta1 = linalg.vector_norm(r0)
    value = run.start(beta1)
    if run.tol_reached(value):
        return run.report(SolveStatus.CONVERGED, x)

    basis = basis_type(x, r0 / beta1, cfg)
    rotations: list[linalg.GivensRotation] = []
    # Last entry of the rotated right-hand side, real on a real run.
    g = complex(beta1) if np.iscomplexobj(b) else beta1
    for iteration in range(1, cfg.max_iterations + 1):
        column, w, h_next = basis.expand(op)
        updated, rot = linalg.givens_qr_step(
            column, rotations[len(rotations) + 2 - column.shape[0]:])
        g_next = -np.conj(rot.s) * g
        exhausted = h_next <= cfg.breakdown_threshold * beta1
        if exhausted and not (abs(updated[-2]) > cfg.breakdown_threshold * basis.scale
                              and run.tol_reached(abs(g_next))):
            return run.report(SolveStatus.BREAKDOWN, x, breakdown_iteration=iteration,
                              diagnostics=basis.diagnostics())

        rotations.append(rot)
        x = basis.advance(updated, rot.c * g)
        g = g_next
        value = run.record(x, abs(g))
        if run.tol_reached(value):
            return run.report(SolveStatus.CONVERGED, x, diagnostics=basis.diagnostics())
        if exhausted or run.stagnated():
            return run.report(SolveStatus.STAGNATED, x, diagnostics=basis.diagnostics())
        basis.append(w, h_next)
    return run.report(SolveStatus.MAX_ITERATIONS, x, diagnostics=basis.diagnostics())


def minres_solve(op, b, x0=None, cfg: SolveConfig | None = None) -> SolveReport:
    """Minimal residual method via the three-term Lanczos recurrence.

    The tridiagonal least-squares problem is updated with Givens rotations,
    so only the last two solution directions are kept.  The Lanczos basis is
    always stored: in finite precision the three-term recurrence loses
    orthogonality, which delays convergence, so the basis is kept
    semi-orthogonal by partial reorthogonalization (:class:`_LanczosBasis`),
    or orthogonal to working accuracy by full reorthogonalization when
    ``cfg.reorthogonalize`` is set.  Works for Hermitian indefinite and
    singular operators; on a singular inconsistent system the run ends in a
    breakdown once the Krylov space is exhausted.

    ``diagnostics`` holds ``basis_orthogonality_drift`` (||V^H V - I||_2 of
    the stored basis V) and ``reorthogonalizations`` (how many Lanczos
    vectors were reorthogonalized).
    """
    op, b, x0, cfg = _prepare(op, b, x0, cfg)
    if op.hermitian is not True:
        raise ValueError("minres_solve requires an operator flagged hermitian")
    return _minimal_residual(op, b, x0, cfg, _LanczosBasis)


def gmres_solve(op, b, x0=None, cfg: SolveConfig | None = None) -> SolveReport:
    """GMRES with a full Arnoldi recurrence (no restarting).

    Classical Gram-Schmidt run twice (CGS2) on every Arnoldi vector,
    Givens-rotation update of the Hessenberg least-squares problem, the
    iterate formed from the stored basis, and explicit per-iteration
    residuals.  Applicable to any square operator.  A breakdown is reported
    when the continuation vector vanishes and the last step's pivot is
    numerically zero or its recurrence residual misses the tolerance, as on
    singular systems; a committed last step whose explicit residual misses
    the tolerance (nonsingular, but the tolerance lies below the attainable
    accuracy) is reported as stagnated.

    ``diagnostics`` holds the same keys as :func:`minres_solve`'s, with one
    reorthogonalization counted per step.
    """
    op, b, x0, cfg = _prepare(op, b, x0, cfg)
    return _minimal_residual(op, b, x0, cfg, _ArnoldiBasis)
