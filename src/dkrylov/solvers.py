"""Base Krylov iterations: CG, MINRES and GMRES over a LinearOperator.

All three solvers record the explicitly computed residual norm ||b - op x_n||
per iteration by default (recurrence estimates are kept alongside for
cross-checking), classify termination into converged / breakdown / stagnated /
max-iterations, and never silently return a breakdown as success.

A *breakdown* means the Krylov basis cannot be continued while the residual
is still above tolerance.  When the continuation vector vanishes, the last
step is committed only if the least-squares factor is numerically nonsingular
relative to the operator's scale and the explicit residual of the resulting
iterate meets the tolerance (a lucky termination, reported as converged);
otherwise the run is frozen at the last valid iterate and reported as a
breakdown.  Singular systems, such as the left-projected deflated systems,
are one cause; a nonsingular system breaks down too when its Krylov space is
exhausted while the tolerance lies below the accuracy attainable at its
condition number (A = Q diag(1, -2, 1e-8) Q^H, b = Q (1, 1, 1) breaks down at
step 3 under the default tolerance).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

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
    ``reorthogonalize`` requests full reorthogonalization: every new basis
    vector is orthogonalized against all stored ones.  MINRES always
    reorthogonalizes partially (see :func:`minres_solve`); this switch makes
    it do so on every step.
    """

    residual_tolerance: float = 1e-10
    max_iterations: int = 1000
    breakdown_threshold: float = 1e-13
    record_history: bool = True
    explicit_residuals: bool = True
    reorthogonalize: bool = False

    def __post_init__(self):
        if self.residual_tolerance <= 0:
            raise ValueError("residual_tolerance must be positive")
        if self.breakdown_threshold <= 0:
            raise ValueError("breakdown_threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``residual_norms[i]`` is the residual norm at iteration i (index 0 holds
    the initial residual); ``iterates``, when history recording is on, is the
    matching list of approximations.  After a breakdown the report is frozen
    at the last valid iterate and ``breakdown_iteration`` names the step that
    failed.
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
        self.best = []

    def residual(self, x, recurrence_norm) -> float:
        """Residual norm of ``x`` as recorded: explicit, or the recurrence's."""
        if self.cfg.explicit_residuals:
            return linalg.vector_norm(self.b - self.op.apply(x))
        return recurrence_norm

    def record(self, x, recurrence_norm, explicit=None) -> float:
        if explicit is None:
            explicit = self.residual(x, recurrence_norm)
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
        n = len(self.best) - 1
        if n < STAGNATION_WINDOW:
            return False
        current = self.best[-1]
        if self.tol_reached(current):
            return False
        return current > self.best[-1 - STAGNATION_WINDOW] * STAGNATION_FACTOR

    def report(self, status, x, breakdown_iteration=None, diagnostics=None) -> SolveReport:
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
    x0 = np.zeros(op.dim, dtype=np.complex128) if x0 is None else linalg.as_vector(x0, op.dim)
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


class _LanczosBasis:
    """Stored Lanczos basis, kept semi-orthogonal by partial reorthogonalization.

    Simon's omega-recurrence (H. Simon, *The Lanczos algorithm with partial
    reorthogonalization*, Math. Comp. 42, 1984) propagates estimates
    ``omega[k]`` of |v_{j+1}^H v_k| from the tridiagonal coefficients alone,
    at O(j) scalar work per step.  Once one of them passes
    :data:`SEMI_ORTHOGONALITY`, the new vector is orthogonalized against the
    whole basis, twice, and so is the vector after it, because the
    three-term recurrence hands the contamination of the current vector on
    to the next; the estimates then restart at roundoff level.  With
    ``full`` every vector is orthogonalized and the estimates are not run.
    """

    def __init__(self, v0, max_iterations, full):
        n = v0.shape[0]
        capacity = min(max_iterations, n) + 1
        self.vectors = np.empty((n, capacity), dtype=np.complex128, order="F")
        self.vectors[:, 0] = v0
        self.alphas = np.empty(capacity)
        self.betas = np.zeros(capacity)     # betas[k] couples v_{k-1} and v_k
        self.size = 1
        self.full = full
        self.follow_up = False
        self.roundoff = np.finfo(float).eps * math.sqrt(n)
        self.omega_prev = np.zeros(0)
        self.omega = np.ones(1)
        #: Running estimate of ||T||, the largest row sum |alpha| + beta + beta'.
        self.norm_estimate = 0.0
        self.reorthogonalizations = 0

    def loses_orthogonality(self, alpha, beta_next) -> bool:
        """Take alpha_j and the norm of the unnormalized v_{j+1}; say whether
        v_{j+1} must be reorthogonalized before it is normalized."""
        j = self.size - 1
        beta = self.betas[j]
        self.alphas[j] = alpha
        self.norm_estimate = max(self.norm_estimate, abs(alpha) + beta + beta_next)
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
        theta = self.roundoff * self.norm_estimate
        nxt = np.empty(j + 2)
        nxt[:j] = (t + np.copysign(theta, t)) / beta_next
        nxt[j] = theta / beta_next          # local orthogonality to v_j
        nxt[j + 1] = 1.0
        self.omega = nxt
        return float(np.max(np.abs(nxt[:j + 1]))) > SEMI_ORTHOGONALITY

    def orthogonalize(self, w):
        """Orthogonalize ``w`` against the stored basis twice (CGS2)."""
        basis = self.vectors[:, :self.size]
        for _ in range(2):
            w = w - basis @ np.conj(np.conj(w) @ basis)
        self.reorthogonalizations += 1
        self.follow_up = not (self.full or self.follow_up)
        self.omega = np.full(self.size + 1, self.roundoff)
        self.omega[-1] = 1.0
        return w

    def append(self, v, beta):
        """Store v_{j+1} with its coupling coefficient beta_{j+1}."""
        if self.size == self.vectors.shape[1]:
            self._grow()
        self.vectors[:, self.size] = v
        self.betas[self.size] = beta
        self.size += 1
        return self.vectors[:, self.size - 1]

    def _grow(self):
        # Only a run longer than the dimension gets here.
        size = self.size
        vectors = np.empty((self.vectors.shape[0], 2 * size), dtype=np.complex128, order="F")
        vectors[:, :size] = self.vectors
        self.vectors = vectors
        self.alphas = np.concatenate([self.alphas, np.empty(size)])
        self.betas = np.concatenate([self.betas, np.zeros(size)])

    def diagnostics(self) -> dict:
        return {
            "basis_orthogonality_drift": _orthogonality_drift(self.vectors[:, :self.size]),
            "reorthogonalizations": self.reorthogonalizations,
        }


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

    run = _Run(op, b, x0, cfg)
    x = run.x
    r0 = b - op.apply(x)
    beta1 = linalg.vector_norm(r0)
    value = run.start(beta1)
    if run.tol_reached(value):
        return run.report(SolveStatus.CONVERGED, x)

    lanczos = _LanczosBasis(r0 / beta1, cfg.max_iterations, cfg.reorthogonalize)
    v_prev = np.zeros_like(r0)
    v = lanczos.vectors[:, 0]
    dir_prev = np.zeros_like(r0)
    dir_prev2 = np.zeros_like(r0)
    rotations: list[linalg.GivensRotation] = []
    eta = complex(beta1)
    beta = 0.0

    for iteration in range(1, cfg.max_iterations + 1):
        av = op.apply(v)
        alpha = np.vdot(v, av).real
        w = av - alpha * v
        if iteration > 1:
            w = w - beta * v_prev
        beta_next = linalg.vector_norm(w)
        if lanczos.loses_orthogonality(alpha, beta_next):
            w = lanczos.orthogonalize(w)
            beta_next = linalg.vector_norm(w)

        if iteration == 1:
            column = np.array([alpha, beta_next])
            priors = []
        elif iteration == 2:
            column = np.array([beta, alpha, beta_next])
            priors = rotations[-1:]
        else:
            column = np.array([0.0, beta, alpha, beta_next])
            priors = rotations[-2:]
        updated, rot = linalg.givens_qr_step(column, priors)
        gamma = updated[-2]
        delta = updated[-3] if iteration >= 2 else 0.0
        epsilon = updated[-4] if iteration >= 3 else 0.0
        eta_next = -np.conj(rot.s) * eta

        if beta_next <= cfg.breakdown_threshold * beta1:
            # The Krylov space cannot be continued.  The step is committed
            # only if the tridiagonal factor is numerically nonsingular and
            # the new iterate's residual meets the tolerance (lucky
            # termination); otherwise the run is frozen at the last valid
            # iterate.
            usable = abs(gamma) > cfg.breakdown_threshold * lanczos.norm_estimate
            if usable and run.tol_reached(abs(eta_next)):
                direction = (v - delta * dir_prev - epsilon * dir_prev2) / gamma
                x_next = x + (rot.c * eta) * direction
                value = run.residual(x_next, abs(eta_next))
                if run.tol_reached(value):
                    run.record(x_next, abs(eta_next), value)
                    return run.report(SolveStatus.CONVERGED, x_next,
                                      diagnostics=lanczos.diagnostics())
            return run.report(SolveStatus.BREAKDOWN, x, breakdown_iteration=iteration,
                              diagnostics=lanczos.diagnostics())

        rotations.append(rot)
        direction = (v - delta * dir_prev - epsilon * dir_prev2) / gamma
        x = x + (rot.c * eta) * direction
        eta = eta_next
        dir_prev2 = dir_prev
        dir_prev = direction

        value = run.record(x, abs(eta))
        if run.tol_reached(value):
            return run.report(SolveStatus.CONVERGED, x, diagnostics=lanczos.diagnostics())
        if run.stagnated():
            return run.report(SolveStatus.STAGNATED, x, diagnostics=lanczos.diagnostics())

        v_prev = v
        v = lanczos.append(w / beta_next, beta_next)
        beta = beta_next
    return run.report(SolveStatus.MAX_ITERATIONS, x, diagnostics=lanczos.diagnostics())


def _orthogonality_drift(vectors) -> float:
    """||V^H V - I||_2 of the basis stored as the columns of ``vectors``."""
    gram = vectors.conj().T @ vectors
    return linalg.spectral_norm(gram - np.eye(gram.shape[0]))


def gmres_solve(op, b, x0=None, cfg: SolveConfig | None = None) -> SolveReport:
    """GMRES with a full Arnoldi recurrence (no restarting).

    Modified Gram-Schmidt orthogonalization (twice when reorthogonalization
    is requested), Givens-rotation update of the Hessenberg least-squares
    problem, and explicit per-iteration residuals.  Applicable to any square
    operator.  A breakdown is reported when the continuation vector vanishes
    and the committed step's explicit residual misses the tolerance (or its
    pivot is numerically zero); this happens on singular systems, and on
    nonsingular ones whose tolerance is below the attainable accuracy.
    """
    op, b, x0, cfg = _prepare(op, b, x0, cfg)

    run = _Run(op, b, x0, cfg)
    x = run.x
    r0 = b - op.apply(x)
    beta1 = linalg.vector_norm(r0)
    value = run.start(beta1)
    if run.tol_reached(value):
        return run.report(SolveStatus.CONVERGED, x)

    basis = [r0 / beta1]
    r_columns: list[np.ndarray] = []   # triangular factor, column-major
    rotations: list[linalg.GivensRotation] = []
    g = [complex(beta1)]               # rotated right-hand side
    scale = 0.0                        # largest Hessenberg entry so far

    def assemble(j):
        # Solve the j-by-j triangular system and expand into the full space.
        y = np.zeros(j, dtype=np.complex128)
        for col in range(j - 1, -1, -1):
            acc = g[col]
            for row in range(col + 1, j):
                acc -= r_columns[row][col] * y[row]
            y[col] = acc / r_columns[col][col]
        correction = np.zeros(op.dim, dtype=np.complex128)
        for col in range(j):
            correction += y[col] * basis[col]
        return x0 + correction

    for iteration in range(1, cfg.max_iterations + 1):
        j = iteration - 1
        w = op.apply(basis[j])
        h = np.zeros(j + 2, dtype=np.complex128)
        for i in range(j + 1):
            h[i] = np.vdot(basis[i], w)
            w = w - h[i] * basis[i]
        if cfg.reorthogonalize:
            for i in range(j + 1):
                correction = np.vdot(basis[i], w)
                h[i] += correction
                w = w - correction * basis[i]
        h_next = linalg.vector_norm(w)
        h[j + 1] = h_next
        scale = max(scale, float(np.max(np.abs(h))))

        updated, rot = linalg.givens_qr_step(h, rotations)
        gamma = updated[-2]
        g_rotated, g_next = rot.apply(g[-1], 0.0)
        recurrence_norm = abs(g_next)

        if h_next <= cfg.breakdown_threshold * beta1:
            # Invariant subspace reached: commit the final column only for a
            # genuine lucky termination (numerically nonsingular triangular
            # factor, residual at the tolerance), otherwise freeze at the
            # last iterate.
            usable = abs(gamma) > cfg.breakdown_threshold * scale
            if usable and run.tol_reached(recurrence_norm):
                r_columns.append(updated[:-1])
                g[-1] = g_rotated
                x_next = assemble(iteration)
                value = run.residual(x_next, recurrence_norm)
                if run.tol_reached(value):
                    run.record(x_next, recurrence_norm, value)
                    return run.report(SolveStatus.CONVERGED, x_next,
                                      diagnostics=_arnoldi_diag(basis))
            return run.report(SolveStatus.BREAKDOWN, x, breakdown_iteration=iteration,
                              diagnostics=_arnoldi_diag(basis))

        rotations.append(rot)
        r_columns.append(updated[:-1])
        g[-1] = g_rotated
        g.append(g_next)

        x = assemble(iteration)
        value = run.record(x, recurrence_norm)
        if run.tol_reached(value):
            return run.report(SolveStatus.CONVERGED, x, diagnostics=_arnoldi_diag(basis))
        if run.stagnated():
            return run.report(SolveStatus.STAGNATED, x, diagnostics=_arnoldi_diag(basis))
        basis.append(w / h_next)
    return run.report(SolveStatus.MAX_ITERATIONS, x, diagnostics=_arnoldi_diag(basis))


def _arnoldi_diag(basis):
    return {"basis_orthogonality_drift": _orthogonality_drift(np.column_stack(basis))}
