"""Base Krylov iterations: CG, MINRES and GMRES over a LinearOperator.

All three solvers apply the operator once per step, record a residual norm
per iteration with its recurrence estimate alongside, classify termination
into converged / breakdown / stagnated / max-iterations, and never silently
return a breakdown as success.

Each records the residual its recurrence gives, CG its carried ||r_n|| and
MINRES and GMRES |g_n|, the last entry of the rotated right-hand side; it
drifts from ||b - op x_n||, CG's by the residual gap that limits its
attainable accuracy (Greenbaum, SIAM J. Matrix Anal. Appl. 18, 1997).
Where it meets the tolerance, the solver forms b - op x_n, records it in
its place and judges on it: the run converges, or it goes on, CG from the
true residual (van der Vorst and Ye, SIAM J. Sci. Comput. 22, 2000).  Every
other ending records b - op x of the returned iterate last
(:meth:`_Run.finish`), unless a MINRES or GMRES run ends at a step so
checked.  A CG run of k steps, a step that breaks down included, so makes
k + 2 products: r0, one per step and the last; a MINRES or GMRES run makes
k + 3, one more for the probe of its breakdown rule.  Each check adds one
more, but for one that forms the last.

MINRES and GMRES are one minimal-residual iteration that differs only in how
the Krylov basis grows: by the Lanczos or by the Arnoldi recurrence.  Both
form the iterate as x0 + V y, with y from the triangular factor of the
projected least-squares problem, where they check it or end
(:class:`_StoredBasis`).  Each has one orthogonalization rule: GMRES
orthogonalizes every Arnoldi vector twice, and MINRES reorthogonalizes when
Simon's estimate of the loss of orthogonality passes eps^(3/4), below
sqrt(eps), where the explicit residual stalls above the tolerance on
ill-conditioned systems (:class:`_LanczosBasis`).

A *breakdown* is a vanishing Galerkin pivot, a singular projected matrix, as
on the left-projected deflated systems.  Each step's pivot is judged against
:data:`BREAKDOWN_THRESHOLD` times the operator's scale, never b's: for
MINRES and GMRES the new least-squares diagonal |r_jj| on the larger of
||op z|| for a seeded unit probe z and the running size of the projected
matrix; for CG p^H op p / rho on its largest earlier value, and one below
minus the cutoff raises :class:`IndefiniteOperatorError`.  A breakdown ends
the run at its last committed iterate; every other step is committed.  A
MINRES or GMRES basis is exhausted when its continuation's norm, at most
|r_jj|, is at most the cutoff, or at n vectors in C^n; a committed step that
exhausts it and misses the tolerance ends the run stagnated, as below the
attainable accuracy (A = Q diag(1, -2, 1e-8) Q^H, b = Q (1, 1, 1) at step 3
with ||b - A x|| about 1e-8 under the default tolerance; A = Q diag(+-1) Q^H
at step 2 with 1e-15 ||b|| under 1e-16).
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

#: Rise of CG's last recorded residual over its lowest that ends a run whose
#: smoothed companion has met the tolerance (:meth:`_Run.stagnated`): slow
#: convergers rise at most 30-fold after that (logspaced spectra, n = 200, 6
#: decades), a run that has passed its best and diverges 1e11-fold and more.
RUNAWAY_FACTOR = 1e3

#: Cutoff, relative to the operator's scale, of a vanished Galerkin pivot
#: and of an exhausted MINRES or GMRES continuation (module docstring).
BREAKDOWN_THRESHOLD = 1e-13


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
    """Tolerances and the history switch shared by all solvers.

    ``residual_tolerance`` is relative to max(||r0||, ||b||).
    ``max_iterations`` is an integer, a numpy one included; a bool is
    rejected for either, as is a fractional step count.
    ``record_history`` is a bool, a numpy one included, and keeps a run's
    history: its iterates.  Every rejected value, a non-numeric one
    included, raises ValueError.  CG copies each iterate as it goes; MINRES
    and GMRES solve each step's coefficients y at the end and form every
    iterate x0 + V y there, in one product.  Neither orthogonalization, the
    recorded residual nor the breakdown test is configurable: each solver
    has one rule for each (module docstring, :func:`minres_solve` and
    :data:`BREAKDOWN_THRESHOLD`).
    """

    residual_tolerance: float = 1e-10
    max_iterations: int = 1000
    record_history: bool = True

    def __post_init__(self):
        linalg.check_positive(self.residual_tolerance, "residual_tolerance")
        linalg.as_count(self.max_iterations, 1, "max_iterations")
        if not isinstance(self.record_history, (bool, np.bool_)):
            raise ValueError("record_history must be a bool")


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``residual_norms[i]`` is the residual norm at iteration i (index 0 holds
    the initial residual); ``iterates``, when history recording is on, is the
    matching list of approximations, whose last equals ``final_iterate`` bit
    for bit.  A MINRES or GMRES run forms it at its end (:class:`SolveConfig`),
    so its earlier iterates agree to roundoff with x0 + V y formed at each
    step.  ``residual_norms`` equals ``recurrence_residual_norms`` but where
    b - op x was recorded (module docstring).  After a breakdown the report is frozen at the last valid iterate
    and ``breakdown_iteration`` names the step that failed.  Iterates come
    back in the run's field, the common field of the operator's ``dtype``,
    the right-hand side and the initial guess: float64 for a real system,
    complex128 otherwise.
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
    """Shared recording / termination bookkeeping for one solver run.

    The stagnation window judges the running minimum of the recorded norms,
    or with ``smooth`` (CG, whose residual may first rise for many steps)
    their decreasing minimal-residual companion rho_k^-2 = sum_{i<=k}
    ||r_i||^-2 (Cullum and Greenbaum, SIAM J. Matrix Anal. Appl. 17, 1996).
    Once that companion meets the tolerance, only a last recorded norm over
    :data:`RUNAWAY_FACTOR` times the lowest ends the run as stagnated.

    ``b`` and ``x0`` come multiplied by ``unit``, a power of two, and
    :meth:`report` divides the iterates and recorded norms back, exactly.
    """

    def __init__(self, op, b, x0, cfg, smooth=False, unit=1.0):
        self.op = op
        self.b = b
        self.cfg = cfg
        self.smooth = smooth
        self.unit = unit
        self.x = x0.copy()
        self.residual_norms = []
        self.recurrence_norms = []
        self.iterates = [] if cfg.record_history else None
        self.best = collections.deque(maxlen=STAGNATION_WINDOW + 1)
        # The lowest recorded norm, its x and its index.
        self.lowest, self.lowest_x, self.lowest_index = math.inf, None, None

    def record(self, x, recurrence_norm, norm) -> float:
        """Record ``x`` with its residual ``norm`` and its recurrence
        estimate; ``x`` is None where the run keeps no history or forms it
        at its end (:meth:`_StoredBasis.history`)."""
        self.residual_norms.append(norm)
        self.recurrence_norms.append(recurrence_norm)
        if self.iterates is not None and x is not None:
            self.iterates.append(x.copy())
        if norm < self.lowest:      # x by reference: each CG step makes a new one
            self.lowest, self.lowest_x = norm, x
            self.lowest_index = len(self.residual_norms) - 1
        prev_best = self.best[-1] if self.best else math.inf
        progress = norm
        if self.smooth and self.best and norm > 0.0:
            # rho_k = (rho_{k-1}^-2 + ||r_k||^-2)^(-1/2), free of overflow.
            progress = prev_best / math.hypot(1.0, prev_best / norm)
        self.best.append(min(prev_best, progress))
        return norm

    def start(self, r0_norm) -> float:
        """Record x0 with ``r0_norm``, the norm ||b - op x0|| the solver has
        just formed, so that it is not formed again."""
        self.denominator = max(r0_norm, linalg.vector_norm(self.b),
                               np.finfo(float).tiny)
        return self.record(self.x, r0_norm, r0_norm)

    def tol_reached(self, value) -> bool:
        return value <= self.cfg.residual_tolerance * self.denominator

    def stagnated(self) -> bool:
        if len(self.best) <= STAGNATION_WINDOW:
            return False
        current = self.best[-1]
        if self.tol_reached(current):
            return self.residual_norms[-1] > RUNAWAY_FACTOR * self.lowest
        return current > self.best[0] * STAGNATION_FACTOR

    def finish(self, status, x, breakdown_iteration=None, diagnostics=None) -> SolveReport:
        """Report the run at ``x``, its last recorded iterate, with b - op x
        formed once and recorded as its last residual; every run whose last
        residual was not so formed ends here, and none of them has
        converged.  A breakdown is reported as converged if b - op x meets
        the tolerance."""
        self.residual_norms[-1] = linalg.vector_norm(self.b - self.op.apply(x))
        if status is SolveStatus.BREAKDOWN and self.tol_reached(self.residual_norms[-1]):
            status, breakdown_iteration = SolveStatus.CONVERGED, None
        return self.report(status, x, breakdown_iteration, diagnostics)

    def report(self, status, x, breakdown_iteration=None, diagnostics=None) -> SolveReport:
        norms = np.asarray(self.residual_norms, dtype=float)
        recurrence_norms = np.asarray(self.recurrence_norms, dtype=float)
        iterates = self.iterates
        if self.unit != 1.0:
            x, norms, recurrence_norms = (v / self.unit for v in (x, norms, recurrence_norms))
            if iterates is not None:
                iterates = [v / self.unit for v in iterates]
        return SolveReport(
            final_iterate=x,
            residual_norms=norms,
            status=status,
            iterations_used=len(norms) - 1,
            breakdown_iteration=breakdown_iteration,
            recurrence_residual_norms=recurrence_norms,
            iterates=iterates,
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

    One operator product per step, applied to the search direction p.  The
    recorded residual is the carried ||r_k|| = sqrt(rho_k) until it meets
    the tolerance; there b - op x_k is formed and recorded instead, and the
    run converges if it meets the tolerance too.  If it misses, it replaces
    the carried residual, rho is taken from it, p's recurrence is kept and
    the iteration goes on (module docstring).  A run that stagnates or runs
    out of steps returns the iterate of its lowest recorded residual, which
    with history also replaces the last one recorded.  Every ending but
    convergence records b - op x of the returned iterate as its last residual.
    ``diagnostics["returned_iteration"]`` is the returned iterate's index:
    the lowest recorded residual's for ``stagnated`` and ``max-iterations``
    (0 when that is r0, and x0 is returned), and the last index otherwise.

    On a consistent positive semidefinite system the iteration is well defined
    until termination.  Each step's pivot p^H op p / rho is judged against
    :data:`BREAKDOWN_THRESHOLD` times the largest earlier pivot (module
    docstring): one below minus that cutoff raises
    :class:`IndefiniteOperatorError`, and one within it, or one that is not
    finite, is a breakdown at the last iterate, reported as converged if its
    true residual meets the tolerance.  The run is carried, exactly, in units
    of the power of two that brings max(||r0||, ||b||) into [0.5, 1), so on
    an operator of unit scale rho and p^H op p stay in the float64 range at
    every ||b||; the report is in the units of ``b``.
    """
    op, b, x0, cfg = _prepare(op, b, x0, cfg)
    if op.hermitian is not True:
        raise ValueError("cg_solve requires an operator flagged hermitian")

    r = b - op.apply(x0)
    reference = max(linalg.vector_norm(r), linalg.vector_norm(b))
    # At most 2^1023, the largest power of two in float64.
    unit = math.ldexp(1.0, -max(math.frexp(reference)[1], -1023))
    run = _Run(op, b * unit, x0 * unit, cfg, smooth=True, unit=unit)
    x, b = run.x, run.b
    r *= unit
    value = run.start(linalg.vector_norm(r))
    if run.tol_reached(value):
        return run.report(SolveStatus.CONVERGED, x, diagnostics={"returned_iteration": 0})

    p = r.copy()
    rho = np.vdot(r, r).real
    cutoff = 0.0                # BREAKDOWN_THRESHOLD times the largest pivot so far
    for iteration in range(1, cfg.max_iterations + 1):
        ap = op.apply(p)
        curvature = np.vdot(p, ap).real
        # The LDL^H pivot 1 / alpha, NaN where rho has left the float64 range.
        pivot = curvature / rho if 0.0 < rho < math.inf else math.nan
        if not cutoff < pivot < math.inf:
            if pivot < -cutoff:
                raise IndefiniteOperatorError(
                    f"negative curvature {curvature / unit / unit:.3e} at iteration {iteration}"
                )
            return run.finish(SolveStatus.BREAKDOWN, x, breakdown_iteration=iteration,
                              diagnostics={"returned_iteration": iteration - 1})
        cutoff = max(cutoff, BREAKDOWN_THRESHOLD * pivot)
        alpha = rho / curvature
        x = x + alpha * p
        r = r - alpha * ap
        rho_next = np.vdot(r, r).real
        value = carried = math.sqrt(max(rho_next, 0.0))
        if run.tol_reached(carried):
            # Replace the carried residual by the true one and judge on it.
            r = b - op.apply(x)
            rho_next = np.vdot(r, r).real
            value = linalg.vector_norm(r)
        run.record(x, carried, value)
        if run.tol_reached(value):
            return run.report(SolveStatus.CONVERGED, x,
                              diagnostics={"returned_iteration": iteration})
        if run.stagnated():
            status = SolveStatus.STAGNATED
            break
        p = r + (rho_next / rho) * p
        rho = rho_next
    else:
        status = SolveStatus.MAX_ITERATIONS
    if run.iterates is not None:
        run.iterates[-1] = run.lowest_x.copy()
    return run.finish(status, run.lowest_x,
                      diagnostics={"returned_iteration": run.lowest_index})


#: Estimated loss of orthogonality at which MINRES reorthogonalizes; why it is
#: eps^(3/4) and not sqrt(eps) is in :class:`_LanczosBasis`.
REORTHOGONALIZATION_LEVEL = np.finfo(float).eps ** 0.75


def _cgs2(basis, w):
    """Orthogonalize ``w`` against the columns of ``basis`` by classical
    Gram-Schmidt run twice ("twice is enough": Giraud, Langou and Rozloznik
    2005); return the new vector and the summed coefficients basis^H w."""
    h = (w.conj() @ basis).conj()
    w = w - basis @ h
    correction = (w.conj() @ basis).conj()
    return w - basis @ correction, h + correction


class _StoredBasis:
    """Krylov basis V, the basis's one n-sized array, preallocated in
    Fortran order with at most n columns: a run ends once its basis holds n
    vectors in C^n (module docstring), so nothing ever grows.

    ``expand`` applies op to the newest basis vector and returns the new
    column of the projected matrix from the first row a prior Givens
    rotation touches, as a list of Python numbers in the run's field
    (``scalar``), the continuation vector and its norm; ``scale`` is the
    running size of the projected matrix, in the breakdown rule's scale.
    ``c[k]``, ``s[k]`` is the Givens rotation of step k + 1, kept in lists as
    the cascade returns it, so ``len(c)`` steps are committed.

    ``advance`` stores the rotated column in the triangular factor R, packed
    by columns so that its leading j-by-j factor is a prefix that BLAS
    ``tpsv`` reads in place, and the rotated right-hand side entry in g.
    ``coefficients`` solves y_j = R_j^-1 g_j of step j from that prefix, and
    ``iterate`` forms x0 + V y of the last committed step, where a run
    checks or ends; ``history`` solves every y_j there and forms all their
    iterates in one product.  MINRES's short direction recurrence would need
    only the last two directions but loses attainable accuracy (Sleijpen,
    van der Vorst and Modersitzki, SIAM J. Matrix Anal. Appl. 22, 2000).
    """

    def __init__(self, x0, r0, beta1, cfg):
        n = r0.shape[0]
        capacity = min(cfg.max_iterations + 1, n)
        self.vectors = np.empty((n, capacity), dtype=r0.dtype, order="F")
        self.vectors[:, 0] = r0 / beta1
        self.factor = np.zeros(capacity * (capacity + 1) // 2, dtype=r0.dtype)
        self.tpsv = scipy.linalg.get_blas_funcs("tpsv", (self.factor,))
        self.x0 = x0
        self.scalar = complex if r0.dtype.kind == "c" else float
        self.g = np.zeros(capacity, dtype=r0.dtype)
        self.betas = np.zeros(capacity)     # betas[k] couples v_{k-1} and v_k
        self.c, self.s = [], []
        self.size = 1
        self.scale = 0.0
        self.reorthogonalizations = 0

    def advance(self, updated, coefficient):
        j = self.size
        end = j * (j + 1) // 2          # where column j - 1 of R ends
        self.factor[end + 1 - len(updated):end] = updated[:-1]
        self.g[j - 1] = coefficient

    def coefficients(self, j):
        """y_j = R_j^-1 g_j of committed step j (empty for j = 0)."""
        return self.tpsv(j, self.factor, self.g[:j]) if j else self.g[:0]

    def iterate(self):
        """x0 + V y of the last committed step."""
        j = len(self.c)
        return self.x0 + self.vectors[:, :j] @ self.coefficients(j)

    def history(self, last):
        """The iterates x0 + V y_j of the committed steps: a copy of
        ``last``, this run's :meth:`iterate`, for the last step, and for the
        others the rows of x0 + Y V^T, one matrix product, whose Y holds
        their y_j as rows."""
        j = len(self.c)
        if not j:
            return []
        coefficients = np.zeros((j - 1, j), dtype=self.g.dtype)
        for k, row in enumerate(coefficients, 1):
            row[:k] = self.coefficients(k)
        rows = coefficients @ self.vectors[:, :j].T
        rows += self.x0
        # One array per iterate, as CG keeps them: a kept history that held
        # the whole block raised the paper sweep's peak RSS by about 1 MB.
        return [*map(np.copy, rows), last.copy()]

    def append(self, w, norm):
        """Store the continuation vector ``w`` normalized by ``norm``."""
        np.divide(w, norm, out=self.vectors[:, self.size])
        self.betas[self.size] = norm
        self.size += 1


class _LanczosBasis(_StoredBasis):
    """Stored Lanczos basis, kept orthogonal by partial reorthogonalization.

    Simon's omega-recurrence (H. Simon, *The Lanczos algorithm with partial
    reorthogonalization*, Math. Comp. 42, 1984) propagates estimates
    ``omega[k]`` of |v_{j+1}^H v_k| from the tridiagonal coefficients alone,
    at O(j) scalar work per step.  Once one of them passes
    :data:`REORTHOGONALIZATION_LEVEL`, eps^(3/4), the new vector is
    orthogonalized against the whole basis, twice, and so is the vector
    after it, because the three-term recurrence hands the contamination of
    the current vector on to the next; the estimates then restart at
    roundoff level.

    The level is below Simon's semi-orthogonality, sqrt(eps), because the
    explicit residual stalls at a level that grows with the trigger and with
    the condition number: at sqrt(eps), minres on 18 seeded real symmetric
    systems of order 150 to 260 and condition 1e3 to 1e8 stalled at
    ||b - A x|| / ||b|| from 5e-10 to 3e-4 and ended stagnated.  At eps^(3/4)
    each ends as with every vector reorthogonalized, in the same number of
    steps (+-1), with 48 to 85% of the reorthogonalizations.
    """

    def __init__(self, x0, r0, beta1, cfg):
        super().__init__(x0, r0, beta1, cfg)
        self.alphas = np.zeros(self.vectors.shape[1])
        self.follow_up = False
        self.roundoff = np.finfo(float).eps * math.sqrt(r0.shape[0])
        self.omega_prev = np.zeros(0)
        self.omega = np.ones(1)

    def expand(self, op):
        j = self.size - 1
        v = self.vectors[:, j]
        av = op.apply(v)
        alpha = float(np.vdot(v, av).real)
        w = av - alpha * v
        beta = float(self.betas[j])
        if j > 0:
            w -= beta * self.vectors[:, j - 1]
        beta_next = linalg.vector_norm(w)
        if self.loses_orthogonality(alpha, beta_next):
            w = self.orthogonalize(w)
            beta_next = linalg.vector_norm(w)
        # In the run's field, so that the Givens rotations are complex on a
        # complex run although T is real.
        column = [0.0, beta, alpha, beta_next][max(0, 2 - j):]
        return list(map(self.scalar, column)), w, beta_next

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
        if self.follow_up:
            return True
        if beta_next == 0.0:
            return False
        # beta' omega'[k] = beta_{k+1} omega[k+1] + (alpha_k - alpha) omega[k]
        #                   + beta_k omega[k-1] - beta om_prev[k] + roundoff,
        # the roundoff term taken with the sign that makes |omega'| larger.
        # Summed in place in the new estimates, term by term in this order.
        theta = self.roundoff * self.scale
        nxt = np.empty(j + 2)
        t, tail = nxt[:j], nxt[1:j]
        np.multiply(self.betas[1:j + 1], om[1:j + 1], out=t)
        t += (self.alphas[:j] - alpha) * om[:j]
        t -= beta * om_prev
        tail += self.betas[1:j] * om[:j - 1]
        t += np.copysign(theta, t)
        t /= beta_next
        nxt[j] = theta / beta_next          # local orthogonality to v_j
        nxt[j + 1] = 1.0
        self.omega = nxt
        return abs(nxt[:j + 1]).max() > REORTHOGONALIZATION_LEVEL

    def orthogonalize(self, w):
        """Orthogonalize ``w`` against the stored basis twice (CGS2)."""
        w, _ = _cgs2(self.vectors[:, :self.size], w)
        self.reorthogonalizations += 1
        self.follow_up = not self.follow_up
        self.omega = np.full(self.size + 1, self.roundoff)
        self.omega[-1] = 1.0
        return w


class _ArnoldiBasis(_StoredBasis):
    """Stored Arnoldi basis, every new vector orthogonalized by CGS2."""

    def expand(self, op):
        basis = self.vectors[:, :self.size]
        av = op.apply(basis[:, -1])
        w, h = _cgs2(basis, av)
        self.reorthogonalizations += 1
        h_next = linalg.vector_norm(w)
        self.scale = max(self.scale, float(np.abs(h).max()), h_next)
        column = h.tolist()
        column.append(self.scalar(h_next))
        return column, w, h_next


def _minimal_residual(op, b, x0, cfg, basis_type) -> SolveReport:
    """MINRES or GMRES, by the basis that ``basis_type`` grows."""
    run = _Run(op, b, x0, cfg)
    r0 = b - op.apply(run.x)
    beta1 = linalg.vector_norm(r0)
    if run.tol_reached(run.start(beta1)):
        return run.report(SolveStatus.CONVERGED, run.x, diagnostics={"reorthogonalizations": 0})

    n = r0.shape[0]
    probe = np.random.default_rng(0).standard_normal(n)
    probe_scale = linalg.vector_norm(op.apply(probe / linalg.vector_norm(probe)))
    basis = basis_type(run.x, r0, beta1, cfg)
    # Last entry of the rotated right-hand side, real on a real run.
    g = basis.scalar(beta1)
    # x is the iterate whose b - op x was recorded last, None if none was.
    breakdown_iteration, x = None, None
    for iteration in range(1, cfg.max_iterations + 1):
        column, w, h_next = basis.expand(op)
        j = basis.size - 1              # rotations committed so far
        first = j + 2 - len(column)
        c, s = linalg.givens_cascade(column, basis.c[first:j], basis.s[first:j])
        cutoff = BREAKDOWN_THRESHOLD * max(probe_scale, basis.scale)
        if not abs(column[-2]) > cutoff:
            status, breakdown_iteration = SolveStatus.BREAKDOWN, iteration
            break
        basis.c.append(c)
        basis.s.append(s)
        basis.advance(column, c * g)
        g = -s.conjugate() * g
        value, x = abs(g), None
        if run.tol_reached(value):
            x = basis.iterate()
            value = linalg.vector_norm(b - op.apply(x))
        run.record(None, abs(g), value)
        if run.tol_reached(value):
            status = SolveStatus.CONVERGED
            break
        if h_next <= cutoff or iteration == n or run.stagnated():
            status = SolveStatus.STAGNATED
            break
        basis.append(w, h_next)
    else:
        status = SolveStatus.MAX_ITERATIONS
    # A run that ends at a checked iterate has recorded its b - op x already.
    end, x = (run.finish, basis.iterate()) if x is None else (run.report, x)
    if cfg.record_history:
        run.iterates += basis.history(x)
    return end(status, x, breakdown_iteration,
               {"reorthogonalizations": basis.reorthogonalizations})


def minres_solve(op, b, x0=None, cfg: SolveConfig | None = None) -> SolveReport:
    """Minimal residual method via the three-term Lanczos recurrence.

    The tridiagonal least-squares problem is updated with Givens rotations,
    and the iterate is formed from the stored Lanczos basis, as in
    :func:`gmres_solve`.  In finite precision the three-term recurrence
    loses orthogonality, which delays convergence and limits the attainable
    residual.  One rule keeps it orthogonal (:class:`_LanczosBasis`): partial
    reorthogonalization at eps^(3/4), where the explicit residual reaches the
    tolerance that reorthogonalizing every vector reaches.  Works for
    Hermitian indefinite and singular operators; on a singular inconsistent
    system the run ends in a breakdown where the least-squares pivot
    vanishes on the operator's scale (one probe product; module docstring).
    Each step records |g_k|; where it meets the tolerance, it forms
    x_k = x0 + V y_k and records and judges b - op x_k.  A run of k steps, a
    step that breaks down included, makes k + 3 products: r0, the probe, one
    per step and the last; each check of an earlier step adds one.

    ``diagnostics`` holds ``reorthogonalizations``, how many Lanczos vectors
    were reorthogonalized, with history or without.
    """
    op, b, x0, cfg = _prepare(op, b, x0, cfg)
    if op.hermitian is not True:
        raise ValueError("minres_solve requires an operator flagged hermitian")
    return _minimal_residual(op, b, x0, cfg, _LanczosBasis)


def gmres_solve(op, b, x0=None, cfg: SolveConfig | None = None) -> SolveReport:
    """GMRES with a full Arnoldi recurrence (no restarting).

    Classical Gram-Schmidt run twice (CGS2) on every Arnoldi vector,
    Givens-rotation update of the Hessenberg least-squares problem, and the
    iterate formed from the stored basis where the recurrence residual meets
    the tolerance or the run ends (module docstring).  Applicable to any
    square operator.  The residual rule, breakdown and an exhausted basis
    are as in :func:`minres_solve`, at the same products.

    ``diagnostics`` holds :func:`minres_solve`'s one key, with one
    reorthogonalization counted per step.
    """
    op, b, x0, cfg = _prepare(op, b, x0, cfg)
    return _minimal_residual(op, b, x0, cfg, _ArnoldiBasis)
