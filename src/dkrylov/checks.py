"""Seeded property suites behind the ``check`` command.

Each suite runs a batch of randomized instances, measures the worst violation
of every identity it covers, and returns a JSON-ready report.  The pytest
suite drives the same functions, so the command-line checks and the tests can
never drift apart.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .analysis import (breakdown_initial_guess, check_deflated_spectrum,
                       diagnose_breakdown)
from .deflated import MethodVariant, run_method, run_methods
from .problems import (breakdown_prone_basis, eigenvector_basis,
                       symmetric_indefinite_problem)
from .projection import Deflator, GalerkinMode
from .solvers import SolveConfig, SolveStatus


def run_suite(name: str, seed: int = 0) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return SUITES[name](seed)


def _check(name, violation, tolerance):
    return {
        "name": name,
        "max_violation": float(violation),
        "tolerance": float(tolerance),
        "passed": bool(violation <= tolerance),
    }


def _finish(name, seed, checks):
    return {
        "suite": name,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def _random_hpd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g @ g.conj().T + n * np.eye(n)).astype(np.complex128)


def _random_hermitian(rng, n):
    """Indefinite Hermitian with eigenvalue magnitudes in [1, 2.5].

    The spectrum is kept away from zero so that minimal-residual runs stay
    short.  Deflation can still leave small eigenvalues in the projected
    operator; loss of orthogonality in the Lanczos basis is handled by the
    solver (partial reorthogonalization in ``minres_solve``), not here.
    """
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(1.0, 2.5, n) * rng.choice([-1.0, 1.0], n)
    return linalg.assemble_hermitian(q, lam)


def _random_nonsingular(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + n * np.eye(n)).astype(np.complex128)


def _random_basis(rng, n, k):
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))).astype(np.complex128)


def projection_suite(seed: int = 0) -> dict:
    """Projector identities on 20 random instances in both Galerkin modes."""
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst: dict[str, float] = {}

    def track(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

    for _ in range(20):
        n = int(rng.integers(10, 61))
        k = int(rng.integers(1, min(9, n)))
        for mode in GalerkinMode:
            if mode is GalerkinMode.RESIDUAL_ORTHOGONAL:
                a = _random_hpd(rng, n)
            else:
                a = _random_nonsingular(rng, n)
            u = _random_basis(rng, n, k)
            d = Deflator(a, u, mode)
            v = _random_basis(rng, n, 1).ravel()
            y = _random_basis(rng, k, 1).ravel()
            zero = np.zeros(n)
            anorm = linalg.spectral_norm(a)
            vnorm = linalg.vector_norm(v)
            scale = max(anorm * vnorm, 1.0)

            pv = d.project_residual(v)
            track("residual_projector_idempotent",
                  linalg.vector_norm(d.project_residual(pv) - pv) / scale)
            track("residual_projector_kills_image",
                  linalg.vector_norm(d.project_residual(a @ (u @ y)))
                  / max(anorm * linalg.vector_norm(u @ y), 1e-300))
            bu = u if mode is GalerkinMode.RESIDUAL_ORTHOGONAL else d.w
            track("residual_projector_range",
                  linalg.vector_norm(bu.conj().T @ pv)
                  / max(linalg.spectral_norm(bu) * vnorm, 1e-300))

            # The solution projector Q is the correction of b = 0.
            qv = d.correct_iterate(v, zero)
            track("solution_projector_idempotent",
                  linalg.vector_norm(d.correct_iterate(qv, zero) - qv) / scale)
            track("solution_projector_kills_basis",
                  linalg.vector_norm(d.correct_iterate(u @ y, zero))
                  / max(linalg.spectral_norm(u) * linalg.vector_norm(y), 1e-300))
            track("solution_projector_range",
                  linalg.vector_norm(bu.conj().T @ (a @ qv))
                  / max(anorm * linalg.spectral_norm(bu) * vnorm, 1e-300))

            track("projector_intertwining",
                  linalg.vector_norm(d.project_residual(a @ v) - a @ qv) / scale)
            if mode is GalerkinMode.RESIDUAL_MINIMIZING:
                w2 = _random_basis(rng, n, 1).ravel()
                defect = abs(linalg.inner(pv, w2) - linalg.inner(v, d.project_residual(w2)))
                track("residual_projector_self_adjoint",
                      defect / max(vnorm * linalg.vector_norm(w2), 1e-300))

    checks = [_check(name, value, tol) for name, value in sorted(worst.items())]
    return _finish("projections", seed, checks)


def equivalence_instances(seed: int, instances: int):
    """Yield the seeded systems ``(a, b, u, x0)`` of :func:`equivalence_suite`.

    Hermitian indefinite ``a`` of order 30-80, a random deflation basis ``u``
    of 2-6 columns, a unit right-hand side ``b``, and a random initial guess
    ``x0`` on every odd instance (``None`` on the even ones).
    """
    rng = np.random.default_rng(seed)
    for index in range(instances):
        n = int(rng.integers(30, 81))
        k = int(rng.integers(2, 7))
        a = _random_hermitian(rng, n)
        u = _random_basis(rng, n, k)
        b = _random_basis(rng, n, 1).ravel()
        b /= linalg.vector_norm(b)
        x0 = _random_basis(rng, n, 1).ravel() if index % 2 else None
        yield a, b, u, x0


def equivalence_suite(seed: int = 0, instances: int = 10) -> dict:
    """Curve equalities between the mathematically equivalent variants.

    ``adapted_guess_vs_two_sided`` compares the shared two-sided iteration,
    as ``DEFLATED_MINRES_ADAPTED_GUESS`` reads it, with the other side of the
    paper's equivalence run on its own: MINRES on the left-projected system
    from the adapted guess x~0 of the suite's own ``x0``, not the one the
    variant reports.  That run is ``RMINRES_DEFLATION_ONLY`` from x~0, the
    two-sided recipe of the given guess, whose original curve is its deflated one.

    Each ``max_violation`` is the worst over the first ``instances`` systems
    of :func:`equivalence_instances`, so it can only grow with their count:
    a figure quoted from this suite names its seed and its count.
    """
    tol = 1e-8
    cfg = SolveConfig(residual_tolerance=1e-10, max_iterations=400)
    dev_explicit = 0.0
    dev_gmres = 0.0
    dev_adapted = 0.0
    variants = (MethodVariant.RMINRES_EXPLICIT, MethodVariant.RMINRES_DEFLATION_ONLY,
                MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS, MethodVariant.DEFLATED_GMRES)
    for a, b, u, x0 in equivalence_instances(seed, instances):
        r_exp, r_only, r_adap, r_gm = run_methods(variants, a, b, u, x0, cfg)

        dev_explicit = max(dev_explicit, curve_deviation(r_exp, r_only))
        dev_gmres = max(dev_gmres, curve_deviation(r_gm, r_only))
        xi = Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING).adapted_initial_guess(
            np.zeros(len(b)) if x0 is None else x0, b)
        reference = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, a, b, u, xi, cfg)
        dev_adapted = max(dev_adapted, curve_deviation(r_adap, reference))
    checks = [
        _check("explicit_vs_deflation_only", dev_explicit, tol),
        _check("gmres_vs_deflation_only", dev_gmres, tol),
        _check("adapted_guess_vs_two_sided", dev_adapted, tol),
    ]
    return _finish("equivalence", seed, checks)


def curve_deviation(ra, rb) -> float:
    """Max pointwise distance of two residual curves, relative to the start.

    Curves of different lengths (stopping criteria may fire at different
    steps) are compared on the common prefix; the tail of the longer run only
    counts as deviation where it rises above the last common value, i.e. a
    run that merely kept converging past the other's stop is not penalized.
    """
    na = np.asarray(ra.original_residual_norms, dtype=float)
    nb = np.asarray(rb.original_residual_norms, dtype=float)
    r0 = max(na[0], nb[0], np.finfo(float).tiny)
    m = min(len(na), len(nb))
    dev = float(np.max(np.abs(na[:m] - nb[:m]))) / r0
    longer = na if len(na) > len(nb) else nb
    if len(longer) > m:
        worst_tail = float(np.max(longer[m:]))
        dev = max(dev, max(0.0, worst_tail - longer[m - 1]) / r0)
    return dev


def spectrum_suite(seed: int = 0) -> dict:
    """Deflated-spectrum verification on invariant subspaces: the paper's
    problem and 5 random Hermitian positive definite matrices."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    tol = 1e-8
    p = symmetric_indefinite_problem(50, seed=seed)
    u = eigenvector_basis(p, list(range(1, 6)) + list(range(51, 56)))
    result = check_deflated_spectrum(p.a, u, GalerkinMode.RESIDUAL_MINIMIZING)
    worst = max(worst, result.max_mismatch / max(linalg.spectral_norm(p.a), 1.0))
    for _ in range(5):
        n = int(rng.integers(20, 61))
        k = int(rng.integers(1, 8))
        a = _random_hpd(rng, n)
        u = np.linalg.eigh(0.5 * (a + a.conj().T))[1][:, :k]
        for mode in GalerkinMode:
            result = check_deflated_spectrum(a, u, mode)
            worst = max(worst, result.max_mismatch / max(linalg.spectral_norm(a), 1.0))
    checks = [_check("deflated_spectrum_multiset", worst, tol)]
    return _finish("spectrum", seed, checks)


def breakdown_suite(seed: int = 0) -> dict:
    """Soundness of the breakdown predicate in both directions, on 12 pairs
    of a breakdown-prone and an invariant basis.

    Flagged instances must admit a constructible first-step breakdown guess;
    exactly invariant deflation spaces must never break down from 4 random
    initial guesses each.
    """
    rng = np.random.default_rng(seed)
    cfg = SolveConfig(residual_tolerance=1e-10, max_iterations=300)
    flagged_failures = 0
    flagged_total = 0
    invariant_breakdowns = 0
    invariant_runs = 0
    false_flags = 0
    for _ in range(12):
        m = int(rng.integers(10, 31))
        p = symmetric_indefinite_problem(m, seed=int(rng.integers(0, 2**31)))
        k = int(rng.integers(1, min(6, m - 1)))
        start = int(rng.integers(1, m - k)) if m - k > 1 else 1
        idx = range(start, start + k)

        u_break = breakdown_prone_basis(p, idx)
        flagged_total += 1
        diag = diagnose_breakdown(p.a, u_break)
        if not diag.intersection_nontrivial:
            flagged_failures += 1
            continue
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        x0 = breakdown_initial_guess(p.a, p.b, u_break, coeff)
        rep = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, p.a, p.b, u_break, x0, cfg)
        if not (rep.status is SolveStatus.BREAKDOWN
                and rep.deflated_report.breakdown_iteration == 1):
            flagged_failures += 1

        u_inv = eigenvector_basis(p, idx)
        diag_inv = diagnose_breakdown(p.a, u_inv)
        if diag_inv.intersection_nontrivial:
            false_flags += 1
        for _ in range(4):
            x0r = rng.standard_normal(2 * m) + 1j * rng.standard_normal(2 * m)
            rep = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, p.a, p.b, u_inv, x0r, cfg)
            invariant_runs += 1
            if rep.status is SolveStatus.BREAKDOWN:
                invariant_breakdowns += 1
    checks = [
        _check("flagged_pairs_break_down_at_step_one", flagged_failures, 0),
        _check("invariant_bases_never_flagged", false_flags, 0),
        _check(f"invariant_bases_never_break_down_({invariant_runs}_runs)",
               invariant_breakdowns, 0),
    ]
    return _finish("breakdown", seed, checks)


def status_suite(seed: int = 0) -> dict:
    """A converged run meets its tolerance on the original system.

    Every ``CONVERGED`` run must have ||b - A x|| <= 10 tol max(||b||,
    ||b - A x0||) for its corrected iterate x; any other outcome (stagnated,
    breakdown, the iteration limit or a raised error) is an honest one.

    The 24 systems are real symmetric ``a = Q diag(lam) Q^T`` of order 20-80
    whose |lam| are log-uniform over up to 10 decades below 1, positive on
    about half of the draws and of random sign on the others; a basis of the
    1-5 eigenvectors of smallest |lam| plus noise of size 1e-12 to 1e-1; a
    standard-normal b; a random x0 on about half of the draws; and a
    tolerance from 1e-12 to 1e-6.  Deflating near-null eigenvectors blows up
    the deflated right-hand sides, so a deflated run's own tolerance test
    does not bound the original residual.  Each system runs the six MINRES
    and GMRES variants, and on a positive definite draw the two CG variants
    as well, each in its own :func:`run_method` call, so that a variant that
    raises (a numerically singular coupling, for one) counts as one raised
    run and the system's other variants are still judged.
    """
    rng = np.random.default_rng(seed)
    systems = 24
    cg_variants = (MethodVariant.CG, MethodVariant.DEFLATED_CG)
    worst = 0.0
    runs = converged = raised = 0
    for _ in range(systems):
        n = int(rng.integers(20, 81))
        k = int(rng.integers(1, 6))
        spd = bool(rng.integers(2))
        lam = 10.0 ** -rng.uniform(0.0, rng.uniform(0.0, 10.0), n)
        if not spd:
            lam *= rng.choice([-1.0, 1.0], n)
        q = linalg.random_orthogonal(n, int(rng.integers(2**31)))
        a = linalg.assemble_hermitian(q, lam)
        u = q[:, np.argsort(np.abs(lam))[:k]]
        u = u + 10.0 ** rng.uniform(-12.0, -1.0) * rng.standard_normal((n, k))
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n) if rng.integers(2) else np.zeros(n)
        tol = 10.0 ** rng.uniform(-12.0, -6.0)
        scale = tol * max(linalg.vector_norm(b), linalg.vector_norm(b - a @ x0))
        for variant in [v for v in MethodVariant if spd or v not in cg_variants]:
            try:
                rep = run_method(variant, a, b, u, x0, SolveConfig(residual_tolerance=tol))
            except (ValueError, RuntimeError):
                raised += 1
                continue
            runs += 1
            if rep.status is SolveStatus.CONVERGED:
                converged += 1
                worst = max(worst, linalg.vector_norm(b - a @ rep.corrected_iterate) / scale)
    checks = [_check(f"converged_residual_over_tol_({converged}_converged_of_{runs}_runs,"
                     f"_{raised}_runs_raised,_{systems}_systems)", worst, 10.0)]
    return _finish("status", seed, checks)


#: Suite name -> suite function, in the order the ``check`` command lists them.
SUITES = {"projections": projection_suite, "equivalence": equivalence_suite,
          "spectrum": spectrum_suite, "breakdown": breakdown_suite, "status": status_suite}
