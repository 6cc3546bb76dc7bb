import numpy as np
import pytest

from dkrylov import linalg
from dkrylov.checks import equivalence_instances
from dkrylov.operators import deflated_operator, dense_operator
from dkrylov.problems import symmetric_indefinite_problem, toy_breakdown_problem
from dkrylov.projection import Deflator, GalerkinMode
from dkrylov.solvers import (IndefiniteOperatorError, SolveConfig, SolveStatus,
                             cg_solve, gmres_solve, minres_solve)


def random_hpd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + n * np.eye(n)


def random_hermitian_indefinite(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(1.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
    a = (q * lam) @ q.conj().T
    return 0.5 * (a + a.conj().T)


def krylov_least_squares_residuals(a, b, x0, steps):
    """Dense least-squares oracle: optimal residual over x0 + K_n for each n."""
    r0 = b - a @ x0
    columns = [r0]
    for _ in range(steps - 1):
        columns.append(a @ columns[-1])
    out = [np.linalg.norm(r0)]
    for n in range(1, steps + 1):
        basis = linalg.orthonormal_basis(np.column_stack(columns[:n]))
        target = a @ basis
        coeffs, *_ = np.linalg.lstsq(target, r0, rcond=None)
        out.append(np.linalg.norm(r0 - target @ coeffs))
    return np.array(out)


class TestSolveConfig:
    def test_defaults_valid(self):
        cfg = SolveConfig()
        assert cfg.residual_tolerance == 1e-10
        assert cfg.explicit_residuals is True

    @pytest.mark.parametrize("kwargs", [
        {"residual_tolerance": 0.0},
        {"residual_tolerance": -1e-3},
        {"breakdown_threshold": 0.0},
        {"max_iterations": 0},
        {"residual_tolerance": float("nan")},
        {"breakdown_threshold": float("nan")},
        {"residual_tolerance": float("inf")},
        {"breakdown_threshold": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)


class TestCg:
    def test_identity_converges_immediately(self):
        op = dense_operator(np.eye(5))
        b = np.arange(1.0, 6.0)
        rep = cg_solve(op, b)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations_used == 1
        np.testing.assert_allclose(rep.final_iterate, b, atol=1e-12)

    def test_random_hpd(self):
        rng = np.random.default_rng(0)
        a = random_hpd(rng, 50)
        b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        rep = cg_solve(dense_operator(a), b)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations_used <= 50
        assert np.linalg.norm(b - a @ rep.final_iterate) <= 1e-9 * np.linalg.norm(b)

    def test_deflated_consistent_system(self):
        rng = np.random.default_rng(1)
        a = random_hpd(rng, 30)
        u = rng.standard_normal((30, 4))
        b = rng.standard_normal(30)
        d = Deflator(a, u, GalerkinMode.RESIDUAL_ORTHOGONAL)
        op = deflated_operator(d, "left")
        x0 = d.initial_correction(np.zeros(30), b)
        rep = cg_solve(op, d.project_residual(b), x0)
        assert rep.status is SolveStatus.CONVERGED
        corrected = d.correct_iterate(rep.final_iterate, b)
        exact = np.linalg.solve(a, b)
        assert np.linalg.norm(corrected - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_indefinite_detected(self):
        op = dense_operator(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(IndefiniteOperatorError):
            cg_solve(op, np.array([1.0, 1.0, 1.0]))

    def test_requires_hermitian_flag(self):
        op = dense_operator(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            cg_solve(op, np.array([1.0, 1.0]))

    def test_galerkin_orthogonality_of_residuals(self):
        rng = np.random.default_rng(2)
        a = random_hpd(rng, 25)
        b = rng.standard_normal(25)
        rep = cg_solve(dense_operator(a), b, cfg=SolveConfig(max_iterations=10,
                                                             residual_tolerance=1e-30))
        vectors = rep.diagnostics["residual_vectors"]
        v = np.column_stack(vectors[:-1])
        r_last = vectors[-1]
        scale = np.linalg.norm(a) * np.linalg.norm(r_last) + 1e-300
        assert np.linalg.norm(v.conj().T @ r_last) <= 1e-10 * scale * v.shape[1]

    def test_initial_residual_recorded(self):
        rng = np.random.default_rng(3)
        a = random_hpd(rng, 10)
        b = rng.standard_normal(10)
        x0 = rng.standard_normal(10)
        rep = cg_solve(dense_operator(a), b, x0)
        r0 = np.linalg.norm(b - a @ x0)
        assert rep.residual_norms[0] == pytest.approx(r0, rel=1e-14)


class TestMinres:
    def test_diagonal_three_steps(self):
        op = dense_operator(np.diag([1.0, 2.0, 3.0]))
        rep = minres_solve(op, np.array([1.0, 1.0, 1.0]))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations_used <= 3
        np.testing.assert_allclose(rep.final_iterate, [1.0, 0.5, 1.0 / 3.0], atol=1e-9)

    def test_toy_deflated_breakdown(self):
        p = toy_breakdown_problem()
        d = Deflator(p.a, p.u, GalerkinMode.RESIDUAL_MINIMIZING)
        op = deflated_operator(d, "two_sided")
        rep = minres_solve(op, d.project_residual(p.b))
        assert rep.status is SolveStatus.BREAKDOWN
        assert rep.breakdown_iteration == 1
        np.testing.assert_allclose(rep.residual_norms, [1.0])
        np.testing.assert_allclose(rep.final_iterate, np.zeros(2))

    def test_matches_gmres_on_hermitian_indefinite(self):
        rng = np.random.default_rng(4)
        a = random_hermitian_indefinite(rng, 40)
        b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        cfg = SolveConfig(residual_tolerance=1e-10, max_iterations=120)
        rep_m = minres_solve(dense_operator(a), b, cfg=cfg)
        rep_g = gmres_solve(dense_operator(a), b, cfg=cfg)
        assert rep_m.status is SolveStatus.CONVERGED
        m = min(len(rep_m.residual_norms), len(rep_g.residual_norms))
        dev = np.abs(rep_m.residual_norms[:m] - rep_g.residual_norms[:m])
        assert dev.max() <= 1e-8 * rep_m.residual_norms[0]

    def test_minimal_residual_optimality_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            a = random_hermitian_indefinite(rng, 20)
            b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            x0 = rng.standard_normal(20)
            oracle = krylov_least_squares_residuals(a, b, x0, 8)
            rep = minres_solve(dense_operator(a), b, x0,
                               SolveConfig(max_iterations=8, residual_tolerance=1e-30))
            m = min(len(oracle), len(rep.residual_norms))
            np.testing.assert_allclose(rep.residual_norms[:m], oracle[:m],
                                       atol=1e-8 * oracle[0])

    def test_lucky_termination_reports_converged(self):
        # start vector spans an invariant subspace of dimension 2
        op = dense_operator(np.diag([1.0, 2.0, 3.0, 4.0]))
        b = np.array([1.0, 1.0, 0.0, 0.0])
        rep = minres_solve(op, b)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations_used <= 2
        np.testing.assert_allclose(rep.final_iterate, [1.0, 0.5, 0.0, 0.0], atol=1e-10)

    def test_monotone_residuals(self):
        rng = np.random.default_rng(6)
        a = random_hermitian_indefinite(rng, 30)
        b = rng.standard_normal(30)
        rep = minres_solve(dense_operator(a), b)
        r = rep.residual_norms
        assert np.all(r[1:] <= r[:-1] + 1e-12 * r[0])

    def test_recurrence_matches_explicit(self):
        rng = np.random.default_rng(7)
        a = random_hermitian_indefinite(rng, 30)
        b = rng.standard_normal(30)
        rep = minres_solve(dense_operator(a), b)
        dev = np.abs(rep.residual_norms - rep.recurrence_residual_norms)
        assert dev.max() <= 1e-8 * rep.residual_norms[0]

    def test_orthogonality_drift_reported(self):
        rng = np.random.default_rng(8)
        a = random_hermitian_indefinite(rng, 25)
        b = rng.standard_normal(25)
        rep = minres_solve(dense_operator(a), b)
        assert "basis_orthogonality_drift" in rep.diagnostics
        assert rep.diagnostics["basis_orthogonality_drift"] >= 0.0

    def test_reorthogonalization_reduces_drift(self):
        rng = np.random.default_rng(9)
        a = random_hermitian_indefinite(rng, 60)
        b = rng.standard_normal(60)
        cfg_plain = SolveConfig(residual_tolerance=1e-12, max_iterations=200)
        cfg_reorth = SolveConfig(residual_tolerance=1e-12, max_iterations=200,
                                 reorthogonalize=True)
        drift_plain = minres_solve(dense_operator(a), b, cfg=cfg_plain).diagnostics[
            "basis_orthogonality_drift"]
        drift_reorth = minres_solve(dense_operator(a), b, cfg=cfg_reorth).diagnostics[
            "basis_orthogonality_drift"]
        assert drift_reorth <= drift_plain

    def test_semi_orthogonal_on_deflated_equivalence_instance(self):
        # Instance 3 of the seed-20 equivalence suite (n=46, k=5): the
        # two-sided operator has a 41-dimensional range whose smallest
        # nonzero |eigenvalue| is about 1e-2.  The plain three-term
        # recurrence lost orthogonality there (drift 1.0) and took 41-42
        # steps, more than the range can hold.
        a, b, u, x0 = list(equivalence_instances(seed=20, instances=4))[3]
        d = Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING)
        rank = a.shape[0] - u.shape[1]
        rep = minres_solve(deflated_operator(d, "two_sided"), d.two_sided_rhs(b), x0,
                           SolveConfig(residual_tolerance=1e-10, max_iterations=400))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations_used <= rank
        drift = rep.diagnostics["basis_orthogonality_drift"]
        assert drift <= rep.iterations_used * np.sqrt(np.finfo(float).eps)

    def test_full_reorthogonalization_every_step(self):
        rng = np.random.default_rng(14)
        a = random_hermitian_indefinite(rng, 30)
        b = rng.standard_normal(30)
        rep = minres_solve(dense_operator(a), b, cfg=SolveConfig(reorthogonalize=True))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.diagnostics["reorthogonalizations"] == rep.iterations_used

    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    def test_runs_past_the_dimension(self, solver):
        # With breakdown and residual tolerances out of reach the iteration
        # continues beyond n steps, and the stored basis (and GMRES's
        # triangular factor) must grow.
        op = dense_operator(np.diag([1.0, -2.0, 3.0, 4.0]))
        b = np.ones(4)
        cfg = SolveConfig(max_iterations=20, residual_tolerance=1e-30,
                          breakdown_threshold=1e-300)
        rep = solver(op, b, cfg=cfg)
        assert rep.status is SolveStatus.MAX_ITERATIONS
        assert rep.iterations_used == 20
        np.testing.assert_allclose(rep.final_iterate, [1.0, -0.5, 1.0 / 3.0, 0.25],
                                   atol=1e-12)

    def test_requires_hermitian_flag(self):
        op = dense_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            minres_solve(op, np.array([1.0, 0.0]))

    def test_zero_rhs_converges_at_zero(self):
        op = dense_operator(np.diag([1.0, 2.0]))
        rep = minres_solve(op, np.zeros(2))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations_used == 0


class TestGmres:
    def test_toy_deflated_breakdown(self):
        p = toy_breakdown_problem()
        d = Deflator(p.a, p.u, GalerkinMode.RESIDUAL_MINIMIZING)
        op = deflated_operator(d, "left")
        rep = gmres_solve(op, d.project_residual(p.b))
        assert rep.status is SolveStatus.BREAKDOWN
        assert rep.breakdown_iteration == 1
        np.testing.assert_allclose(rep.residual_norms, [1.0])

    def test_nonsingular_never_breaks_down(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)) + 30 * np.eye(30)
        b = rng.standard_normal(30)
        rep = gmres_solve(dense_operator(a), b)
        assert rep.status is SolveStatus.CONVERGED
        assert np.linalg.norm(b - a @ rep.final_iterate) <= 1e-8 * np.linalg.norm(b)

    def test_least_squares_optimality_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((15, 15)) + 15 * np.eye(15)
        b = rng.standard_normal(15)
        x0 = rng.standard_normal(15)
        oracle = krylov_least_squares_residuals(a, b, x0, 6)
        rep = gmres_solve(dense_operator(a), b, x0,
                          SolveConfig(max_iterations=6, residual_tolerance=1e-30))
        m = min(len(oracle), len(rep.residual_norms))
        np.testing.assert_allclose(rep.residual_norms[:m], oracle[:m], atol=1e-8 * oracle[0])

    def test_monotone_residuals(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((25, 25)) + 25 * np.eye(25)
        b = rng.standard_normal(25)
        rep = gmres_solve(dense_operator(a), b)
        r = rep.residual_norms
        assert np.all(r[1:] <= r[:-1] + 1e-12 * r[0])

    def test_lucky_termination(self):
        op = dense_operator(np.diag([1.0, 2.0, 3.0]))
        rep = gmres_solve(op, np.array([1.0, 0.0, 0.0]))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations_used <= 1

    def test_diagnostics_match_minres(self):
        # Both minimal-residual solvers report the same diagnostics; GMRES
        # orthogonalizes every Arnoldi vector twice, one CGS2 per step.
        rng = np.random.default_rng(15)
        a = random_hermitian_indefinite(rng, 30)
        b = rng.standard_normal(30)
        rep_g = gmres_solve(dense_operator(a), b)
        rep_m = minres_solve(dense_operator(a), b)
        assert rep_g.status is SolveStatus.CONVERGED
        assert set(rep_g.diagnostics) == set(rep_m.diagnostics) == {
            "basis_orthogonality_drift", "reorthogonalizations"}
        assert rep_g.diagnostics["reorthogonalizations"] == rep_g.iterations_used
        assert rep_g.diagnostics["basis_orthogonality_drift"] <= 1e-12

    def test_accepts_plain_ndarray(self):
        a = np.diag([2.0, 5.0])
        rep = gmres_solve(a, np.array([2.0, 5.0]))
        np.testing.assert_allclose(rep.final_iterate, [1.0, 1.0], atol=1e-10)


class TestStagnation:
    def test_inconsistent_singular_system_stagnates_or_breaks(self):
        # rank-deficient Hermitian system with an inconsistent right-hand side
        a = np.diag([1.0, 2.0, 3.0, 0.0])
        b = np.array([1.0, 1.0, 1.0, 0.5])
        rep = minres_solve(dense_operator(a), b,
                           cfg=SolveConfig(max_iterations=200, residual_tolerance=1e-10))
        assert rep.status in (SolveStatus.BREAKDOWN, SolveStatus.STAGNATED)

    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    @pytest.mark.parametrize("reorthogonalize", [False, True])
    @pytest.mark.parametrize("explicit_residuals", [False, True])
    def test_singular_last_step_is_not_committed(self, solver, reorthogonalize,
                                                 explicit_residuals):
        # The Krylov space is exhausted at step 4 with a singular
        # least-squares factor; the least possible residual is 0.5, so the
        # step must not be committed as a lucky termination.  Without
        # explicit residuals only the pivot test can tell.
        a = np.diag([1.0, 2.0, 3.0, 0.0])
        b = np.array([1.0, 1.0, 1.0, 0.5])
        cfg = SolveConfig(max_iterations=200, residual_tolerance=1e-10,
                          reorthogonalize=reorthogonalize,
                          explicit_residuals=explicit_residuals)
        rep = solver(dense_operator(a), b, cfg=cfg)
        assert rep.status is SolveStatus.BREAKDOWN
        assert rep.breakdown_iteration == 4
        assert rep.residual_norms[-1] == pytest.approx(0.5, rel=1e-10)
        assert np.linalg.norm(b - a @ rep.final_iterate) == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("solver, explicit_residuals", [
        (minres_solve, True), (gmres_solve, True), (minres_solve, False), (gmres_solve, False),
    ], ids=["minres_solve", "gmres_solve", "minres_solve-recurrence", "gmres_solve-recurrence"])
    def test_unattainable_tolerance_on_nonsingular_system(self, solver, explicit_residuals):
        # Nonsingular, but at condition 2e8 the default tolerance lies below
        # the attainable accuracy: the Krylov space is exhausted at step 3
        # and the last step misses the tolerance, so the run is not
        # reported as converged, and what it records is the true residual.
        # Without explicit residuals the recurrence residual meets the
        # tolerance, so only the final explicit check can tell.
        q = linalg.random_orthogonal(3, 0)
        a = q @ np.diag([1.0, -2.0, 1e-8]) @ q.conj().T
        b = q @ np.ones(3)
        rep = solver(dense_operator(a), b, cfg=SolveConfig(explicit_residuals=explicit_residuals))
        assert rep.status is not SolveStatus.CONVERGED
        assert rep.residual_norms[-1] == pytest.approx(
            np.linalg.norm(b - a @ rep.final_iterate), rel=1e-12)

    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    def test_exhausted_space_commits_the_last_step(self, solver):
        # On the same system the last step's pivot is usable and its
        # recurrence residual meets the tolerance, so the step is committed;
        # its explicit residual, about 1e-8, misses the tolerance, so the run
        # stagnates there instead of falling back to the step-2 iterate,
        # whose residual is 1.0.
        q = linalg.random_orthogonal(3, 0)
        a = q @ np.diag([1.0, -2.0, 1e-8]) @ q.conj().T
        b = q @ np.ones(3)
        rep = solver(dense_operator(a), b)
        assert rep.status is SolveStatus.STAGNATED
        assert rep.iterations_used == 3
        assert rep.breakdown_iteration is None
        assert np.linalg.norm(b - a @ rep.final_iterate) <= 1e-7 * np.linalg.norm(b)

    def test_max_iterations_status(self):
        rng = np.random.default_rng(13)
        a = random_hpd(rng, 40)
        b = rng.standard_normal(40)
        rep = cg_solve(dense_operator(a), b,
                       cfg=SolveConfig(max_iterations=3, residual_tolerance=1e-14))
        assert rep.status is SolveStatus.MAX_ITERATIONS
        assert rep.iterations_used == 3
