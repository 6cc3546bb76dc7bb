import numpy as np
import pytest

from dkrylov import linalg
from dkrylov.checks import curve_deviation, equivalence_suite
from dkrylov.deflated import MethodVariant, run_method
from dkrylov.operators import dense_operator
from dkrylov.problems import (breakdown_prone_basis, clustered_spd_problem,
                              eigenvector_basis, symmetric_indefinite_problem,
                              toy_breakdown_problem)
from dkrylov.projection import Deflator, GalerkinMode
from dkrylov.solvers import SolveConfig, SolveStatus


def hermitian_instance(seed, n=40, k=4):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(1.0, 2.5, n) * rng.choice([-1.0, 1.0], n)
    a = (q * lam) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    u = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b /= np.linalg.norm(b)
    return a, b, u


class TestDeflatedCg:
    def test_outlier_deflation_reduces_iterations(self):
        p = clustered_spd_problem(80, 5, seed=3)
        u = eigenvector_basis(p, range(1, 6))
        cfg = SolveConfig(residual_tolerance=1e-10, max_iterations=500)
        plain = run_method(MethodVariant.CG, p.a, p.b, cfg=cfg)
        defl = run_method(MethodVariant.DEFLATED_CG, p.a, p.b, u, cfg=cfg)
        assert plain.status is SolveStatus.CONVERGED
        assert defl.status is SolveStatus.CONVERGED
        assert defl.deflated_report.iterations_used < plain.deflated_report.iterations_used
        rel = np.linalg.norm(p.b - p.a @ defl.corrected_iterate) / np.linalg.norm(p.b)
        assert rel <= 1e-9

    def test_exact_solution_converges_at_zero(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((20, 20))
        a = g @ g.T + 20 * np.eye(20)
        b = rng.standard_normal(20)
        u = rng.standard_normal((20, 3))
        x = np.linalg.solve(a, b)
        rep = run_method(MethodVariant.DEFLATED_CG, a, b, u, x)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.deflated_report.iterations_used == 0

    def test_requires_hpd(self):
        p = symmetric_indefinite_problem(10, seed=1)
        u = eigenvector_basis(p, [1])
        with pytest.raises(ValueError):
            run_method(MethodVariant.DEFLATED_CG, p.a, p.b, u)

    def test_initial_residual_orthogonal_to_basis(self):
        p = clustered_spd_problem(30, 3, seed=7)
        u = eigenvector_basis(p, range(1, 4))
        rep = run_method(MethodVariant.DEFLATED_CG, p.a, p.b, u,
                         cfg=SolveConfig(max_iterations=5, residual_tolerance=1e-30))
        # the corrected initial guess makes the true residual basis-orthogonal
        x0 = rep.deflated_report.iterates[0]
        assert np.linalg.norm(u.conj().T @ (p.b - p.a @ x0)) <= 1e-12


class TestEquivalences:
    def test_explicit_matches_deflation_only(self):
        for seed in (0, 1, 2):
            a, b, u = hermitian_instance(seed)
            r1 = run_method(MethodVariant.RMINRES_EXPLICIT, a, b, u)
            r2 = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, a, b, u)
            assert curve_deviation(r1, r2) <= 1e-8

    def test_adapted_guess_matches_two_sided(self):
        for seed in (3, 4):
            a, b, u = hermitian_instance(seed)
            rng = np.random.default_rng(seed + 100)
            x0 = rng.standard_normal(a.shape[0])
            r1 = run_method(MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS, a, b, u, x0)
            r2 = run_method(MethodVariant.DEFLATED_MINRES, a, b, u, x0)
            assert curve_deviation(r1, r2) <= 1e-8

    def test_gmres_matches_minres_for_hermitian(self):
        a, b, u = hermitian_instance(5)
        r1 = run_method(MethodVariant.DEFLATED_GMRES, a, b, u)
        r2 = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, a, b, u)
        assert curve_deviation(r1, r2) <= 1e-8

    def test_two_sided_start_matches_adapted_guess_on_small_eigenvalues(self):
        # u spans the five smallest eigenvalues, so u (w^H w)^-1 u^H b is
        # about 1/lambda_min^2 times ||b||; the two-sided right-hand side must
        # not pass through it
        p = clustered_spd_problem(80)
        u = eigenvector_basis(p, range(1, 6))
        free = run_method(MethodVariant.DEFLATED_MINRES, p.a, p.b, u)
        adapted = run_method(MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS, p.a, p.b, u)
        deviation = 0.0
        for x, y in ((free.original_residual_norms, adapted.original_residual_norms),
                     (free.deflated_report.residual_norms,
                      adapted.deflated_report.residual_norms)):
            k = min(len(x), len(y))
            deviation = max(deviation, np.max(np.abs(x[:k] - y[:k])))
        assert deviation <= 1e-13 * np.linalg.norm(p.b)

    def test_full_suite(self):
        report = equivalence_suite(seed=20, instances=6)
        assert report["passed"], report

    def test_exact_invariant_collapse(self):
        # with an exactly invariant basis all deflated variants produce the
        # same iterates, not just the same residual norms
        p = symmetric_indefinite_problem(20, seed=9)
        u = eigenvector_basis(p, [1, 2, 21, 22])
        cfg = SolveConfig(residual_tolerance=1e-10, max_iterations=100)
        r1 = run_method(MethodVariant.RMINRES_EXPLICIT, p.a, p.b, u, cfg=cfg)
        r2 = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, p.a, p.b, u, cfg=cfg)
        r3 = run_method(MethodVariant.DEFLATED_MINRES, p.a, p.b, u, cfg=cfg)
        for pair in ((r1, r2), (r2, r3)):
            assert np.linalg.norm(pair[0].corrected_iterate - pair[1].corrected_iterate) \
                <= 1e-10 * max(1.0, np.linalg.norm(pair[0].corrected_iterate))


class TestResidualIdentity:
    def test_corrected_iterates_reproduce_deflated_residuals(self):
        # correcting each deflated iterate must reproduce the deflated
        # residual norms on the original system
        a, b, u = hermitian_instance(6)
        cfg = SolveConfig(residual_tolerance=1e-10, max_iterations=200,
                          record_history=True)
        for variant in (MethodVariant.RMINRES_DEFLATION_ONLY, MethodVariant.DEFLATED_MINRES,
                        MethodVariant.DEFLATED_GMRES):
            result = run_method(variant, a, b, u, None, cfg)
            rep = result.deflated_report
            d = result.deflator
            if variant is MethodVariant.DEFLATED_MINRES:
                corrected = [d.correct_two_sided_iterate(x, b) for x in rep.iterates]
            else:
                corrected = [d.correct_iterate(x, b) for x in rep.iterates]
            explicit = np.array([np.linalg.norm(b - a @ x) for x in corrected])
            dev = np.abs(explicit - rep.residual_norms)
            assert dev.max() <= 1e-9 * rep.residual_norms[0]

    def test_explicit_variant_original_equals_deflated(self):
        a, b, u = hermitian_instance(7)
        result = run_method(MethodVariant.RMINRES_EXPLICIT, a, b, u)
        dev = np.abs(result.original_residual_norms
                     - result.deflated_report.residual_norms)
        assert dev.max() <= 1e-10 * result.original_residual_norms[0]

    def test_monotone_original_residuals(self):
        a, b, u = hermitian_instance(8)
        for variant in (MethodVariant.RMINRES_EXPLICIT, MethodVariant.RMINRES_DEFLATION_ONLY,
                        MethodVariant.DEFLATED_MINRES):
            result = run_method(variant, a, b, u)
            r = result.original_residual_norms
            assert np.all(r[1:] <= r[:-1] + 1e-12 * r[0])


class TestBreakdownBehavior:
    def test_toy_breakdown_frozen_report(self):
        p = toy_breakdown_problem()
        result = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, p.a, p.b, p.u)
        assert result.status is SolveStatus.BREAKDOWN
        assert result.deflated_report.breakdown_iteration == 1
        np.testing.assert_allclose(result.deflated_report.residual_norms, [1.0])
        # the correction of the frozen iterate misses the true solution
        np.testing.assert_allclose(result.corrected_iterate, [0.0, 0.0], atol=1e-14)

    def test_breakdown_free_variant_solves_toy_problem(self):
        p = toy_breakdown_problem()
        result = run_method(MethodVariant.DEFLATED_MINRES, p.a, p.b, p.u)
        assert result.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(result.corrected_iterate, p.known_solution, atol=1e-10)

    def test_adapted_guess_variant_solves_toy_problem(self):
        p = toy_breakdown_problem()
        result = run_method(MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS, p.a, p.b, p.u)
        assert result.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(result.corrected_iterate, p.known_solution, atol=1e-10)

    def test_breakdown_prone_basis_with_constructed_guess(self):
        from dkrylov.analysis import breakdown_initial_guess
        p = symmetric_indefinite_problem(25, seed=12)
        u = breakdown_prone_basis(p, range(1, 5))
        coeff = np.ones(4, dtype=complex)
        x0 = breakdown_initial_guess(p.a, p.b, u, coeff)
        result = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, p.a, p.b, u, x0)
        assert result.status is SolveStatus.BREAKDOWN
        assert result.deflated_report.breakdown_iteration == 1
        free = run_method(MethodVariant.DEFLATED_MINRES, p.a, p.b, u, x0)
        assert free.status is SolveStatus.CONVERGED
        rel = np.linalg.norm(p.b - p.a @ free.corrected_iterate) / np.linalg.norm(p.b)
        assert rel <= 1e-10


class TestVariantDispatch:
    def test_plain_variants_need_no_basis(self):
        p = symmetric_indefinite_problem(10, seed=2)
        result = run_method(MethodVariant.MINRES, p.a, p.b)
        assert result.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(result.original_residual_norms,
                                   result.deflated_report.residual_norms)

    def test_deflated_variant_requires_basis(self):
        p = symmetric_indefinite_problem(10, seed=2)
        with pytest.raises(ValueError):
            run_method(MethodVariant.RMINRES_EXPLICIT, p.a, p.b)

    @pytest.mark.parametrize("variant", list(MethodVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("where", ["b", "x0"])
    def test_non_finite_input_rejected(self, variant, where):
        p = clustered_spd_problem(40, 3, seed=1)
        vectors = {"b": p.b.copy(), "x0": np.zeros(40, dtype=complex)}
        vectors[where][7] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            run_method(variant, p.a, vectors["b"], p.eigenvectors[:, :3], vectors["x0"])

    @pytest.mark.parametrize("build", [
        lambda a, b, u: dense_operator(a),
        lambda a, b, u: run_method(MethodVariant.MINRES, a, b),
        lambda a, b, u: run_method(MethodVariant.CG, a, b),
        lambda a, b, u: Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING),
    ], ids=["dense-operator", "minres", "cg", "deflator"])
    def test_non_finite_matrix_rejected(self, build):
        p = clustered_spd_problem(40, 3, seed=1)
        a = p.a.copy()
        a[5, 5] = np.inf      # on the diagonal: still exactly symmetric
        assert np.array_equal(a, a.T)
        with pytest.raises(ValueError, match="finite"):
            build(a, np.ones(40), p.eigenvectors[:, :3])

    def test_all_variants_run_on_indefinite_problem(self):
        p = symmetric_indefinite_problem(15, seed=3)
        u = eigenvector_basis(p, [1, 16])
        cfg = SolveConfig(residual_tolerance=1e-9, max_iterations=120)
        for variant in MethodVariant:
            if variant in (MethodVariant.CG, MethodVariant.DEFLATED_CG):
                continue  # the matrix is indefinite
            result = run_method(variant, p.a, p.b, u, cfg=cfg)
            assert result.status is SolveStatus.CONVERGED, variant

    def test_hermitian_requirement_of_minres_variants(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8)) + 8 * np.eye(8)  # not symmetric
        b = rng.standard_normal(8)
        u = rng.standard_normal((8, 2))
        for variant in (MethodVariant.RMINRES_EXPLICIT, MethodVariant.RMINRES_DEFLATION_ONLY,
                        MethodVariant.DEFLATED_MINRES,
                        MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS):
            with pytest.raises(ValueError):
                run_method(variant, a, b, u)
        # GMRES accepts general nonsingular matrices
        result = run_method(MethodVariant.DEFLATED_GMRES, a, b, u)
        assert result.status is SolveStatus.CONVERGED

    def test_correction_counts_reflect_strategy(self):
        a, b, u = hermitian_instance(9)
        explicit = run_method(MethodVariant.RMINRES_EXPLICIT, a, b, u)
        deferred = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, a, b, u)
        assert deferred.correction_count == 1
        assert explicit.correction_count == len(explicit.original_residual_norms)
