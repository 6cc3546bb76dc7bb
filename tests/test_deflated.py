import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from dkrylov import deflated, linalg
from dkrylov.analysis import breakdown_initial_guess
from dkrylov.checks import curve_deviation, equivalence_instances, equivalence_suite
from dkrylov.deflated import MethodVariant, run_method, run_methods
from dkrylov.operators import deflated_operator, dense_operator
from dkrylov.problems import (breakdown_prone_basis, clustered_spd_problem,
                              eigenvector_basis, perturb_basis, symmetric_indefinite_problem,
                              toy_breakdown_problem)
from dkrylov.projection import Deflator, GalerkinMode
from dkrylov.solvers import SolveConfig, SolveStatus, cg_solve, gmres_solve, minres_solve

#: The environment variables that set a BLAS library's thread count.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def hermitian_instance(seed, n=40, k=4):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(1.0, 2.5, n) * rng.choice([-1.0, 1.0], n)
    a = linalg.assemble_hermitian(q, lam)
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

    @pytest.mark.parametrize("tol", [1e-16, 1e-20, 1e-30])
    @pytest.mark.parametrize("columns", ["first", "last"])
    def test_roundoff_curvature_is_a_breakdown(self, columns, tol):
        # HPD with eigenvalues 1 and 2 (n = 35), five of its eigenvectors
        # deflated.  The projected system is solved within a few steps, and
        # the next curvature, about -1e-47, is roundoff beside pivots of 1
        # to 2: a breakdown, not an IndefiniteOperatorError.
        q = linalg.random_orthogonal(35, 0)
        rng = np.random.default_rng(0)
        a = linalg.assemble_hermitian(q, 1.5 + 0.5 * rng.choice([-1.0, 1.0], 35))
        b = rng.standard_normal(35)
        u = q[:, :5] if columns == "first" else q[:, -5:]
        rep = run_method(MethodVariant.DEFLATED_CG, a, b, u,
                         cfg=SolveConfig(residual_tolerance=tol, max_iterations=3000))
        assert rep.deflated_report.iterations_used < 35
        assert np.linalg.norm(b - a @ rep.corrected_iterate) <= 1e-14 * np.linalg.norm(b)

    @pytest.mark.parametrize("n", [80, 200])
    @pytest.mark.parametrize("eps", [0.0, 1e-6], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("x0_kind", ["zero", "random"])
    def test_matches_a_run_from_the_shifted_guess(self, n, eps, x0_kind):
        # P A U = 0, so shifting x0 by initial_correction changes neither
        # the projected residuals nor the corrected iterate: the run from the
        # given x0 is the shifted pipeline that a caller without the final
        # correction would build, up to roundoff.
        p = clustered_spd_problem(n, 5, seed=n)
        u = eigenvector_basis(p, range(1, 6))
        if eps:
            u = perturb_basis(u, eps, seed=n)
        x0 = (np.zeros(n) if x0_kind == "zero"
              else np.random.default_rng(n).standard_normal(n))
        cfg = SolveConfig()
        rep = run_method(MethodVariant.DEFLATED_CG, p.a, p.b, u, x0, cfg)
        d = Deflator(p.a, u, GalerkinMode.RESIDUAL_ORTHOGONAL)
        shifted = cg_solve(deflated_operator(d, "left"), d.project_residual(p.b),
                           d.initial_correction(x0, p.b), cfg)
        x = d.correct_iterate(shifted.final_iterate, p.b)
        assert rep.status is shifted.status is SolveStatus.CONVERGED
        assert rep.deflated_report.iterations_used == shifted.iterations_used
        assert np.linalg.norm(rep.corrected_iterate - x) <= 1e-10 * np.linalg.norm(x)


class TestEquivalences:
    def test_explicit_matches_deflation_only(self):
        for seed in (0, 1, 2):
            a, b, u = hermitian_instance(seed)
            r1 = run_method(MethodVariant.RMINRES_EXPLICIT, a, b, u)
            r2 = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, a, b, u)
            assert curve_deviation(r1, r2) <= 1e-8

    def test_adapted_guess_matches_two_sided(self):
        # the variant reads the two-sided iteration; the left-projected run
        # from the adapted guess is made on its own
        for seed in (3, 4):
            a, b, u = hermitian_instance(seed)
            rng = np.random.default_rng(seed + 100)
            x0 = rng.standard_normal(a.shape[0])
            r1 = run_method(MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS, a, b, u, x0)
            xi = Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING).adapted_initial_guess(x0, b)
            r2 = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, a, b, u, xi)
            assert curve_deviation(r1, r2) <= 1e-8

    @staticmethod
    def report(norms):
        return deflated.DualReport(MethodVariant.MINRES, None, np.asarray(norms), None)

    def test_curve_deviation_tail_that_keeps_falling_adds_nothing(self):
        short, longer = self.report([4.0, 2.0, 1.0]), self.report([4.0, 2.5, 1.0, 0.5, 0.1])
        assert curve_deviation(short, longer) == curve_deviation(longer, short) == 0.5 / 4.0

    def test_curve_deviation_tail_counts_its_rise_over_the_last_common_value(self):
        # The common prefix deviates by 0.5; the tail rises to 3 from the last
        # common value 1, a deviation of 2, both divided by r0 = 4.
        short, longer = self.report([4.0, 2.0, 1.0]), self.report([4.0, 2.5, 1.0, 3.0, 0.1])
        assert curve_deviation(short, longer) == curve_deviation(longer, short) == 2.0 / 4.0

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
        shared = run_method(MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS, p.a, p.b, u)
        xi = Deflator(p.a, u, GalerkinMode.RESIDUAL_MINIMIZING).adapted_initial_guess(
            np.zeros(p.dim), p.b)
        adapted = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, p.a, p.b, u, xi)
        deviation = 0.0
        for x, y in ((shared.original_residual_norms, adapted.original_residual_norms),
                     (shared.deflated_report.residual_norms,
                      adapted.deflated_report.residual_norms)):
            k = min(len(x), len(y))
            deviation = max(deviation, np.max(np.abs(x[:k] - y[:k])))
        assert deviation <= 1e-13 * np.linalg.norm(p.b)

    def test_full_suite(self):
        report = equivalence_suite(seed=20, instances=6)
        assert report["passed"], report

    def test_suite_takes_the_adapted_guess_from_its_own_x0(self, monkeypatch):
        # An adapted variant that drops the given guess reports the adapted
        # guess of x0 = 0; a reference started there would follow it.
        from dkrylov import checks

        def runs_ignoring_x0(variants, a, b, u, x0, cfg):
            runs = run_methods(variants, a, b, u, x0, cfg)
            adapted = variants.index(MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS)
            runs[adapted] = run_method(variants[adapted], a, b, u, None, cfg)
            return runs

        monkeypatch.setattr(checks, "run_methods", runs_ignoring_x0)
        report = equivalence_suite(seed=20, instances=2)
        check = {c["name"]: c for c in report["checks"]}["adapted_guess_vs_two_sided"]
        assert not check["passed"], report

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
                corrected = [d.correct_iterate(d.adapted_initial_guess(x, b), b)
                             for x in rep.iterates]
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


MINIMAL_RESIDUAL_VARIANTS = [
    MethodVariant.MINRES, MethodVariant.RMINRES_EXPLICIT, MethodVariant.RMINRES_DEFLATION_ONLY,
    MethodVariant.DEFLATED_MINRES, MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS,
    MethodVariant.DEFLATED_GMRES]


def paper_outcomes(scale):
    """Status and step count of plain GMRES and of every MINRES/GMRES variant
    on the paper problem (m=50, deflating 1-5,51-55) with b and x0 scaled by
    ``scale``, and of the breakdown-guess run with the breakdown-prone basis
    1-5, its breakdown step included."""
    p = symmetric_indefinite_problem(50)
    u = eigenvector_basis(p, [*range(1, 6), *range(51, 56)])
    b, x0 = scale * p.b, scale * np.random.default_rng(1).standard_normal(p.dim)
    reports = [r.deflated_report
               for r in run_methods(MINIMAL_RESIDUAL_VARIANTS, p.a, b, u, x0)]
    reports.append(gmres_solve(dense_operator(p.a), b, x0))
    outcomes = [(rep.status, rep.iterations_used) for rep in reports]
    u_break = breakdown_prone_basis(p, range(1, 6))
    guess = breakdown_initial_guess(p.a, p.b, u_break, np.random.default_rng(0).standard_normal(5))
    rep = run_method(MethodVariant.RMINRES_DEFLATION_ONLY, p.a, b, u_break,
                     scale * guess).deflated_report
    return outcomes, (rep.status, rep.breakdown_iteration)


class TestBreakdownRuleScale:
    @pytest.mark.parametrize("scale", [1e-20, 1e20])
    def test_outcomes_do_not_depend_on_the_scale_of_b(self, scale):
        # The breakdown rule judges a continuation of a unit vector against
        # the operator's scale, so scaling b and x0 changes no status or
        # step count.  Judged against ||r0||, the runs broke down at step 1
        # from ||b|| = 1e14 on, and the breakdown-guess run went on past
        # step 1 at ||b|| <= 1e-8.
        outcomes, breakdown = paper_outcomes(1.0)
        assert breakdown == (SolveStatus.BREAKDOWN, 1)
        assert all(status is SolveStatus.CONVERGED for status, _ in outcomes)
        assert paper_outcomes(scale) == (outcomes, breakdown)


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


class TestOriginalSystemStatus:
    """A converged deflated run must have converged on the original system."""

    @staticmethod
    def near_zero_system():
        # a deflated eigenvalue of 1e-6 and a basis off its eigenvector by
        # 1e-6: the two-sided right-hand side is about 2.4e4 times ||b||
        q = linalg.random_orthogonal(40, 0)
        lam = np.r_[1e-6, np.linspace(1, 2, 19), -np.linspace(1, 2, 20)]
        a = linalg.assemble_hermitian(q, lam)
        b = np.ones(40) / np.sqrt(40)
        u = q[:, :1] + 1e-6 * np.random.default_rng(1).standard_normal((40, 1))
        return a, b, u

    @pytest.mark.parametrize("variant", [MethodVariant.DEFLATED_MINRES,
                                         MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS])
    def test_amplified_rhs_run_is_not_converged(self, variant):
        a, b, u = self.near_zero_system()
        result = run_method(variant, a, b, u, cfg=SolveConfig(residual_tolerance=1e-8))
        residual = np.linalg.norm(b - a @ result.corrected_iterate)
        assert residual > 1e-6
        assert result.status is SolveStatus.STAGNATED
        assert result.diagnostics["original_residual_norm"] == pytest.approx(residual, rel=1e-3)

    @pytest.mark.parametrize("variant", [MethodVariant.RMINRES_DEFLATION_ONLY,
                                         MethodVariant.RMINRES_EXPLICIT,
                                         MethodVariant.DEFLATED_GMRES])
    def test_runs_that_reach_the_tolerance_stay_converged(self, variant):
        a, b, u = self.near_zero_system()
        result = run_method(variant, a, b, u, cfg=SolveConfig(residual_tolerance=1e-8))
        assert result.status is SolveStatus.CONVERGED
        residual = np.linalg.norm(b - a @ result.corrected_iterate)
        assert residual <= 10 * 1e-8 * np.linalg.norm(b)
        # the two products differ by roundoff of ||A|| ||x||, about 1e6 here
        assert result.diagnostics["original_residual_norm"] == pytest.approx(residual, rel=1e-2)

    @pytest.mark.parametrize("variant", [MethodVariant.RMINRES_EXPLICIT,
                                         MethodVariant.DEFLATED_MINRES])
    def test_ill_conditioned_run_reaches_the_tolerance(self, variant):
        # Q diag(lam) Q^T of order 200 with lam log-spaced over 8 decades,
        # deflating the 5 largest.  When MINRES recorded b - A x per step
        # and formed x by its short direction recurrence, both runs broke
        # down at step 196, with ||b - A x|| of 1.08 and 1.35 tol ||b|| under
        # one BLAS thread.
        q = linalg.random_orthogonal(200, 203)
        rng = np.random.default_rng(203)
        a = linalg.assemble_hermitian(q, np.logspace(0, 8, 200))
        b = rng.standard_normal(200)
        cfg = SolveConfig(residual_tolerance=1e-8, max_iterations=3000)
        result = run_method(variant, a, b, q[:, -5:], cfg=cfg)
        assert result.status is SolveStatus.CONVERGED
        assert np.linalg.norm(b - a @ result.corrected_iterate) <= 1e-8 * np.linalg.norm(b)

    def test_reference_includes_the_initial_residual(self):
        # with a large x0 the tolerance is relative to ||b - A x0||, not ||b||
        a, b, u = hermitian_instance(4)
        x0 = 1e6 * np.ones(a.shape[0])
        cfg = SolveConfig(residual_tolerance=1e-10)
        result = run_method(MethodVariant.DEFLATED_GMRES, a, b, u, x0, cfg)
        assert result.status is SolveStatus.CONVERGED
        residual = result.diagnostics["original_residual_norm"]
        assert 10 * 1e-10 * np.linalg.norm(b) < residual
        assert residual <= 10 * 1e-10 * np.linalg.norm(b - a @ x0)


def same(x, y) -> bool:
    """Equal field by field: arrays under np.array_equal with the same dtype."""
    if dataclasses.is_dataclass(x) or isinstance(x, Deflator):
        fields = ([f.name for f in dataclasses.fields(x)] if dataclasses.is_dataclass(x)
                  else ["a_hermitian", "w", "coupling"])
        return type(x) is type(y) and all(same(getattr(x, f), getattr(y, f)) for f in fields)
    if isinstance(x, dict):
        return isinstance(y, dict) and list(x) == list(y) and all(same(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return (isinstance(y, list) and len(x) == len(y)
                and all(same(p, q) for p, q in zip(x, y)))
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    return type(x) is type(y) and x == y


def run_alone(variant, *args):
    try:
        return run_method(variant, *args)
    except Exception as exc:  # the exception is the outcome
        return exc


def paper_system(x0):
    p = symmetric_indefinite_problem(20, seed=0)
    u = eigenvector_basis(p, list(range(1, 6)) + list(range(21, 26)))
    return p.a, p.b, u, x0(p.dim)


SYSTEMS = [paper_system(lambda n: None),
           paper_system(lambda n: np.random.default_rng(0).standard_normal(n)),
           *equivalence_instances(0, 3)]


class TestRunMethods:
    """One run of all variants equals a run of each variant alone."""

    @pytest.mark.parametrize("cfg", [SolveConfig(), SolveConfig(record_history=False)],
                             ids=["default", "no-history"])
    @pytest.mark.parametrize("system", SYSTEMS,
                             ids=["paper-zero", "paper-random", *(f"equivalence-0-{i}"
                                                                 for i in range(3))])
    def test_equals_per_variant_runs(self, system, cfg):
        args = (*system, cfg)
        alone = {v: run_alone(v, *args) for v in MethodVariant}
        remaining = list(MethodVariant)
        raising = [v for v in remaining if isinstance(alone[v], Exception)]
        assert raising[:2] == [MethodVariant.CG, MethodVariant.DEFLATED_CG]
        for variant in raising:
            # the first variant that fails raises its own error
            with pytest.raises(type(alone[variant])) as info:
                run_methods(remaining, *args)
            assert str(info.value) == str(alone[variant])
            remaining.remove(variant)
        reports = run_methods(iter(remaining), *args)
        assert [r.variant for r in reports] == remaining
        for report in reports:
            assert same(report, alone[report.variant]), report.variant
        shared = {id(r.deflated_report) for r in reports}
        assert len(shared) == len(reports)

    @pytest.mark.parametrize("start", ["zero", "random"])
    @pytest.mark.parametrize("system", [SYSTEMS[0], SYSTEMS[2]], ids=["real", "complex"])
    def test_adapted_variant_reads_the_two_sided_iteration(self, system, start):
        a, b, u, _ = system
        x0 = None if start == "zero" else np.random.default_rng(5).standard_normal(len(b))
        reports = run_methods(MINIMAL_RESIDUAL_VARIANTS, a, b, u, x0)
        free, adapted = reports[3], reports[4]
        assert (free.variant, adapted.variant) == (MethodVariant.DEFLATED_MINRES,
                                                   MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS)
        assert same(adapted, run_method(MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS,
                                        a, b, u, x0))
        assert same(adapted.corrected_iterate, free.corrected_iterate)
        # the left-projected iterates of the paper, with the shared residuals
        d, two_sided, left = adapted.deflator, free.deflated_report, adapted.deflated_report
        assert same(left.final_iterate, d.adapted_initial_guess(two_sided.final_iterate, b))
        assert len(left.iterates) == len(two_sided.iterates) == len(left.residual_norms)
        for x_left, x_bar in zip(left.iterates, two_sided.iterates):
            assert same(x_left, d.adapted_initial_guess(x_bar, b))
        assert same(left.residual_norms, two_sided.residual_norms)
        assert same(adapted.original_residual_norms, free.original_residual_norms)
        x_given = np.zeros(len(b)) if x0 is None else x0
        assert same(adapted.diagnostics["adapted_initial_guess"],
                    d.adapted_initial_guess(x_given, b))
        assert "adapted_initial_guess" not in free.diagnostics

    def test_explicit_variant_keeps_its_history_alone(self):
        a, b, u, x0 = SYSTEMS[0]
        cfg = SolveConfig(record_history=False)
        explicit, deferred = run_methods([MethodVariant.RMINRES_EXPLICIT,
                                          MethodVariant.RMINRES_DEFLATION_ONLY], a, b, u, x0, cfg)
        assert deferred.deflated_report.iterates is None
        assert len(explicit.deflated_report.iterates) == explicit.correction_count
        assert explicit.deflator is deferred.deflator

    def test_shared_deflator_counts_the_whole_run(self):
        a, b, u, x0 = SYSTEMS[0]
        variants = [MethodVariant.RMINRES_DEFLATION_ONLY, MethodVariant.DEFLATED_GMRES]
        reports = run_methods(variants, a, b, u, x0)
        alone = [run_method(v, a, b, u, x0) for v in variants]
        counts = reports[0].deflator.apply_counts
        # both runs add up
        assert counts["corrections"] == sum(r.deflator.apply_counts["corrections"]
                                            for r in alone) == 2
        assert counts["project_residual"] == sum(r.deflator.apply_counts["project_residual"]
                                                 for r in alone)


def perturbed_paper_system():
    p = symmetric_indefinite_problem(20, seed=0)
    u = perturb_basis(eigenvector_basis(p, [1, 2, 3, 21, 22, 23]), 1e-3, seed=4)
    return p.a, p.b, u


class TestTwoSidedRule:
    """Every two-sided recipe runs from x0 on P (b - A xi) + (P A P) x0, so
    its residual starts at the projected residual of its guess xi."""

    @pytest.mark.parametrize("variant", MINIMAL_RESIDUAL_VARIANTS[1:5],
                             ids=lambda v: v.value)
    def test_initial_residual_is_the_projected_residual_of_the_guess(self, variant,
                                                                      monkeypatch):
        a, b, u = perturbed_paper_system()
        x0 = np.random.default_rng(7).standard_normal(len(b))
        runs = []

        def recorded(op, rhs, x_start, cfg):
            runs.append((op, rhs, x_start))
            return minres_solve(op, rhs, x_start, cfg)

        monkeypatch.setattr(deflated, "minres_solve", recorded)
        report = run_method(variant, a, b, u, x0)
        (op, rhs, x_start), = runs
        d = report.deflator
        v = np.random.default_rng(8).standard_normal(len(b))
        assert same(op.apply(v), d.project_residual(d.a_product(d.project_residual(v))))
        assert same(x_start, x0)
        adapted = variant.value.startswith("deflated-minres")
        xi = d.adapted_initial_guess(x0, b) if adapted else x0
        expected = d.project_residual(b - a @ xi)
        scale = np.linalg.norm(b) + np.linalg.norm(a, 2) * np.linalg.norm(xi)
        assert np.linalg.norm(rhs - op.apply(x0) - expected) <= 1e-14 * scale
        assert (abs(report.deflated_report.residual_norms[0] - np.linalg.norm(expected))
                <= 1e-14 * scale)

    def test_deflated_minres_from_zero_is_minres_on_the_rule(self):
        a, b, u = perturbed_paper_system()
        report = run_method(MethodVariant.DEFLATED_MINRES, a, b, u)
        d = Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING)
        op = deflated_operator(d, "two_sided")
        zero = np.zeros(len(b))
        xi = d.adapted_initial_guess(zero, b)
        rhs = d.project_residual(b - d.a_product(xi)) + op.apply(zero)
        alone = minres_solve(op, rhs, zero, SolveConfig())
        assert same(report.deflated_report, alone)
        assert same(report.corrected_iterate,
                    d.correct_iterate(d.adapted_initial_guess(alone.final_iterate, b), b))


DEFLATED_VARIANTS = [v for v in MethodVariant if v not in (MethodVariant.CG,
                                                            MethodVariant.MINRES)]


class TestDominantDeflatedEigenvalues:
    """Deflating eigenvalues 1e5 times the rest of the spectrum leaves a
    projected operator far smaller than A, whose products still carry A's
    roundoff.  Each variant runs on it; plain MINRES takes 19 steps."""

    @pytest.mark.parametrize("variant", DEFLATED_VARIANTS, ids=lambda v: v.value)
    def test_every_deflated_variant_converges(self, variant):
        q = linalg.random_orthogonal(200, 300)
        b = np.random.default_rng(300).standard_normal(200)
        lam = np.concatenate([np.linspace(1, 2, 195), 1e5 * np.arange(1, 6)])
        a = linalg.assemble_hermitian(q, lam)
        result = run_method(variant, a, b, q[:, -5:])
        assert result.status is SolveStatus.CONVERGED
        assert result.deflated_report.iterations_used == 14
        tol = SolveConfig().residual_tolerance
        assert (np.linalg.norm(b - a @ result.corrected_iterate)
                <= 10 * tol * np.linalg.norm(b))


#: Runs ``cg`` and ``deflated-cg`` on Q diag(linspace(1, 2, 195), 1e6 (1..5))
#: Q^T (``dominant-1e6``) at tolerance 1e-10 and 3000 steps, and prints each
#: variant's status, steps and ||b - A x|| / ||b|| as JSON.
DOMINANT_1E6 = """
import json, numpy as np
from dkrylov import linalg
from dkrylov.deflated import MethodVariant, run_method
from dkrylov.solvers import SolveConfig
q = linalg.random_orthogonal(200, 300)
b = np.random.default_rng(300).standard_normal(200)
a = linalg.assemble_hermitian(q, np.r_[np.linspace(1, 2, 195), 1e6 * np.arange(1, 6)])
cfg = SolveConfig(residual_tolerance=1e-10, max_iterations=3000)
runs = {}
for variant in (MethodVariant.CG, MethodVariant.DEFLATED_CG):
    result = run_method(variant, a, b, q[:, -5:], cfg=cfg)
    runs[variant.value] = [result.status.value, result.deflated_report.iterations_used,
                           float(np.linalg.norm(b - a @ result.corrected_iterate)
                                 / np.linalg.norm(b))]
print(json.dumps(runs))
"""


class TestRunaway:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_dominant_1e6_ends_stagnated_at_its_best_iterate(self, threads):
        # CG's smoothed companion meets the tolerance here while b - A x
        # misses it by 5%, and then the carried residual runs away: to
        # 4.7e7 ||b|| at 3000 steps with one BLAS thread and 2.1 ||b|| with
        # two, and deflated-cg met negative curvature on this positive
        # definite A.  Both now stop once the residual has risen
        # RUNAWAY_FACTOR over its lowest, and return the iterate of the
        # lowest.  The thread count is fixed when numpy loads, so each
        # count runs in its own process.
        src = str(Path(deflated.__file__).resolve().parents[1])
        env = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", DOMINANT_1E6], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        for variant in ("cg", "deflated-cg"):
            status, steps, residual = runs[variant]
            assert status == "stagnated" and steps < 3000, (variant, runs)
            assert residual <= 1e-9, (variant, runs)


class TestMissingBasis:
    def test_raises_once_before_any_solve(self, monkeypatch):
        calls = []
        solve = deflated.minres_solve
        monkeypatch.setattr(deflated, "minres_solve",
                            lambda *args: calls.append(args) or solve(*args))
        p = symmetric_indefinite_problem(10)
        variants = [MethodVariant.MINRES, MethodVariant.DEFLATED_MINRES,
                    MethodVariant.DEFLATED_GMRES]
        with pytest.raises(ValueError, match="^variants deflated-minres, deflated-gmres "
                                             "require a deflation basis$"):
            run_methods(variants, p.a, p.b)
        assert calls == []


class TestSparseInput:
    @pytest.mark.parametrize("build", [
        lambda a, b, u: Deflator(a, u, GalerkinMode.RESIDUAL_ORTHOGONAL),
        lambda a, b, u: Deflator(np.eye(a.shape[0]), scipy.sparse.csr_matrix(u),
                                 GalerkinMode.RESIDUAL_MINIMIZING),
        lambda a, b, u: dense_operator(a),
        lambda a, b, u: run_method(MethodVariant.CG, a, b),
        lambda a, b, u: run_method(MethodVariant.DEFLATED_CG, a, b, u),
    ], ids=["deflator", "deflator-basis", "dense-operator", "cg", "deflated-cg"])
    def test_rejected_at_the_boundary(self, build):
        p = clustered_spd_problem(80)
        u = eigenvector_basis(p, range(1, 6))
        with pytest.raises(TypeError, match="csr_matrix is not supported: a dense array"):
            build(scipy.sparse.csr_matrix(p.a), p.b, u)
