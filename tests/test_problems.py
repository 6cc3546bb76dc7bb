import tracemalloc

import numpy as np
import pytest

from dkrylov import linalg
from dkrylov.problems import (breakdown_prone_basis, clustered_spd_problem,
                              eigenvector_basis, near_invariant_problem,
                              perturb_basis, symmetric_indefinite_problem,
                              toy_breakdown_problem)


class TestSymmetricIndefinite:
    def test_spectrum_m50(self):
        p = symmetric_indefinite_problem(50, seed=1)
        assert p.a.shape == (100, 100)
        expected = np.sort(np.concatenate([np.sqrt(np.arange(1, 51)),
                                           -np.sqrt(np.arange(1, 51))]))
        np.testing.assert_allclose(np.linalg.eigvalsh(p.a), expected, atol=1e-10)

    def test_m_one(self):
        p = symmetric_indefinite_problem(1, seed=0)
        np.testing.assert_allclose(np.linalg.eigvalsh(p.a), [-1.0, 1.0], atol=1e-12)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            symmetric_indefinite_problem(0)

    def test_symmetric(self):
        # exact symmetry is what applies a generated matrix through one
        # triangle (linalg.SquareMatrix), so it is tested bit for bit
        for a in (symmetric_indefinite_problem(10, seed=3).a,
                  symmetric_indefinite_problem(16, seed=3).a,
                  symmetric_indefinite_problem(150, seed=3).a,
                  clustered_spd_problem(32, seed=3).a,
                  clustered_spd_problem(301, seed=3).a):
            assert np.array_equal(a, a.T)

    def test_norm_is_sqrt_m(self):
        for m in (4, 25):
            p = symmetric_indefinite_problem(m, seed=9)
            assert linalg.spectral_norm(p.a) == pytest.approx(np.sqrt(m), abs=1e-10)

    def test_deterministic(self):
        p1 = symmetric_indefinite_problem(8, seed=5)
        p2 = symmetric_indefinite_problem(8, seed=5)
        assert np.array_equal(p1.a, p2.a)
        assert np.array_equal(p1.b, p2.b)

    def test_rhs_unit_norm(self):
        p = symmetric_indefinite_problem(12, seed=2)
        assert np.linalg.norm(p.b) == pytest.approx(1.0, abs=1e-14)

    def test_known_spectrum_matches_oracle(self):
        p = symmetric_indefinite_problem(6, seed=11)
        np.testing.assert_allclose(np.sort(p.known_spectrum), np.linalg.eigvalsh(p.a),
                                   atol=1e-10 * linalg.spectral_norm(p.a))


class TestEigenvectorBasis:
    def test_paper_style_selection(self):
        p = symmetric_indefinite_problem(50, seed=1)
        u = eigenvector_basis(p, list(range(1, 6)) + list(range(51, 56)))
        assert u.shape == (100, 10)
        restriction = u.conj().T @ p.a @ u
        lam = np.sort(np.diag(restriction).real)
        expected = np.sort([np.sqrt(j) for j in range(1, 6)]
                           + [-np.sqrt(j) for j in range(1, 6)])
        np.testing.assert_allclose(lam, expected, atol=1e-10)

    def test_single_column_is_eigenvector(self):
        p = symmetric_indefinite_problem(10, seed=4)
        u = eigenvector_basis(p, [3])
        lam = p.known_spectrum[2]
        assert np.linalg.norm(p.a @ u[:, 0] - lam * u[:, 0]) <= 1e-12 * linalg.spectral_norm(p.a)

    def test_orthonormal_columns(self):
        p = symmetric_indefinite_problem(10, seed=4)
        u = eigenvector_basis(p, [1, 5, 11, 15])
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_index_bounds(self):
        p = symmetric_indefinite_problem(5, seed=0)
        with pytest.raises(IndexError):
            eigenvector_basis(p, [11])
        with pytest.raises(ValueError):
            eigenvector_basis(p, [3, 2])
        with pytest.raises(ValueError, match="nonempty"):
            eigenvector_basis(p, [])


class TestBreakdownProneBasis:
    def test_self_orthogonality(self):
        p = symmetric_indefinite_problem(50, seed=1)
        u = breakdown_prone_basis(p, range(1, 11))
        assert np.linalg.norm(u.conj().T @ p.a @ u) <= 1e-12 * linalg.spectral_norm(p.a) * 2

    def test_image_is_sign_flipped_combination(self):
        p = symmetric_indefinite_problem(50, seed=1)
        idx = np.arange(1, 11)
        u = breakdown_prone_basis(p, idx)
        w = p.eigenvectors
        w1 = w[:, idx - 1]
        w2 = w[:, 50 + idx - 1]
        d_u = np.diag(np.sqrt(idx).astype(float))
        np.testing.assert_allclose(p.a @ u, (w1 - w2) @ d_u, atol=1e-12)

    def test_single_index(self):
        p = symmetric_indefinite_problem(8, seed=6)
        u = breakdown_prone_basis(p, [2])
        quad = np.vdot(u[:, 0], p.a @ u[:, 0])
        assert abs(quad) <= 1e-12

    def test_index_upper_bound_strict(self):
        p = symmetric_indefinite_problem(8, seed=6)
        with pytest.raises(IndexError):
            breakdown_prone_basis(p, [8])  # must stay strictly below m


class TestPerturbBasis:
    def test_exact_perturbation_norm(self):
        p = symmetric_indefinite_problem(50, seed=1)
        u = breakdown_prone_basis(p, range(1, 11))
        u2 = perturb_basis(u, 1e-10, seed=99)
        assert linalg.spectral_norm(u2 - u) == pytest.approx(1e-10, rel=1e-15)

    def test_deterministic(self):
        u = np.ones((6, 2))
        assert np.array_equal(perturb_basis(u, 0.5, seed=3), perturb_basis(u, 0.5, seed=3))

    def test_zero_matrix_gets_norm_eps(self):
        e = perturb_basis(np.zeros((5, 2)), 1.0, seed=0)
        assert linalg.spectral_norm(e) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            perturb_basis(np.ones((2, 1)), 0.0)


class TestToyProblems:
    def test_breakdown_problem_solution(self):
        p = toy_breakdown_problem()
        np.testing.assert_allclose(p.a @ p.known_solution, p.b, atol=1e-15)

    def test_near_invariant_eigenvector(self):
        p = near_invariant_problem(1e-3)
        v = np.array([0.0, 1.0, 1e-3])
        np.testing.assert_allclose(p.a @ v, v, atol=1e-12)

    def test_near_invariant_distance(self):
        alpha = 1e-3
        p = near_invariant_problem(alpha)
        v = np.array([0.0, 1.0, alpha])
        assert np.linalg.norm(p.u.ravel() - v) == pytest.approx(alpha)

    def test_near_invariant_deflated_matrix_third_row(self):
        from dkrylov.projection import Deflator, GalerkinMode
        p = near_invariant_problem(1e-3)
        d = Deflator(p.a, p.u, GalerkinMode.RESIDUAL_MINIMIZING)
        deflated = d.dense_deflated_matrix()
        np.testing.assert_allclose(deflated[2], [0.0, 0.0, 1.0], atol=1e-12)

    def test_near_invariant_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            near_invariant_problem(0.0)


class TestClusteredSpd:
    def test_positive_definite_with_outliers(self):
        p = clustered_spd_problem(40, 4, seed=8)
        lam = np.linalg.eigvalsh(p.a)
        assert lam[0] > 0
        assert lam[3] < 0.1  # outliers sit well below the cluster
        assert lam[4] >= 1.0

    def test_known_spectrum(self):
        p = clustered_spd_problem(30, 3, seed=5)
        np.testing.assert_allclose(np.sort(p.known_spectrum), np.linalg.eigvalsh(p.a),
                                   atol=1e-10 * linalg.spectral_norm(p.a))


class TestArgumentChecks:
    """Each generator and perturb_basis checks its arguments before it builds
    any array, so a bad one is a ValueError, never numpy's TypeError from
    inside the build or a silent NaN."""

    @pytest.mark.parametrize("call, message", [
        (lambda: symmetric_indefinite_problem(2.5), "m must be an integer of at least 1"),
        (lambda: symmetric_indefinite_problem(True), "m must be an integer of at least 1"),
        (lambda: clustered_spd_problem(40.5, 5), "n must be an integer of at least 2"),
        (lambda: clustered_spd_problem(40, 5.5), "n_outliers must be an integer of at least 1"),
        (lambda: near_invariant_problem(float("nan")), "alpha must be positive and finite"),
        (lambda: near_invariant_problem(float("inf")), "alpha must be positive and finite"),
        (lambda: near_invariant_problem(True), "alpha must be positive and finite"),
        (lambda: perturb_basis(np.ones((4, 2)), float("nan")), "eps must be positive and finite"),
        (lambda: perturb_basis(np.ones((4, 2)), float("inf")), "eps must be positive and finite"),
        (lambda: perturb_basis(np.ones((4, 2)), True), "eps must be positive and finite"),
    ], ids=["fractional-m", "boolean-m", "fractional-n", "fractional-outliers", "nan-alpha",
            "infinite-alpha", "boolean-alpha", "nan-eps", "infinite-eps", "boolean-eps"])
    def test_rejected_before_any_draw(self, monkeypatch, call, message):
        def draw(*args, **kwargs):
            raise AssertionError("drew before checking")
        for module, name in ((np.random, "SeedSequence"), (np.random, "default_rng"),
                             (linalg, "random_orthogonal")):
            monkeypatch.setattr(module, name, draw)
        with pytest.raises(ValueError, match=message):
            call()

    def test_numpy_integers_pass(self):
        for numpy_int, plain in ((symmetric_indefinite_problem(np.int64(4), 2),
                                  symmetric_indefinite_problem(4, 2)),
                                 (clustered_spd_problem(np.int32(12), np.int64(3), 2),
                                  clustered_spd_problem(12, 3, 2))):
            assert np.array_equal(numpy_int.a, plain.a)
            assert np.array_equal(numpy_int.b, plain.b)


class TestGenerationMemory:
    """Generation holds at most three n-by-n float64 arrays at once: the
    eigenvectors, their scaled copy and the product, then the eigenvectors,
    the product and its symmetrized sum."""

    @pytest.mark.parametrize("generate", [
        lambda: linalg.random_orthogonal(300, 4),
        lambda: symmetric_indefinite_problem(150, seed=4),
        lambda: clustered_spd_problem(300, seed=4),
    ], ids=["random_orthogonal", "symmetric_indefinite", "clustered_spd"])
    def test_peak_is_three_square_arrays(self, generate):
        tracemalloc.start()
        try:
            generate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * 300 * 300 * 8
