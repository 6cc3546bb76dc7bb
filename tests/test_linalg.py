import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dkrylov import linalg
from dkrylov.deflated import MethodVariant, run_method
from dkrylov.operators import dense_operator
from dkrylov.problems import clustered_spd_problem, symmetric_indefinite_problem
from dkrylov.projection import Deflator, GalerkinMode


def fsum_inner(x, y):
    """Extended-precision summation oracle for the inner product."""
    re = math.fsum((xi.conjugate() * yi).real for xi, yi in zip(x, y))
    im = math.fsum((xi.conjugate() * yi).imag for xi, yi in zip(x, y))
    return complex(re, im)


class TestInner:
    def test_orthonormal_basis_vectors(self):
        assert linalg.inner([1, 0], [0, 1]) == 0

    def test_conjugation_forces_real_norm(self):
        assert linalg.inner([1j, 0], [1j, 0]) == pytest.approx(1.0)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert linalg.inner(x, y) == pytest.approx(fsum_inner(x, y), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.inner([1, 2], [1, 2, 3])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_conjugate_symmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert linalg.inner(x, y) == pytest.approx(np.conj(linalg.inner(y, x)))


class TestGivens:
    def test_three_four_five(self):
        col, rot = linalg.givens_qr_step([3.0, 4.0], [])
        assert rot.c == pytest.approx(0.6)
        assert rot.s == pytest.approx(0.8)
        np.testing.assert_allclose(col, [5.0, 0.0], atol=1e-15)

    def test_already_triangular_gives_identity(self):
        col, rot = linalg.givens_qr_step([1.0, 0.0], [])
        assert rot.c == 1.0 and rot.s == 0.0
        np.testing.assert_allclose(col, [1.0, 0.0])

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f, g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rot = linalg.make_givens(f, g)
            assert abs(rot.c) ** 2 + abs(rot.s) ** 2 == pytest.approx(1.0, abs=1e-14)
            r, zero = rot.apply(f, g)
            assert abs(zero) <= 1e-14 * math.hypot(abs(f), abs(g))
            assert abs(r) == pytest.approx(math.hypot(abs(f), abs(g)), abs=1e-13)

    def test_prior_rotations_then_annihilation(self):
        rng = np.random.default_rng(5)
        column = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        priors = [linalg.make_givens(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
                  for _ in range(2)]
        updated, rot = linalg.givens_qr_step(column, priors)
        assert abs(updated[-1]) <= 1e-14 * np.linalg.norm(column)
        # rotations preserve the norm
        assert np.linalg.norm(updated) == pytest.approx(np.linalg.norm(column), rel=1e-13)

    def test_qr_of_hessenberg_matches_normal_equations(self):
        # Running the rotation cascade down a Hessenberg matrix must produce a
        # triangular factor with R^H R = H^H H, matching the dense QR oracle.
        rng = np.random.default_rng(11)
        n = 6
        h = np.triu(rng.standard_normal((n + 1, n)) + 1j * rng.standard_normal((n + 1, n)), -1)
        rotations = []
        r_cols = []
        for j in range(n):
            col = h[: j + 2, j].copy()
            updated, rot = linalg.givens_qr_step(col, rotations)
            rotations.append(rot)
            r_cols.append(updated[:-1])
        r = np.zeros((n, n), dtype=complex)
        for j, col in enumerate(r_cols):
            r[: j + 1, j] = col
        np.testing.assert_allclose(r.conj().T @ r, h.conj().T @ h, atol=1e-12)

    def test_prior_count_validated(self):
        with pytest.raises(ValueError):
            linalg.givens_qr_step([1.0, 2.0, 3.0], [])


class TestRandomOrthogonal:
    def test_one_by_one(self):
        w = linalg.random_orthogonal(1, 0)
        assert abs(abs(w[0, 0]) - 1.0) < 1e-15

    def test_orthogonality_large(self):
        w = linalg.random_orthogonal(100, 7)
        assert linalg.spectral_norm(w.conj().T @ w - np.eye(100)) <= 1e-12

    def test_deterministic(self):
        a = linalg.random_orthogonal(40, 123)
        b = linalg.random_orthogonal(40, 123)
        assert np.array_equal(a, b)

    def test_unit_columns(self):
        w = linalg.random_orthogonal(60, 2)
        norms = np.linalg.norm(w, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-13)


class TestHermitianEigen:
    def test_diagonal(self):
        eig = linalg.hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_exchange(self):
        eig = linalg.hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_square_root_spectrum(self):
        from dkrylov import symmetric_indefinite_problem
        p = symmetric_indefinite_problem(50, seed=3)
        eig = linalg.hermitian_eigen(p.a)
        expected = np.sort(np.concatenate([np.sqrt(np.arange(1, 51)),
                                           -np.sqrt(np.arange(1, 51))]))
        np.testing.assert_allclose(eig.eigenvalues, expected, atol=1e-10)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(17)
        for n in (5, 60, 200):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = 0.5 * (g + g.conj().T)
            eig = linalg.hermitian_eigen(a)
            q, lam = eig.eigenvectors, eig.eigenvalues
            anorm = linalg.spectral_norm(a)
            assert linalg.spectral_norm(q.conj().T @ q - np.eye(n)) <= 1e-12
            assert linalg.spectral_norm((q * lam) @ q.conj().T - a) <= 1e-10 * anorm
            residual = linalg.spectral_norm(a @ q - q * lam)
            assert residual <= 1e-10 * anorm

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSolveDense:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(linalg.solve_dense(np.eye(3), b), b)

    def test_diagonal(self):
        x = linalg.solve_dense(np.diag([2.0, 4.0]), [2.0, 8.0])
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-15)

    def test_multiply_back(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)) + 10 * np.eye(10)
        b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        x = linalg.solve_dense(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b) * np.linalg.cond(a)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve_dense(a, [1.0, 0.0])


class TestPrincipalAngles:
    def test_identical_spans(self):
        u = np.array([[1.0], [1.0], [1.0]])
        assert linalg.principal_angles(u, 2 * u)[0] == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_spans(self):
        u = np.array([[1.0], [0.0], [0.0]])
        v = np.array([[0.0], [1.0], [0.0]])
        assert linalg.principal_angles(u, v)[-1] == pytest.approx(np.pi / 2)


def _complex_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _norm_and_hermitian(a):
    """The estimate of ||a||_2 and the Hermitian flag of the set-up entry point."""
    matrix = linalg.SquareMatrix(a)
    return matrix.norm, matrix.hermitian


class TestNormEstimate:
    @pytest.mark.parametrize("make", [
        lambda: clustered_spd_problem(600).a,
        lambda: symmetric_indefinite_problem(200).a,
        lambda: _complex_matrix(300, 4),
        lambda: _complex_matrix(20, 5),
    ], ids=["clustered-spd-600", "paper-m200", "complex-300", "below-cutoff-20"])
    def test_at_most_1e3_below_the_exact_norm(self, make):
        a = make()
        exact = linalg.spectral_norm(a)
        estimate, _ = _norm_and_hermitian(a)
        assert exact * (1 - 1e-3) <= estimate <= exact * (1 + 1e-12)

    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1e150])
    @pytest.mark.parametrize("base", ["identity", "complex"])
    def test_extreme_scales(self, scale, base):
        # a^H a of 1e-300 * I underflows, so the matrix must be scaled first
        a = scale * (np.eye(64) if base == "identity" else _complex_matrix(64, 6))
        exact = linalg.spectral_norm(a)
        estimate, hermitian = _norm_and_hermitian(a)
        assert exact * (1 - 1e-3) <= estimate <= exact * (1 + 1e-12)
        assert hermitian is (scale == 0.0 or base == "identity")

    def test_arpack_failure_falls_back_to_the_exact_norm(self, monkeypatch):
        def fail(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        a = _complex_matrix(40, 9)
        estimate, _ = _norm_and_hermitian(a)
        assert estimate == pytest.approx(linalg.spectral_norm(a), rel=1e-14)

    def test_rejects_non_finite_entries(self):
        a = np.eye(40)
        a[3, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            _norm_and_hermitian(a)

    def test_frobenius_test_is_stricter_than_the_oracle(self):
        # a - a^H = 0.5e-12 i I: its 2-norm passes the exact test, its
        # Frobenius norm, ten times larger at n = 100, fails the estimate's
        a = (1 + 0.25e-12j) * np.eye(100)
        assert linalg.is_hermitian(a)
        assert linalg.SquareMatrix(a).hermitian is False

    @pytest.mark.parametrize("rank", [1, 60])
    def test_accepts_only_what_the_oracle_accepts(self, rank):
        g = _complex_matrix(60, 7)
        h = g + g.conj().T
        hnorm = linalg.spectral_norm(h)
        q = linalg.random_orthogonal(60, 8)[:, :rank]
        skew = 1j * (q @ q.conj().T) * hnorm
        accepted = []
        for eps in (0.0, 1e-15, 1e-14, 1e-13, 2e-13, 4e-13, 1e-12, 2e-12, 1e-11):
            a = h + eps * skew
            new = linalg.SquareMatrix(a).hermitian
            assert not new or linalg.is_hermitian(a), eps
            accepted.append(new)
        # a rank-one defect has ||.||_F = ||.||_2: the two tests nearly agree
        assert accepted == [True] * (6 if rank == 1 else 3) + [False] * (3 if rank == 1 else 6)

    def test_set_up_runs_no_square_svd(self, monkeypatch):
        shapes = []

        def recording(svd):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return svd(a, *args, **kwargs)
            return wrapper

        # np.linalg.norm(a, 2) calls the svd of its implementation module
        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, "svd", recording(module.svd))
        monkeypatch.setattr(scipy.linalg, "svd", recording(scipy.linalg.svd))
        paper = symmetric_indefinite_problem(100)
        spd = clustered_spd_problem(200)
        Deflator(paper.a, paper.eigenvectors[:, :5], GalerkinMode.RESIDUAL_MINIMIZING)
        Deflator(spd.a, spd.eigenvectors[:, :5], GalerkinMode.RESIDUAL_ORTHOGONAL)
        dense_operator(paper.a)
        dense_operator(spd.a)
        assert shapes, "the wrappers saw no SVD at all, not even the n-by-k basis norm"
        assert (200, 200) not in shapes

    def test_set_up_makes_no_square_temporary(self):
        a = clustered_spd_problem(400).a
        assert a.dtype == np.float64 and np.array_equal(a, a.T)
        tracemalloc.start()
        try:
            matrix = linalg.SquareMatrix(a)
            assert matrix.norm > 0 and matrix.hermitian
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 2

    def test_set_up_tests_exact_equality_once(self, monkeypatch):
        calls = []
        array_equal = np.array_equal

        def counting(*args, **kwargs):
            calls.append(1)
            return array_equal(*args, **kwargs)

        monkeypatch.setattr(np, "array_equal", counting)
        g = _complex_matrix(60, 7)
        u = np.random.default_rng(8).standard_normal((60, 3))
        for a in (clustered_spd_problem(60).a, g + g.conj().T, g):
            calls.clear()
            dense_operator(a)
            assert len(calls) == 1
            calls.clear()
            Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING)
            assert len(calls) == 1

    def test_dense_operator_takes_the_estimate_flag(self):
        # the exact-equality shortcut of dense_operator must not change a flag
        g = _complex_matrix(60, 7)
        h = g + g.conj().T
        q = linalg.random_orthogonal(60, 8)[:, :1]
        skew = 1j * (q @ q.T)
        matrices = [clustered_spd_problem(600).a, symmetric_indefinite_problem(200).a,
                    _complex_matrix(300, 4), _complex_matrix(20, 5),
                    (1 + 0.25e-12j) * np.eye(100), h]
        matrices += [scale * base for scale in (0.0, 1e-300, 1e150)
                     for base in (np.eye(64), _complex_matrix(64, 6))]
        matrices += [h + eps * linalg.spectral_norm(h) * skew for eps in (1e-15, 1e-13, 1e-11)]
        for a in matrices:
            assert dense_operator(a).hermitian is linalg.SquareMatrix(a).hermitian


def _symmetric(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g + g.T


@pytest.fixture
def symv_calls(monkeypatch):
    """The number of BLAS dsymv calls made by products chosen afterwards."""
    calls = []
    dsymv = scipy.linalg.blas.dsymv

    def counting(*args, **kwargs):
        calls.append(1)
        return dsymv(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "dsymv", counting)
    return calls


class TestProduct:
    """linalg.SquareMatrix.product applies an exactly symmetric float64 matrix by one triangle."""

    @pytest.mark.parametrize("n", [32, 200, 600])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_triangle_agrees_with_full_product(self, n, field, symv_calls):
        a = _symmetric(n, n)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(n)
        if field == "complex":
            x = x + 1j * rng.standard_normal(n)
        y = linalg.SquareMatrix(a).product(x)
        assert symv_calls
        assert y.dtype == x.dtype
        bound = 4 * np.finfo(float).eps * np.linalg.norm(a) * np.linalg.norm(x)
        assert np.linalg.norm(y - a @ x) <= bound

    def test_nearly_symmetric_matrix_keeps_the_full_product(self, symv_calls):
        k = np.random.default_rng(3).standard_normal((200, 200))
        a = _symmetric(200, 2) + 1e-14 * (k - k.T)
        assert linalg.SquareMatrix(a).hermitian
        assert not np.array_equal(a, a.T)
        x = np.random.default_rng(1).standard_normal(200)
        np.testing.assert_array_equal(linalg.SquareMatrix(a).product(x), a @ x)
        assert not symv_calls

    def test_complex_hermitian_matrix_keeps_the_full_product(self, symv_calls):
        g = _complex_matrix(200, 2)
        h = g + g.conj().T
        x = _complex_matrix(200, 3)[:, 0]
        np.testing.assert_array_equal(linalg.SquareMatrix(h).product(x), h @ x)
        np.testing.assert_array_equal(linalg.SquareMatrix(h).product(x.real), h @ x.real)
        assert not symv_calls

    @pytest.mark.parametrize("n", [3, 31])
    def test_small_matrix_keeps_the_full_product(self, n, symv_calls):
        a = _symmetric(n, 4)
        x = _complex_matrix(n, 5)[:, 0]
        mul = linalg.SquareMatrix(a).product
        np.testing.assert_array_equal(mul(x.real), a @ x.real)
        np.testing.assert_array_equal(mul(x), a @ x.real + 1j * (a @ x.imag))
        assert not symv_calls

    def test_layouts_give_the_same_product(self, symv_calls):
        big = _symmetric(400, 6)
        strided = big[::2, ::2]
        assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
        x = _complex_matrix(200, 7)[:, 0]
        expected = linalg.SquareMatrix(np.ascontiguousarray(strided)).product(x)
        for a in (np.asfortranarray(strided), strided):
            np.testing.assert_array_equal(linalg.SquareMatrix(a).product(x), expected)
        assert len(symv_calls) == 6

    def test_deflated_cg_uses_the_triangle(self, symv_calls, monkeypatch):
        # an exact norm makes the solve's products the only dsymv calls
        monkeypatch.setattr(linalg, "_EXACT_NORM_BELOW", 10**9)
        p = clustered_spd_problem(200)
        report = run_method(MethodVariant.DEFLATED_CG, p.a, p.b, p.eigenvectors[:, :5])
        assert report.status.value == "converged"
        assert len(symv_calls) > report.deflated_report.iterations_used
