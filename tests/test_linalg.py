import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dkrylov import linalg
from dkrylov.analysis import check_deflated_spectrum
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


class TestVectorNorm:
    @pytest.mark.parametrize("make", [
        lambda rng: rng.standard_normal(400),
        lambda rng: rng.standard_normal(401) + 1j * rng.standard_normal(401),
        lambda rng: rng.standard_normal((30, 7)),
        lambda rng: (rng.standard_normal((20, 9)) + 1j * rng.standard_normal((20, 9))).T,
        lambda rng: rng.standard_normal(300)[::3],
        lambda rng: rng.integers(-5, 5, 17),
        lambda rng: rng.standard_normal(9).astype(np.float32),
        lambda rng: [3.0, 4.0],
    ], ids=["real", "complex", "matrix", "complex-transposed", "strided", "integer", "float32", "list"])
    def test_equals_numpy_bit_for_bit(self, make):
        x = make(np.random.default_rng(3))
        assert linalg.vector_norm(x) == float(np.linalg.norm(x))

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
    @pytest.mark.parametrize("field", [np.float64, np.complex128])
    def test_scaled_where_the_squares_leave_the_range(self, scale, field):
        # The squares of these entries underflow to 0 or a subnormal, or
        # overflow to inf; the norm is that of the unit-scale vector, scaled
        # by a power of ten, so exact but for a few roundings.
        rng = np.random.default_rng(4)
        x = rng.uniform(0.5, 1.0, 50).astype(field)
        if field is np.complex128:
            x = x + 1j * rng.uniform(0.5, 1.0, 50)
        expected = float(np.linalg.norm(x)) * scale
        assert linalg.vector_norm(x * scale) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("x, expected", [
        (np.zeros(4), 0.0), (np.zeros(0), 0.0), (np.zeros(3, complex), 0.0),
        (np.array([1.0, np.inf]), math.inf), (np.array([1e300, -np.inf]), math.inf),
        (np.array([1.0, np.nan]), math.nan), (np.array([1e300, np.nan + 0j]), math.nan),
        (np.array([1e308, 1e308]), math.sqrt(2.0) * 1e308),
    ], ids=["zero", "empty", "complex-zero", "inf", "huge-and-inf", "nan", "complex-nan",
            "near-overflow"])
    def test_zero_and_non_finite_vectors(self, x, expected):
        assert linalg.vector_norm(x) == pytest.approx(expected, nan_ok=True)


def reference_givens_qr_step(column, c, s):
    """The array kernel that minimal-residual runs called before they ran
    :func:`linalg.givens_cascade` on Python numbers, kept as the reference
    that the cascade must match bit for bit."""
    column = np.asarray(column)
    m = column.shape[0] - 2
    entries = column.tolist()
    f = entries[0]
    for i, (ci, si) in enumerate(zip(c.tolist(), s.tolist())):
        g = entries[i + 1]
        entries[i] = ci * f + si * g
        f = -si.conjugate() * f + ci * g
    c_new, s_new, entries[m] = linalg.make_givens(f, entries[m + 1])
    entries[m + 1] = 0.0
    field = np.complex128 if column.dtype.kind == "c" else np.float64
    return np.array(entries, dtype=field), c_new, s_new


def bits(values, field) -> bytes:
    return np.array(values, dtype=field).tobytes()


GIVENS_ENTRY = st.one_of(st.just(0.0), st.floats(-8.0, 8.0))
NO_PRIORS = [(0.0, 0.0, 0.0, 0.0)] * 4


class TestGivens:
    @settings(max_examples=300, deadline=None)
    @given(complex_run=st.booleans(),
           column=st.lists(st.tuples(GIVENS_ENTRY, GIVENS_ENTRY), min_size=2, max_size=6),
           priors=st.lists(st.tuples(*[GIVENS_ENTRY] * 4), min_size=4, max_size=4),
           g=GIVENS_ENTRY)
    @example(complex_run=False, column=[(0.0, 0.0), (2.0, 0.0)], priors=NO_PRIORS, g=1.0)
    @example(complex_run=True, column=[(1.0, -1.0), (0.0, 0.0)], priors=NO_PRIORS, g=1.0)
    @example(complex_run=True, column=[(1.0, 2.0), (3.0, 0.0), (0.5, 0.0)],
             priors=[(1.0, 1.0, 0.0, 0.0)] * 4, g=2.0)
    def test_solver_cascade_matches_the_array_kernel(self, complex_run, column, priors, g):
        # The solver hands the cascade its column as Python numbers in the
        # run's field and keeps each rotation as make_givens returns it (an
        # s of 0.0 stays a float on a complex run), where the array kernel
        # read both from arrays of the run's field.  The examples take the
        # f = 0 and g = 0 branches of make_givens, and a float s = 0.0 prior.
        # Every bit agrees, also of the pivot |r|, of the solver's rotated
        # right-hand side -conj(s) g and of its factor entry c g.
        field, scalar = (np.complex128, complex) if complex_run else (np.float64, float)
        entries = [scalar(complex(*e)) if complex_run else e[0] for e in column]
        m = len(entries) - 2
        rotations = [linalg.make_givens(*(complex(p[0], p[1]), complex(p[2], p[3]))
                                        if complex_run else (p[0], p[2])) for p in priors[:m]]
        cs, ss = [r[0] for r in rotations], [r[1] for r in rotations]
        original, arrays = np.array(entries, dtype=field), (np.array(cs), np.array(ss, dtype=field))
        updated, c_ref, s_ref = reference_givens_qr_step(original, *arrays)
        c, s = linalg.givens_cascade(entries, cs, ss)
        assert bits(entries, field) == updated.tobytes()
        assert bits([c], float) == bits([c_ref], float)
        assert bits([s], field) == bits([s_ref], field)
        assert bits([abs(entries[-2])], float) == bits([abs(updated[-2])], float)
        g = scalar(g)
        assert bits([-s.conjugate() * g], field) == bits([-np.conj(s_ref) * g], field)
        assert bits([c * g], field) == bits([c_ref * g], field)

    def test_three_four_five(self):
        col = [3.0, 4.0]
        c, s = linalg.givens_cascade(col, [], [])
        assert c == pytest.approx(0.6)
        assert s == pytest.approx(0.8)
        np.testing.assert_allclose(col, [5.0, 0.0], atol=1e-15)

    def test_already_triangular_gives_identity(self):
        col = [1.0, 0.0]
        c, s = linalg.givens_cascade(col, [], [])
        assert c == 1.0 and s == 0.0
        assert col == [1.0, 0.0]

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f, g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c, s, r = linalg.make_givens(f, g)
            assert abs(c) ** 2 + abs(s) ** 2 == pytest.approx(1.0, abs=1e-14)
            rotated = np.array([[c, s], [-np.conj(s), c]]) @ [f, g]
            assert rotated[0] == pytest.approx(r, abs=1e-13)
            assert abs(rotated[1]) <= 1e-14 * math.hypot(abs(f), abs(g))
            assert abs(r) == pytest.approx(math.hypot(abs(f), abs(g)), abs=1e-13)

    def test_prior_rotations_then_annihilation(self):
        rng = np.random.default_rng(5)
        column = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        priors = [linalg.make_givens(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
                  for _ in range(2)]
        updated = column.tolist()
        linalg.givens_cascade(updated, [p[0] for p in priors], [p[1] for p in priors])
        assert abs(updated[-1]) <= 1e-14 * np.linalg.norm(column)
        # rotations preserve the norm
        assert np.linalg.norm(updated) == pytest.approx(np.linalg.norm(column), rel=1e-13)

    def test_qr_of_hessenberg_matches_normal_equations(self):
        # Running the rotation cascade down a Hessenberg matrix must produce a
        # triangular factor with R^H R = H^H H, matching the dense QR oracle.
        rng = np.random.default_rng(11)
        n = 6
        h = np.triu(rng.standard_normal((n + 1, n)) + 1j * rng.standard_normal((n + 1, n)), -1)
        c, s, r_cols = [], [], []
        for j in range(n):
            col = h[: j + 2, j].tolist()
            c_j, s_j = linalg.givens_cascade(col, c, s)
            c.append(c_j)
            s.append(s_j)
            r_cols.append(col[:-1])
        r = np.zeros((n, n), dtype=complex)
        for j, col in enumerate(r_cols):
            r[: j + 1, j] = col
        np.testing.assert_allclose(r.conj().T @ r, h.conj().T @ h, atol=1e-12)


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

    @pytest.mark.parametrize("n", [1, 7, 40, 301])
    def test_is_the_sign_fixed_qr_of_the_draw(self, n):
        g = np.random.default_rng(5).standard_normal((n, n))
        w = linalg.random_orthogonal(n, 5)
        assert w.dtype == np.float64 and w.flags.c_contiguous
        r = w.T @ g
        # w^T g is upper triangular with a positive diagonal
        assert np.all(np.diag(r) > 0)
        np.testing.assert_allclose(np.tril(r, -1), 0.0, atol=1e-12 * np.abs(r).max())

    @pytest.mark.parametrize("n", [1, 2, 65, 100, 400])
    def test_bits_of_the_scipy_qr_construction(self, n):
        # The direct geqrf/orgqr calls give the bits of scipy.linalg.qr's
        # economic Q with the signs of diag(R) fixed.
        g = np.asfortranarray(np.random.default_rng(n).standard_normal((n, n)))
        q, r = scipy.linalg.qr(g, overwrite_a=True, mode="economic", check_finite=False)
        d = np.sign(r.diagonal())
        d[d == 0] = 1.0
        assert np.array_equal(linalg.random_orthogonal(n, n), np.ascontiguousarray(q * d))


class TestAssembleHermitian:
    @staticmethod
    def reference(q, lam):
        a = (q * lam) @ q.conj().T
        return 0.5 * (a + a.conj().T)

    @pytest.mark.parametrize("n", [1, 20, 33, 80])
    def test_bits_of_the_averaged_product(self, n):
        rng = np.random.default_rng(n)
        lam = 10.0 ** -rng.uniform(0.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
        q = linalg.random_orthogonal(n, n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for basis in (q, np.linalg.qr(g)[0]):
            a = linalg.assemble_hermitian(basis, lam)
            expected = self.reference(basis, lam)
            assert a.dtype == expected.dtype and a.flags.c_contiguous
            assert np.array_equal(a, expected)
            assert np.array_equal(a, a.conj().T)

    def test_check_suite_instances_are_unchanged(self):
        from dkrylov import checks
        rng, again = np.random.default_rng(3), np.random.default_rng(3)
        for n in (10, 40, 64):
            a = checks._random_hermitian(rng, n)
            g = again.standard_normal((n, n)) + 1j * again.standard_normal((n, n))
            q, _ = np.linalg.qr(g)
            lam = again.uniform(1.0, 2.5, n) * again.choice([-1.0, 1.0], n)
            expected = self.reference(q, lam)
            assert a.dtype == np.complex128 and np.array_equal(a, expected)


class TestHermitianEigen:
    def test_square_root_spectrum(self):
        from dkrylov import symmetric_indefinite_problem
        p = symmetric_indefinite_problem(50, seed=3)
        expected = np.sort(np.concatenate([np.sqrt(np.arange(1, 51)),
                                           -np.sqrt(np.arange(1, 51))]))
        np.testing.assert_allclose(np.linalg.eigvalsh(p.a), expected, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="requires a Hermitian matrix"):
            check_deflated_spectrum(np.triu(np.ones((3, 3))), np.array([[0.0], [0.0], [1.0]]),
                                    GalerkinMode.RESIDUAL_MINIMIZING)


def solve_dense(a, b):
    """The dense solve of ``breakdown_initial_guess``: the checked LU, then
    LAPACK's solve with its factors."""
    return scipy.linalg.lu_solve(linalg.lu_factor_checked(a), b)


class TestSolveDense:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(solve_dense(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_dense(np.diag([2.0, 4.0]), [2.0, 8.0])
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-15)

    def test_multiply_back(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)) + 10 * np.eye(10)
        b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        x = solve_dense(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b) * np.linalg.cond(a)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        # the pivot fails the bound 2 max|a_ij| = 8 and is judged on ||a||_2 = 5
        with pytest.raises(linalg.SingularMatrixError,
                           match=r"^smallest pivot 0\.000e\+00 below 1e-14 \* 5\.000e\+00$"):
            solve_dense(a, [1.0, 0.0])


class TestPrincipalAngles:
    def test_identical_spans(self):
        u = np.array([[1.0], [1.0], [1.0]])
        assert linalg.principal_angles(u, 2 * u)[0] == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_spans(self):
        u = np.array([[1.0], [0.0], [0.0]])
        v = np.array([[0.0], [1.0], [0.0]])
        assert linalg.principal_angles(u, v)[-1] == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("gap", [1e-9, 1e-5, 0.3])
    def test_small_and_near_orthogonal_angles_together(self, gap):
        # span(e1, e2) against span(e1, sin(gap) e2 + cos(gap) e3): angles 0
        # and pi/2 - gap, each to within a few ulps of its own size.
        u = np.eye(3)[:, :2]
        v = np.array([[1.0, 0.0], [0.0, np.sin(gap)], [0.0, np.cos(gap)]])
        angles = linalg.principal_angles(u, v)
        assert angles[0] <= 1e-15
        assert np.pi / 2 - angles[1] == pytest.approx(gap, rel=1e-6)


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
        # neither checked factorization of a well-conditioned ndarray needs its norm
        linalg.lu_factor_checked(paper.a)
        linalg.cholesky_factor_checked(
            spd.a, (200 * np.abs(spd.a).max(), lambda: linalg.spectral_norm(spd.a)))
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


def _inexact_hermitian():
    """The A of ``clustered_spd_problem(200)`` plus 1e-16 (g - g^T): Hermitian
    within tolerance but not bit for bit (``inexact-hermitian-200`` of
    ``scripts/compare_runs.py``)."""
    g = np.random.default_rng(7).standard_normal((200, 200))
    a = clustered_spd_problem(200).a + 1e-16 * (g - g.T)
    assert not np.array_equal(a, a.T)
    return a


class TestCheckHpd:
    @pytest.mark.parametrize("make, hpd, factorizations", [
        # its Hermitian part is positive definite: only the Hermitian test rejects it
        (lambda: np.triu(np.ones((40, 40))) + 40 * np.eye(40), False, 0),
        (lambda: symmetric_indefinite_problem(20).a, False, 1),
        (lambda: clustered_spd_problem(200).a, True, 1),
        (_inexact_hermitian, True, 1),
    ], ids=["non-hermitian", "indefinite", "spd", "inexact-hermitian"])
    def test_verdict(self, monkeypatch, make, hpd, factorizations):
        calls = []
        cho_factor = scipy.linalg.cho_factor
        monkeypatch.setattr(scipy.linalg, "cho_factor",
                            lambda *args, **kwargs: calls.append(1) or cho_factor(*args, **kwargs))
        matrix = linalg.SquareMatrix(make())
        if hpd:
            matrix.check_hpd()
        else:
            with pytest.raises(linalg.SingularMatrixError):
                matrix.check_hpd()
        assert len(calls) == factorizations

    def test_an_array_needs_its_scale(self):
        # only a SquareMatrix knows its own pivot scale
        e = np.diag([2.0, 1.0])
        with pytest.raises(TypeError, match="pivot scale"):
            linalg.cholesky_factor_checked(e)
        c, lower = linalg.cholesky_factor_checked(e, (4.0, lambda: 2.0))
        np.testing.assert_allclose(np.tril(c) if lower else np.triu(c),
                                   np.diag(np.sqrt([2.0, 1.0])), rtol=1e-15)
        linalg.cholesky_factor_checked(linalg.SquareMatrix(e))

    def test_deflator_factors_a_through_the_module_function(self, monkeypatch):
        # perfbench's tracer times the n-by-n factor by wrapping this function
        orders = []
        factor = linalg.cholesky_factor_checked

        def recording(e, scale=None):
            orders.append(e.a.shape[0] if isinstance(e, linalg.SquareMatrix) else None)
            return factor(e, scale)

        monkeypatch.setattr(linalg, "cholesky_factor_checked", recording)
        spd = clustered_spd_problem(200)
        Deflator(spd.a, spd.eigenvectors[:, :5], GalerkinMode.RESIDUAL_ORTHOGONAL)
        assert orders == [200, None]    # the HPD verdict, then the coupling


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

    @pytest.mark.parametrize("kind", ["triangle", "full", "complex"])
    def test_block_is_one_matrix_product(self, kind, symv_calls):
        # An n-by-k block goes through one matrix product, whatever kernel
        # the vectors take; each column agrees with a @ x to roundoff, and
        # a real a takes a complex block by its parts.
        a = _symmetric(200, 8)
        if kind == "full":
            a = a + 1e-14 * np.triu(a)
        elif kind == "complex":
            a = a + 1j * (np.triu(a, 1) - np.tril(a, -1))
        mul = linalg.SquareMatrix(a).product
        bound = 4 * 200 * np.finfo(float).eps * np.linalg.norm(a, 2)
        x = _complex_matrix(200, 9)[:, :5]
        for block in (x.real, x):
            y = mul(block)
            assert y.shape == block.shape and y.dtype == np.result_type(a, block)
            for column, v in zip(y.T, block.T):
                assert np.linalg.norm(column - a @ v) <= bound * np.linalg.norm(v)
        assert not symv_calls

    def test_deflated_cg_uses_the_triangle(self, symv_calls, monkeypatch):
        # an exact norm makes the solve's products the only dsymv calls
        monkeypatch.setattr(linalg, "_EXACT_NORM_BELOW", 10**9)
        p = clustered_spd_problem(200)
        report = run_method(MethodVariant.DEFLATED_CG, p.a, p.b, p.eigenvectors[:, :5])
        assert report.status.value == "converged"
        assert len(symv_calls) > report.deflated_report.iterations_used
