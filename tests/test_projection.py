import numpy as np
import pytest
import scipy.sparse.linalg

from dkrylov import linalg
from dkrylov.checks import equivalence_instances, projection_suite
from dkrylov.problems import (breakdown_prone_basis, clustered_spd_problem, eigenvector_basis,
                              symmetric_indefinite_problem,
                              toy_breakdown_problem)
from dkrylov.projection import Deflator, GalerkinMode, SingularCouplingError

OR = GalerkinMode.RESIDUAL_ORTHOGONAL
MR = GalerkinMode.RESIDUAL_MINIMIZING


def random_hpd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + n * np.eye(n)


def counted_products(d):
    """Route ``d.a_product`` through a counter; returns the list of the
    columns of each product, one entry per call."""
    product, calls = d.a_product, []
    d.a_product = lambda x: calls.append(1 if x.ndim == 1 else x.shape[1]) or product(x)
    return calls


def explicit_correction(a, u, mode, x_hat, b):
    """x_hat + U E^-1 B^H (b - A x_hat) formed as written, E = B^H A U."""
    bu = u if mode is OR else a @ u
    residual = (b if x_hat.ndim == 1 else b[:, None]) - a @ x_hat
    return x_hat + u @ np.linalg.solve(bu.conj().T @ (a @ u), bu.conj().T @ residual)


def correction_roundoff(a, u, mode, x_hat, b):
    """A priori bound on |correct_iterate - explicit_correction| per column.

    Both use the same E = B^H (A U), bit for bit.  They form z = B^H r, as
    B^H b - (B^H A) x_hat or as B^H (b - A x_hat), each within (n + k) eps
    ||B||_F (||b|| + ||A||_F ||x_hat||) of the exact value (Higham, Accuracy
    and Stability of Numerical Algorithms, section 3.5), which U E^-1 maps
    with gain ||U||_F ||E^-1||.  Their solves, Cholesky and LU, are backward
    stable: each y = E^-1 z is within k eps cond(E) ||y|| of the exact one.
    The Deflator factors the Hermitian part of E, within eps ||E|| of E,
    which moves its y by at most eps cond(E) ||y||, inside that term.  The
    final sum adds eps ||x_hat||.  The bound is 4 times the sum of these
    terms: both sides' errors, each with a factor of 2 to spare.
    """
    n, k = u.shape
    bu = u if mode is OR else a @ u
    e = bu.conj().T @ (a @ u)
    eps = np.finfo(float).eps
    sigma = np.linalg.svd(e, compute_uv=False)
    a_f, u_f, bu_f = (np.linalg.norm(m) for m in (a, u, bu))
    x_hat = np.atleast_2d(x_hat.T).T
    x_norm = np.linalg.norm(x_hat, axis=0)
    y = np.linalg.solve(e, bu.conj().T @ (np.reshape(b, (-1, 1)) - a @ x_hat))
    return 4 * eps * ((n + k) * u_f / sigma[-1] * bu_f * (np.linalg.norm(b) + a_f * x_norm)
                      + k * sigma[0] / sigma[-1] * u_f * np.linalg.norm(y, axis=0) + x_norm)


def correction_systems():
    """(name, a, u, mode, b) of the systems the corrections are checked on."""
    p = clustered_spd_problem(60, 3, 0)
    yield "or-hermitian-real", p.a, eigenvector_basis(p, range(1, 4)), OR, p.b
    rng = np.random.default_rng(31)
    q = np.linalg.qr(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))[0]
    u = q[:, :3] + 1e-3 * (rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3)))
    yield ("or-hermitian-complex", linalg.assemble_hermitian(q, np.linspace(1, 10, 40)), u,
           OR, rng.standard_normal(40) + 1j * rng.standard_normal(40))
    # Hermitian within tolerance only: scripts/compare_runs.py's inexact-hermitian-200
    p = clustered_spd_problem(200)
    g = np.random.default_rng(7).standard_normal((200, 200))
    yield ("or-inexact-hermitian", p.a + 1e-16 * (g - g.T),
           eigenvector_basis(p, range(1, 6)), OR, p.b)
    p = symmetric_indefinite_problem(30, seed=0)
    yield "mr-hermitian", p.a, eigenvector_basis(p, [1, 2, 3, 31, 32]), MR, p.b
    rng = np.random.default_rng(32)
    yield ("mr-non-hermitian", rng.standard_normal((50, 50)) + 10 * np.eye(50),
           rng.standard_normal((50, 4)), MR, rng.standard_normal(50))


def dense_coarse_matrix(a, u, bu):
    """Dense formation oracle for the coarse correction operator."""
    e = bu.conj().T @ a @ u
    return u @ np.linalg.solve(e, bu.conj().T)


class TestConstruction:
    def test_toy_coupling_is_one(self):
        p = toy_breakdown_problem()
        d = Deflator(p.a, p.u, MR)
        np.testing.assert_allclose(d.coupling, [[1.0]], atol=1e-15)

    def test_hpd_unit_vector_coupling(self):
        a = np.diag([1.0, 2.0, 3.0])
        d = Deflator(a, np.eye(3)[:, :1], OR)
        np.testing.assert_allclose(d.coupling, [[1.0]], atol=1e-15)

    def test_breakdown_basis_in_orthogonal_mode_is_singular(self):
        p = symmetric_indefinite_problem(20, seed=5)
        u = breakdown_prone_basis(p, range(1, 4))
        # the coupling matrix vanishes identically for this construction,
        # which only an indefinite matrix allows
        coupling = u.conj().T @ p.a @ u
        assert np.abs(coupling).max() <= 1e-14 * linalg.spectral_norm(p.a)
        with pytest.raises(ValueError, match="Hermitian positive definite"):
            Deflator(p.a, u, OR)

    def test_orthogonal_mode_requires_hpd(self):
        p = symmetric_indefinite_problem(10, seed=5)
        u = eigenvector_basis(p, [1])
        with pytest.raises(ValueError):
            Deflator(p.a, u, OR)

    def test_dimension_bounds(self):
        a = np.eye(4)
        with pytest.raises(ValueError):
            Deflator(a, np.eye(4), OR)  # k == n
        with pytest.raises(ValueError):
            Deflator(a, np.zeros((4, 0)), OR)

    def test_basis_with_wrong_row_count_rejected(self):
        with pytest.raises(ValueError, match="basis has 3 rows, expected 4"):
            Deflator(np.eye(4), np.ones((3, 1)), MR)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, entry):
        u = np.ones((4, 1))
        u[2, 0] = entry
        with pytest.raises(ValueError, match="basis entries must be finite"):
            Deflator(np.eye(4), u, MR)

    def test_orthogonal_mode_rejects_a_non_hermitian_matrix(self):
        a = np.diag([1.0, 2.0, 3.0])
        a[0, 2] = 0.5
        with pytest.raises(ValueError, match="Hermitian positive definite") as excinfo:
            Deflator(a, np.eye(3)[:, :1], OR)
        assert isinstance(excinfo.value.__cause__, linalg.SingularMatrixError)
        assert not Deflator(a, np.eye(3)[:, :1], MR).a_hermitian

    def test_rank_deficient_basis_rejected(self):
        rng = np.random.default_rng(1)
        a = random_hpd(rng, 8)
        u = rng.standard_normal((8, 1)) @ np.ones((1, 2))
        with pytest.raises(SingularCouplingError):
            Deflator(a, u, MR)

    def test_coupling_reconstruction(self):
        rng = np.random.default_rng(2)
        a = random_hpd(rng, 12)
        u = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        for mode, bu in ((OR, u), (MR, a @ u)):
            d = Deflator(a, u, mode)
            expected = bu.conj().T @ a @ u
            err = linalg.spectral_norm(d.coupling - expected)
            bound = 1e-12 * linalg.spectral_norm(a) * linalg.spectral_norm(u) ** 2
            assert err <= max(bound, 1e-15)


@pytest.fixture
def estimates(monkeypatch):
    """The list of ARPACK calls made while the test runs."""
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
    return calls


def near_dependent_basis(delta_squared, n=64):
    """[e1, e1 + delta e2]: against a = I its coupling's second pivot is
    delta^2, and ||u||_2^2 is 2 to within delta."""
    u = np.eye(n)[:, :2].copy()
    u[0, 1] = 1.0
    u[1, 1] = np.sqrt(delta_squared)
    return u


class TestPivotScale:
    """The pivot tests are judged against n max|a_ij| first, and against the
    estimate of ||a||_2 only when a pivot fails there."""

    def test_well_conditioned_set_up_makes_no_estimate(self, estimates):
        spd = clustered_spd_problem(600)
        Deflator(spd.a, eigenvector_basis(spd, range(1, 6)), OR)
        paper = symmetric_indefinite_problem(200)
        Deflator(paper.a, eigenvector_basis(paper, [1, 2, 3, 201, 202, 203]), MR)
        assert not estimates

    @pytest.mark.parametrize("mode", [OR, MR], ids=["cholesky", "minimizing"])
    def test_pivot_between_estimate_and_bound_is_accepted(self, estimates, mode):
        # 1e-14 ||a|| ||u||^2 = 2e-14 < pivot 1e-13 < 1e-14 n max|a_ij| ||u||^2 = 1.28e-12
        d = Deflator(np.eye(64), near_dependent_basis(1e-13), mode)
        assert len(estimates) == 1
        assert d.k == 2

    @pytest.mark.parametrize("mode", [OR, MR], ids=["cholesky", "minimizing"])
    def test_pivot_below_the_estimate_is_rejected(self, estimates, mode):
        with pytest.raises(SingularCouplingError,
                           match=r"numerically singular \(smallest Cholesky pivot 1\.\d+e-15 "
                                 r"below 1e-14 \* 2\.000e\+00\)"):
            Deflator(np.eye(64), near_dependent_basis(1e-15), mode)
        assert len(estimates) == 1

    def test_indefinite_symmetric_matrix_fails_the_hpd_check(self, estimates):
        p = symmetric_indefinite_problem(40, seed=5)
        assert np.array_equal(p.a, p.a.T)
        with pytest.raises(ValueError, match="Hermitian positive definite"):
            Deflator(p.a, eigenvector_basis(p, [1]), OR)
        assert not estimates    # the factorization itself fails

    @pytest.mark.parametrize("smallest, accepted", [(1e-13, True), (1e-15, False)])
    def test_hpd_check_decides_a_close_pivot_by_the_estimate(self, estimates, smallest,
                                                             accepted):
        # the bound is 64, ||a||_2 is 1: only 1e-13 passes 1e-14 ||a||_2
        a = np.diag(np.r_[np.ones(63), smallest])
        u = np.eye(64)[:, :1]
        if accepted:
            Deflator(a, u, OR)
        else:
            with pytest.raises(ValueError, match="Hermitian positive definite"):
                Deflator(a, u, OR)
        assert len(estimates) == 1

    def test_hpd_check_leaves_the_matrix_untouched(self):
        spd = clustered_spd_problem(100)
        a = spd.a.copy()
        Deflator(a, eigenvector_basis(spd, range(1, 6)), OR)
        np.testing.assert_array_equal(a, spd.a)


class TestCoarseSolve:
    def test_vector_orthogonal_to_basis_maps_to_zero(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0]])
        d = Deflator(a, np.array([[1.0], [0.0]]), OR)
        # from x_hat = 0 the correction is the coarse solve u (u^H a u)^-1 u^H b
        np.testing.assert_allclose(d.correct_iterate([0.0, 0.0], [0.0, 1.0]), [0.0, 0.0],
                                   atol=1e-15)

    def test_toy_correction_term_vanishes(self):
        p = toy_breakdown_problem()
        d = Deflator(p.a, p.u, MR)
        # u (u^H a^H b) = 0 because a^H b is orthogonal to the basis
        term = d.u @ np.linalg.solve(d.coupling, d.u.conj().T @ (p.a.conj().T @ p.b))
        np.testing.assert_allclose(term, [0.0, 0.0], atol=1e-15)

    def test_matches_dense_formation(self):
        rng = np.random.default_rng(3)
        a = random_hpd(rng, 10)
        u = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        for mode, bu in ((OR, u), (MR, a @ u)):
            d = Deflator(a, u, mode)
            dense = dense_coarse_matrix(a, u, bu)
            np.testing.assert_allclose(
                d.u @ np.linalg.solve(d.coupling, d.u.conj().T @ v),
                u @ np.linalg.solve(bu.conj().T @ a @ u, u.conj().T @ v),
                atol=1e-12 * np.linalg.norm(v))
            # the residual projector built from the same data
            pv = d.project_residual(v)
            np.testing.assert_allclose(pv, v - a @ (dense @ v),
                                       atol=1e-11 * np.linalg.norm(v) * np.linalg.norm(a))


class TestProjectors:
    def test_toy_residual_projector_action(self):
        p = toy_breakdown_problem()
        d = Deflator(p.a, p.u, MR)
        np.testing.assert_allclose(d.project_residual([1.0, 1.0]), [1.0, 0.0], atol=1e-15)

    def test_kills_image_of_basis(self):
        rng = np.random.default_rng(4)
        a = random_hpd(rng, 9)
        u = rng.standard_normal((9, 2))
        for mode in (OR, MR):
            d = Deflator(a, u, mode)
            y = rng.standard_normal(2)
            out = d.project_residual(a @ (u @ y))
            assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(u @ y)

    def test_idempotence(self):
        rng = np.random.default_rng(5)
        a = random_hpd(rng, 11)
        d = Deflator(a, rng.standard_normal((11, 3)), MR)
        v = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        pv = d.project_residual(v)
        np.testing.assert_allclose(d.project_residual(pv), pv, atol=1e-12 * np.linalg.norm(v))

    def test_solution_projector_kills_basis(self):
        rng = np.random.default_rng(6)
        a = random_hpd(rng, 9)
        u = rng.standard_normal((9, 2))
        for mode in (OR, MR):
            d = Deflator(a, u, mode)
            out = d.correct_iterate(u @ np.array([1.0, -2.0]), np.zeros(9))
            assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(u)

    def test_invariant_basis_projectors_coincide(self):
        p = symmetric_indefinite_problem(20, seed=6)
        u = eigenvector_basis(p, [1, 2, 21, 22])
        d = Deflator(p.a, u, MR)
        expected = np.eye(40) - u @ u.conj().T
        rng = np.random.default_rng(0)
        v = rng.standard_normal(40)
        np.testing.assert_allclose(d.project_residual(v), expected @ v, atol=1e-11)
        np.testing.assert_allclose(d.correct_iterate(v, np.zeros(40)), expected @ v,
                                   atol=1e-11)

    def test_intertwining(self):
        rng = np.random.default_rng(7)
        a = random_hpd(rng, 13)
        d = Deflator(a, rng.standard_normal((13, 4)), MR)
        v = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        np.testing.assert_allclose(d.project_residual(a @ v),
                                   a @ d.correct_iterate(v, np.zeros(13)),
                                   atol=1e-12 * np.linalg.norm(a) * np.linalg.norm(v))

    def test_identity_suite(self):
        report = projection_suite(seed=11)
        assert report["passed"], report

    def test_basis_independence(self):
        rng = np.random.default_rng(8)
        a = random_hpd(rng, 14)
        u = rng.standard_normal((14, 3)) + 1j * rng.standard_normal((14, 3))
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 3 * np.eye(3)
        v = rng.standard_normal(14) + 1j * rng.standard_normal(14)
        for mode in (OR, MR):
            d1 = Deflator(a, u, mode)
            d2 = Deflator(a, u @ g, mode)
            np.testing.assert_allclose(d1.project_residual(v), d2.project_residual(v),
                                       atol=1e-10 * np.linalg.norm(v))
            zero = np.zeros(14)
            np.testing.assert_allclose(d1.correct_iterate(v, zero), d2.correct_iterate(v, zero),
                                       atol=1e-10 * np.linalg.norm(v))

    def test_deflated_matrix_positive_semidefinite_in_orthogonal_mode(self):
        rng = np.random.default_rng(9)
        a = random_hpd(rng, 16)
        d = Deflator(a, rng.standard_normal((16, 4)), OR)
        anorm = linalg.spectral_norm(a)
        for _ in range(20):
            v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            quad = np.vdot(v, d.project_residual(a @ v)).real
            assert quad >= -1e-12 * anorm * np.linalg.norm(v) ** 2

class TestCorrections:
    def test_correction_ignores_basis_components(self):
        rng = np.random.default_rng(12)
        a = random_hpd(rng, 10)
        u = rng.standard_normal((10, 2))
        d = Deflator(a, u, OR)
        b = rng.standard_normal(10)
        x_hat = rng.standard_normal(10)
        h = u @ rng.standard_normal(2)
        np.testing.assert_allclose(
            d.correct_iterate(x_hat, b), d.correct_iterate(x_hat + h, b),
            atol=1e-11 * np.linalg.norm(x_hat))

    def test_toy_correction_misses_solution_after_breakdown(self):
        p = toy_breakdown_problem()
        d = Deflator(p.a, p.u, MR)
        corrected = d.correct_iterate(np.zeros(2), p.b)
        np.testing.assert_allclose(corrected, [0.0, 0.0], atol=1e-15)
        assert np.linalg.norm(corrected - p.known_solution) == pytest.approx(1.0)

    def test_exact_deflated_solution_corrects_to_exact_solution(self):
        rng = np.random.default_rng(13)
        a = random_hpd(rng, 12)
        u = rng.standard_normal((12, 3))
        b = rng.standard_normal(12)
        x = np.linalg.solve(a, b)
        d = Deflator(a, u, OR)
        # any deflated solution x + h with h in span(u) corrects to x
        x_hat = x + u @ rng.standard_normal(3)
        corrected = d.correct_iterate(x_hat, b)
        assert np.linalg.norm(a @ corrected - b) <= 1e-10 * np.linalg.norm(b)

    def test_two_sided_correction_of_exact_solution(self):
        rng = np.random.default_rng(14)
        g = rng.standard_normal((12, 12))
        a = 0.5 * (g + g.T) + 12 * np.eye(12)
        u = rng.standard_normal((12, 3))
        b = rng.standard_normal(12)
        d = Deflator(a, u, MR)
        x = np.linalg.solve(a, b)
        # The two-sided correction: correct_iterate of the adapted iterate.
        corrected = d.correct_iterate(d.adapted_initial_guess(x, b), b)
        assert np.linalg.norm(a @ corrected - b) <= 1e-10 * np.linalg.norm(b)

    def test_two_sided_correction_zero_inputs(self):
        p = toy_breakdown_problem()
        d = Deflator(p.a, p.u, MR)
        zero = np.zeros(2)
        np.testing.assert_allclose(
            d.correct_iterate(d.adapted_initial_guess(zero, zero), zero), zero, atol=1e-15)

    @pytest.mark.parametrize("field", [np.float64, np.complex128])
    def test_zero_iterate_is_corrected_without_a_product(self, field):
        # A correction multiplies B^H A, stored at set-up, with x_hat, and
        # never A.  For an all-zero x_hat, such as the default initial guess
        # that initial_correction shifts, B^H b - (B^H A) 0 is B^H b, so the
        # corrected iterate is the explicit formula's bit for bit, in its
        # field; for any other x_hat the two round differently, within the
        # a priori bound of correction_roundoff.
        p = clustered_spd_problem(40, 3, 0)
        d = Deflator(p.a, eigenvector_basis(p, range(1, 4)), OR)
        b = p.b if field is np.float64 else p.b + 1j * p.b[::-1]
        product, calls = d.a_product, counted_products(d)
        for x_hat in (np.zeros(40, dtype=field), p.b):
            bound, = correction_roundoff(p.a, d.u, OR, x_hat, b)
            corrected = d.initial_correction(x_hat, b)
            assert calls == []
            expected = x_hat + d.u @ d._solve_coupling(d._bu_h @ (b - product(x_hat)))
            assert corrected.dtype == expected.dtype == field
            if x_hat.any():
                assert np.linalg.norm(corrected - expected) <= bound
            else:
                assert corrected.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("system", ["residual-orthogonal", "residual-minimizing",
                                        "complex-hermitian"])
    def test_block_correction_agrees_with_each_column(self, system):
        # A block of iterates is corrected by one product of the stored
        # B^H A with the block, one coupling solve with k right-hand sides
        # and one product with u; every column is its own correction to
        # roundoff, the zero column included, and the block counts one
        # correction per column.
        if system == "residual-orthogonal":
            p = clustered_spd_problem(60, 3, 0)
            a, b, u, mode = p.a, p.b, eigenvector_basis(p, range(1, 4)), OR
        elif system == "residual-minimizing":
            p = symmetric_indefinite_problem(30, seed=0)
            a, b, u, mode = p.a, p.b, eigenvector_basis(p, [1, 2, 3, 31, 32]), MR
        else:
            a, b, u, _ = next(equivalence_instances(0, 1))
            mode = MR
        assert (np.iscomplexobj(a) and np.iscomplexobj(u)) == (system == "complex-hermitian")
        n = a.shape[0]
        rng = np.random.default_rng(22)
        block = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
        block[:, 0] = 0.0
        d = Deflator(a, u, mode)
        eps = np.finfo(float).eps
        for x_hat in (block.real, block):
            corrected = d.correct_iterate(x_hat, b)
            assert corrected.shape == x_hat.shape
            assert corrected.dtype == np.result_type(x_hat, d.a)
            for column, x in zip(corrected.T, x_hat.T):
                alone = d.correct_iterate(x, b)
                size = np.linalg.norm(x) + np.linalg.norm(alone)
                assert np.linalg.norm(column - alone) <= 4 * n * eps * size
        assert d.apply_counts["corrections"] == 2 * (6 + 6)

    def test_zero_block_is_corrected_without_a_product(self):
        p = clustered_spd_problem(40, 3, 0)
        d = Deflator(p.a, eigenvector_basis(p, range(1, 4)), OR)
        calls = counted_products(d)
        corrected = d.correct_iterate(np.zeros((40, 3)), p.b)
        alone = d.correct_iterate(np.zeros(40), p.b)
        assert calls == []
        assert corrected.shape == (40, 3)
        for column in corrected.T:
            np.testing.assert_allclose(column, alone, rtol=1e-14)

    @pytest.mark.parametrize("mode", [OR, MR])
    def test_no_correction_multiplies_by_a(self, mode):
        # Set-up is the last product with A that a correction or the
        # solution projector needs: vectors, blocks, the initial and the
        # two-sided corrections (the latter through the adapted guess) and
        # the solution projector, the correction of b = 0, make none.
        p = symmetric_indefinite_problem(30, seed=0) if mode is MR else clustered_spd_problem(60)
        d = Deflator(p.a, eigenvector_basis(p, [1, 2, 3]), mode)
        calls = counted_products(d)
        rng = np.random.default_rng(33)
        x_hat = rng.standard_normal(d.dim)
        d.correct_iterate(x_hat, p.b)
        d.correct_iterate(rng.standard_normal((d.dim, 4)) + 1j, p.b)
        d.correct_iterate(np.zeros((d.dim, 2)), p.b)
        d.correct_iterate(x_hat + 1j * x_hat[::-1], np.zeros(d.dim))
        if mode is OR:
            d.initial_correction(x_hat, p.b)
        else:
            d.correct_iterate(d.adapted_initial_guess(x_hat, p.b), p.b)
        assert calls == []
        assert d.apply_counts["corrections"] == 1 + 4 + 2 + 1 + 1

    @pytest.mark.parametrize("system", ["or-hermitian-real", "or-hermitian-complex",
                                        "or-inexact-hermitian", "mr-hermitian",
                                        "mr-non-hermitian"])
    def test_correction_matches_the_explicit_formula(self, system):
        # x_hat + U E^-1 (B^H b - (B^H A) x_hat) against x_hat + U E^-1 B^H
        # (b - A x_hat) as written, with B = U (OR) or A U (MR), within the
        # roundoff bound of correction_roundoff, fixed before the run: for
        # the zero iterate, a random one, one near the solution, and the
        # block of the three.
        _, a, u, mode, b = next(s for s in correction_systems() if s[0] == system)
        matrix = linalg.SquareMatrix(a)
        assert matrix.exactly_hermitian == (system in ("or-hermitian-real",
                                                       "or-hermitian-complex", "mr-hermitian"))
        assert matrix.hermitian == (system != "mr-non-hermitian")
        d = Deflator(a, u, mode)
        # B^H A is the view w^H only where u^H A equals it: OR on an A that
        # is Hermitian bit for bit.
        shortcut = mode is OR and matrix.exactly_hermitian
        np.testing.assert_array_equal(d._bu_h_a, d.w.conj().T if shortcut else d._bu_h @ d.a)
        n = a.shape[0]
        rng = np.random.default_rng(34)
        block = np.stack([np.zeros(n), rng.standard_normal(n),
                          np.linalg.solve(a, b) + rng.standard_normal(n)], axis=1)
        block = block.astype(np.result_type(a, b))
        bounds = correction_roundoff(a, u, mode, block, b)
        explicit = explicit_correction(a, u, mode, block, b)
        for x_hat, expected, bound in zip(block.T, explicit.T, bounds):
            assert np.linalg.norm(d.correct_iterate(x_hat, b) - expected) <= bound
        errors = np.linalg.norm(d.correct_iterate(block, b) - explicit, axis=0)
        assert (errors <= bounds).all()

    def test_initial_correction_orthogonalizes_residual(self):
        rng = np.random.default_rng(15)
        a = random_hpd(rng, 15)
        u = rng.standard_normal((15, 4))
        b = rng.standard_normal(15)
        d = Deflator(a, u, OR)
        x0 = d.initial_correction(rng.standard_normal(15), b)
        assert np.linalg.norm(u.conj().T @ (b - a @ x0)) <= 1e-12 * np.linalg.norm(b) * np.linalg.norm(u)

    def test_initial_correction_fixes_exact_solution(self):
        rng = np.random.default_rng(16)
        a = random_hpd(rng, 9)
        u = rng.standard_normal((9, 2))
        b = rng.standard_normal(9)
        x = np.linalg.solve(a, b)
        d = Deflator(a, u, OR)
        np.testing.assert_allclose(d.initial_correction(x, b), x, atol=1e-10 * np.linalg.norm(x))

    def test_initial_correction_noop_when_already_orthogonal(self):
        rng = np.random.default_rng(17)
        a = random_hpd(rng, 9)
        u = rng.standard_normal((9, 2))
        d = Deflator(a, u, OR)
        b = rng.standard_normal(9)
        x0 = d.initial_correction(rng.standard_normal(9), b)
        np.testing.assert_allclose(d.initial_correction(x0, b), x0, atol=1e-11 * np.linalg.norm(x0))

    def test_adapted_guess_residual_identity(self):
        # The adapted guess makes the left-projected initial residual equal
        # the two-sided one, P (b - A w E^-1 u^H b) - P A P x0, for every
        # starting vector.
        rng = np.random.default_rng(18)
        g = rng.standard_normal((14, 14))
        a = 0.5 * (g + g.T) + np.diag(rng.uniform(1, 2, 14))
        u = rng.standard_normal((14, 3))
        b = rng.standard_normal(14)
        x0 = rng.standard_normal(14)
        d = Deflator(a, u, MR)
        adapted = d.adapted_initial_guess(x0, b)
        lhs = d.project_residual(b - a @ adapted)
        coarse = d.w @ np.linalg.solve(d.coupling, u.T @ b)
        rhs = d.project_residual(b - a @ coarse) - d.project_residual(a @ d.project_residual(x0))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11 * np.linalg.norm(b))

    def test_adapted_guess_trivial_cases(self):
        p = toy_breakdown_problem()
        d = Deflator(p.a, p.u, MR)
        # the shift term is a (u e^-1 u^H b): it vanishes iff u^H b = 0
        b_orth = np.array([0.0, 1.0], dtype=complex)
        np.testing.assert_allclose(
            d.adapted_initial_guess(np.zeros(2), b_orth), np.zeros(2), atol=1e-15)
        # with u^H b != 0 the shift equals a u (w^H w)^-1 u^H b
        shift = d.adapted_initial_guess(np.zeros(2), p.b)
        coarse = d.u @ np.linalg.solve(d.coupling, d.u.conj().T @ p.b)
        np.testing.assert_allclose(shift, p.a @ coarse, atol=1e-15)

    def test_mode_guards(self):
        rng = np.random.default_rng(19)
        a = random_hpd(rng, 8)
        u = rng.standard_normal((8, 2))
        d_or = Deflator(a, u, OR)
        d_mr = Deflator(a, u, MR)
        with pytest.raises(ValueError, match="requires residual-minimizing mode"):
            d_or.adapted_initial_guess(np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError, match="requires residual-orthogonal mode"):
            d_mr.initial_correction(np.zeros(8), np.zeros(8))

    def test_adapted_guess_rejects_a_non_hermitian_matrix(self):
        # w^H = u^H a holds only for a Hermitian a, so the map is refused.
        rng = np.random.default_rng(21)
        a = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        d = Deflator(a, rng.standard_normal((8, 2)), MR)
        assert not d.a_hermitian
        with pytest.raises(ValueError, match="requires a Hermitian matrix"):
            d.adapted_initial_guess(np.zeros(8), rng.standard_normal(8))


class TestDeflatedRhs:
    def test_toy_projected_rhs(self):
        p = toy_breakdown_problem()
        d = Deflator(p.a, p.u, MR)
        np.testing.assert_allclose(d.project_residual(p.b), [1.0, 0.0], atol=1e-15)

    def test_two_sided_rhs_equals_projected_for_invariant_basis(self):
        p = symmetric_indefinite_problem(15, seed=2)
        u = eigenvector_basis(p, [1, 16])
        d = Deflator(p.a, u, MR)
        # The two-sided right-hand side at x0 = 0 is P (b - A x~0).
        two_sided = d.project_residual(p.b - p.a @ d.adapted_initial_guess(np.zeros(p.dim), p.b))
        np.testing.assert_allclose(two_sided, d.project_residual(p.b), atol=1e-12)

    def test_rhs_in_image_of_basis_projects_to_zero(self):
        rng = np.random.default_rng(20)
        a = random_hpd(rng, 10)
        u = rng.standard_normal((10, 2))
        d = Deflator(a, u, MR)
        b = a @ (u @ np.array([0.3, -0.7]))
        assert (np.linalg.norm(d.project_residual(b))
                <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(u))
