"""The field of a system is decided by its data.

A matrix, basis or vector with no nonzero imaginary part is solved in float64,
even when it arrives typed complex128; any other system is solved in
complex128.  A real system and its unitarily rotated complex twin must give
the same runs, and real objects must act on complex vectors linearly.
"""

import numpy as np
import pytest

from dkrylov import cli, io as dkio, linalg, solvers
from dkrylov.deflated import MethodVariant, run_method
from dkrylov.operators import LinearOperator, deflated_operator, dense_operator
from dkrylov.problems import (breakdown_prone_basis, clustered_spd_problem,
                              eigenvector_basis, symmetric_indefinite_problem)
from dkrylov.projection import Deflator, GalerkinMode

OR = GalerkinMode.RESIDUAL_ORTHOGONAL
MR = GalerkinMode.RESIDUAL_MINIMIZING
CG_VARIANTS = (MethodVariant.CG, MethodVariant.DEFLATED_CG)
#: The variants that iterate from the two-sided right-hand side or the adapted guess.
TWO_SIDED_START = (MethodVariant.DEFLATED_MINRES, MethodVariant.DEFLATED_MINRES_ADAPTED_GUESS)


def paper_system(m=50):
    p = symmetric_indefinite_problem(m, seed=0)
    return p, eigenvector_basis(p, list(range(1, 6)) + list(range(m + 1, m + 6)))


def spd_system(n=80):
    p = clustered_spd_problem(n, 5, seed=0)
    return p, eigenvector_basis(p, range(1, 6))


def outcome(variant, a, b, u, x0=None, cfg=None):
    """The run's report, or the type of the exception it raised."""
    try:
        return run_method(variant, a, b, u, x0, cfg)
    except (ValueError, solvers.IndefiniteOperatorError) as exc:
        return type(exc)


class TestFieldRule:
    def test_real_data_is_float64(self):
        x = np.arange(6.0)
        assert linalg.in_field(x) is x
        for data in (x.astype(np.complex128), x.astype(int), list(x), x + 0j * x):
            v = linalg.in_field(data)
            assert v.dtype == np.float64 and v.flags.c_contiguous
            assert np.array_equal(v, x)

    def test_any_nonzero_imaginary_part_is_complex128(self):
        x = np.zeros(5, dtype=np.complex64)
        x[3] = 1e-30j
        assert linalg.in_field(x).dtype == np.complex128
        assert linalg.as_matrix(np.eye(3) + 1j * np.eye(3)).dtype == np.complex128

    def test_shapes_follow_the_rule(self):
        assert linalg.as_vector(np.ones((4, 1), dtype=complex)).dtype == np.float64
        assert linalg.as_matrix(np.ones(4, dtype=complex)).shape == (4, 1)
        assert linalg.as_matrix(np.ones(4, dtype=complex)).dtype == np.float64

    def test_generators_are_real(self):
        for p in (symmetric_indefinite_problem(5), clustered_spd_problem(20, 2)):
            for name in ("a", "b", "x0", "eigenvectors"):
                assert getattr(p, name).dtype == np.float64, name
        assert linalg.random_orthogonal(4, 0).dtype == np.float64

    def test_real_givens_rotation(self):
        rot = linalg.make_givens(3.0, 4.0)
        assert isinstance(rot.s, float) and isinstance(rot.r, float)
        col, _ = linalg.givens_qr_step(np.array([1.0, 2.0, 3.0]), [rot])
        assert col.dtype == np.float64
        col, _ = linalg.givens_qr_step(np.array([1.0, 2.0, 3.0]), [linalg.make_givens(1j, 1.0)])
        assert col.dtype == np.complex128


class TestFieldOfARun:
    @pytest.fixture
    def basis_fields(self, monkeypatch):
        """Record the field of every Krylov basis the solvers allocate."""
        fields = []
        init = solvers._StoredBasis.__init__

        def recording_init(self, v0, cfg):
            init(self, v0, cfg)
            fields.append(self.vectors.dtype)
        monkeypatch.setattr(solvers._StoredBasis, "__init__", recording_init)
        return fields

    @pytest.mark.parametrize("typed", ["float64", "complex128"])
    @pytest.mark.parametrize("variant", list(MethodVariant), ids=lambda v: v.value)
    def test_real_input_runs_in_float64(self, variant, typed, basis_fields):
        p, u = spd_system(40) if variant in CG_VARIANTS else paper_system(15)
        x0 = np.random.default_rng(1).standard_normal(p.dim)
        data = [p.a, p.b, u, x0]
        if typed == "complex128":
            data = [np.asarray(d, dtype=np.complex128) for d in data]
        result = run_method(variant, *data)
        rep = result.deflated_report
        assert result.status.value == "converged"
        assert result.corrected_iterate.dtype == np.float64
        assert rep.final_iterate.dtype == np.float64
        assert rep.iterates and all(x.dtype == np.float64 for x in rep.iterates)
        for r in rep.diagnostics.get("residual_vectors", []):
            assert r.dtype == np.float64
        if variant not in CG_VARIANTS:
            assert basis_fields == [np.float64]
        if result.deflator is not None:
            d = result.deflator
            assert d.a.dtype == d.u.dtype == d.w.dtype == np.float64
        # Complex-typed real data is the same system, in the same arithmetic.
        reference = run_method(variant, p.a, p.b, u, x0)
        assert np.array_equal(reference.corrected_iterate, result.corrected_iterate)
        assert np.array_equal(reference.original_residual_norms, result.original_residual_norms)

    def test_deflator_keeps_a_real_matrix_by_reference(self):
        p, u = spd_system(40)
        assert Deflator(p.a, u, OR).a is p.a
        assert Deflator(p.a.astype(np.complex128), u, OR).a.dtype == np.float64

    def test_genuinely_complex_run_stays_complex128(self, basis_fields):
        p, u = paper_system(15)
        b = p.b + 1j * np.roll(p.b, 1)
        for variant in (MethodVariant.MINRES, MethodVariant.DEFLATED_GMRES):
            result = run_method(variant, p.a, b, u)
            assert result.status.value == "converged"
            assert result.corrected_iterate.dtype == np.complex128
            rel = np.linalg.norm(b - p.a @ result.corrected_iterate) / np.linalg.norm(b)
            assert rel <= 1e-9
        assert basis_fields == [np.complex128, np.complex128]


class TestRealAgainstComplex:
    """D A D^H, D b and D U with D = diag(exp(i phi)) is a genuinely complex
    Hermitian system with the real system's spectrum and Krylov geometry."""

    @pytest.mark.parametrize("system", [paper_system, spd_system],
                             ids=["paper-m50", "clustered-spd-80"])
    @pytest.mark.parametrize("variant", list(MethodVariant), ids=lambda v: v.value)
    def test_same_runs(self, variant, system):
        p, u = system()
        d = np.exp(1j * np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, p.dim))
        a_c, b_c, u_c = d[:, None] * p.a * d.conj()[None, :], d * p.b, d[:, None] * u
        assert np.abs(a_c.imag).max() > 0.1
        real = outcome(variant, p.a, p.b, u)
        cplx = outcome(variant, a_c, b_c, u_c)
        if isinstance(real, type) or isinstance(cplx, type):
            assert real is cplx      # CG variants on the indefinite problem
            return
        assert real.corrected_iterate.dtype == np.float64
        assert cplx.corrected_iterate.dtype == np.complex128
        assert real.status is cplx.status
        assert real.deflated_report.iterations_used == cplx.deflated_report.iterations_used
        bound = 1e-12 * np.linalg.norm(p.b)
        if variant in TWO_SIDED_START:
            # Their first residual is formed from u (w^H w)^-1 u^H b, which is
            # 1/lambda_min^2 larger than b on the clustered problem, so it
            # carries roundoff of that size in either field.
            y = Deflator(p.a, u, MR).coarse_solve(p.b)
            bound += np.finfo(float).eps * linalg.spectral_norm(p.a) ** 2 * np.linalg.norm(y)
        np.testing.assert_allclose(real.original_residual_norms, cplx.original_residual_norms,
                                   rtol=0, atol=bound)
        np.testing.assert_allclose(real.deflated_report.residual_norms,
                                   cplx.deflated_report.residual_norms, rtol=0, atol=bound)


class TestMixedInput:
    """Real objects act on a complex vector as on its real and imaginary parts."""

    @staticmethod
    def assert_split(f, *vectors):
        whole = f(*vectors)
        parts = f(*(v.real for v in vectors)) + 1j * f(*(v.imag for v in vectors))
        assert whole.dtype == np.complex128
        scale = max(np.linalg.norm(parts), 1.0)
        np.testing.assert_allclose(whole, parts, rtol=0, atol=1e-14 * scale)

    def vectors(self, n, count=2):
        rng = np.random.default_rng(5)
        return [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(count)]

    def test_deflator_methods(self):
        p, u = paper_system(20)
        d = Deflator(p.a, u, MR)
        assert d.a.dtype == np.float64
        v, b = self.vectors(p.dim)
        for method in (d.coarse_solve, d.project_residual, d.project_solution, d.two_sided_rhs):
            self.assert_split(method, v)
        for method in (d.correct_iterate, d.correct_two_sided_iterate, d.adapted_initial_guess):
            self.assert_split(method, v, b)
        p, u = spd_system(40)
        d = Deflator(p.a, u, OR)
        v, b = self.vectors(p.dim)
        self.assert_split(d.initial_correction, v, b)
        self.assert_split(d.project_residual, v)

    def test_operators(self):
        p, u = paper_system(20)
        v, = self.vectors(p.dim, 1)
        op = dense_operator(p.a)
        assert op.dtype == np.float64
        self.assert_split(op.apply, v)
        a_product = linalg.SquareMatrix(p.a).product
        np.testing.assert_array_equal(op.apply(v), a_product(v.real) + 1j * a_product(v.imag))
        for kind in ("left", "two_sided"):
            op = deflated_operator(Deflator(p.a, u, MR), kind)
            assert op.dtype == np.float64
            self.assert_split(op.apply, v)

    def test_mixed_run_is_complex_and_solves(self):
        p, u = paper_system(20)
        x0 = self.vectors(p.dim, 1)[0]
        for variant in MethodVariant:
            if variant in CG_VARIANTS:
                continue
            result = run_method(variant, p.a, p.b, u, x0)
            assert result.status.value == "converged", variant
            assert result.corrected_iterate.dtype == np.complex128
            rel = np.linalg.norm(p.b - p.a @ result.corrected_iterate) / np.linalg.norm(p.b)
            assert rel <= 1e-9, variant


class TestOperatorField:
    def test_user_operator_defaults_to_complex128(self):
        seen = []

        def matvec(v):
            seen.append(v.dtype)
            return 2.0 * v
        op = LinearOperator(3, matvec, hermitian=True)
        assert op.dtype == np.complex128
        op.apply(np.ones(3))
        assert seen == [np.complex128]
        rep = solvers.minres_solve(op, np.ones(3))
        assert rep.final_iterate.dtype == np.complex128

    def test_real_operator_receives_real_vectors(self):
        seen = []

        def matvec(v):
            seen.append(v.dtype)
            return 2.0 * v
        op = LinearOperator(3, matvec, hermitian=True, dtype=np.float64)
        rep = solvers.cg_solve(op, np.ones(3, dtype=complex))
        assert set(seen) == {np.dtype(np.float64)}
        assert rep.final_iterate.dtype == np.float64
        np.testing.assert_allclose(rep.final_iterate, 0.5)

    def test_dense_operator_dtype(self):
        assert dense_operator(np.eye(3, dtype=complex)).dtype == np.float64
        assert dense_operator(np.eye(3) * 1j).dtype == np.complex128


class TestInputBoundaries:
    def test_matrix_market_keeps_the_field(self, tmp_path):
        real = np.arange(12.0).reshape(4, 3)
        for arr, field in ((real, np.float64), (real + 1j, np.complex128)):
            dkio.write_matrix_market(tmp_path / "a.mtx", arr)
            loaded = dkio.read_matrix_market(tmp_path / "a.mtx")
            assert loaded.dtype == field
            assert np.array_equal(loaded, arr)

    def test_container_keeps_the_field_and_the_re_im_format(self, tmp_path):
        p = symmetric_indefinite_problem(4, seed=2)
        dkio.save_problem(tmp_path / "p.txt", p)
        lines = (tmp_path / "p.txt").read_text(encoding="ascii").splitlines()
        assert lines[3] == "array a 8 8"
        assert len(lines[4].split()) == 2          # "re im"
        q = dkio.load_problem(tmp_path / "p.txt")
        assert q.a.dtype == q.b.dtype == q.x0.dtype == np.float64
        p.b = p.b + 1j
        dkio.save_problem(tmp_path / "p.txt", p)
        assert dkio.load_problem(tmp_path / "p.txt").b.dtype == np.complex128

    @pytest.mark.parametrize("run", [{"x0": "zero"}, {"x0": "random"},
                                     {"x0": "breakdown-guess"},
                                     {"x0": "random", "x0_perturbation": 1e-3}])
    def test_cli_initial_guess_is_real(self, run):
        p = symmetric_indefinite_problem(10, seed=1)
        basis = breakdown_prone_basis(p, [1, 2])
        x0 = cli.build_initial_guess({"run": run}, p, basis)
        assert x0.dtype == np.float64
