import numpy as np
import pytest
import scipy.sparse.linalg

from dkrylov import linalg
from dkrylov.operators import LinearOperator, deflated_operator, dense_operator
from dkrylov.projection import Deflator, GalerkinMode
from dkrylov.problems import toy_breakdown_problem


def triple_loop_matvec(a, v):
    """Independent dense multiply oracle."""
    n, m = a.shape
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        acc = 0.0 + 0.0j
        for j in range(m):
            acc += a[i, j] * v[j]
        out[i] = acc
    return out


class TestDenseOperator:
    def test_identity(self):
        op = dense_operator(np.eye(3))
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(op.apply(v), v)
        assert op.hermitian is True

    def test_exchange_matrix(self):
        op = dense_operator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(op.apply([1.0, 0.0]), [0.0, 1.0])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        op = dense_operator(a)
        np.testing.assert_allclose(op.apply(v), triple_loop_matvec(a, v), atol=1e-13)
        assert op.hermitian is False

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            dense_operator(np.ones((2, 3)))

    def test_exactly_symmetric_flag_needs_no_estimate(self, monkeypatch):
        calls = []
        eigsh = scipy.sparse.linalg.eigsh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
        g = np.random.default_rng(2).standard_normal((200, 200))
        assert dense_operator(g + g.T).hermitian is True
        # a plainly nonsymmetric matrix fails against the bound n >= ||s||_2
        assert dense_operator(g).hermitian is False
        assert not calls
        # a nearly Hermitian matrix that is not exactly so still gets the estimate
        nearly = g + g.T
        nearly[0, 1] += 1e-14 * np.abs(nearly).max()
        assert dense_operator(nearly).hermitian is True
        assert len(calls) == 1

    @pytest.mark.parametrize("dim", [0, -1, True, False, 2.5, 2.0, "2", None])
    def test_rejects_a_dimension_that_is_not_a_count(self, dim):
        with pytest.raises(ValueError, match="integer of at least 1"):
            LinearOperator(dim, lambda v: v)

    def test_numpy_integer_dimension_is_accepted(self):
        op = LinearOperator(np.int64(3), lambda v: v)
        assert op.dim == 3 and type(op.dim) is int


class TestDeflatedOperator:
    def setup_method(self):
        self.toy = toy_breakdown_problem()
        self.d = Deflator(self.toy.a, self.toy.u, GalerkinMode.RESIDUAL_MINIMIZING)

    def test_toy_left_projected_action(self):
        op = deflated_operator(self.d, "left")
        np.testing.assert_allclose(op.apply([1.0, 0.0]), [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(op.apply([0.0, 1.0]), [1.0, 0.0], atol=1e-15)

    def test_annihilates_deflation_space(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)) + 12 * np.eye(12)
        u = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        d = Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING)
        op = deflated_operator(d, "left")
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = op.apply(u @ y)
        assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(u @ y)

    def test_two_sided_matches_dense_formation(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
        a = 0.5 * (g + g.conj().T) + 15 * np.eye(15)
        u = rng.standard_normal((15, 4))
        d = Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING)
        op = deflated_operator(d, "two_sided")
        w = a @ u
        p = np.eye(15) - w @ np.linalg.solve(w.conj().T @ w, w.conj().T)
        dense = p @ a @ p
        v = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        np.testing.assert_allclose(op.apply(v), dense @ v,
                                   atol=1e-12 * np.linalg.norm(a) * np.linalg.norm(v))
        assert op.hermitian is True

    def test_left_projected_not_hermitian_but_two_sided_is(self):
        left = deflated_operator(self.d, "left")
        assert left.hermitian is False
        x = np.array([1.0, 1.0], dtype=complex)
        y = np.array([1.0, -1.0], dtype=complex)
        asym = abs(linalg.inner(left.apply(x), y) - linalg.inner(x, left.apply(y)))
        assert asym > 0.1  # genuinely non-Hermitian action
        two = deflated_operator(self.d, "two_sided")
        sym = abs(linalg.inner(two.apply(x), y) - linalg.inner(x, two.apply(y)))
        assert sym <= 1e-12

    def test_two_sided_requires_minimizing_mode(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((8, 8))
        a = g @ g.T + 8 * np.eye(8)
        d = Deflator(a, rng.standard_normal((8, 2)), GalerkinMode.RESIDUAL_ORTHOGONAL)
        with pytest.raises(ValueError):
            deflated_operator(d, "two_sided")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            deflated_operator(self.d, "right")

    def test_orthogonal_mode_left_operator_is_hermitian(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((10, 10))
        a = g @ g.T + 10 * np.eye(10)
        d = Deflator(a, rng.standard_normal((10, 2)), GalerkinMode.RESIDUAL_ORTHOGONAL)
        op = deflated_operator(d, "left")
        assert op.hermitian is True
        x, y = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
        sym = abs(linalg.inner(op.apply(x), y) - linalg.inner(x, op.apply(y)))
        assert sym <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(x) * np.linalg.norm(y)


def krylov_basis(op, v, n):
    """Orthonormal basis of the order-n Krylov space of (op, v), by Arnoldi
    with classical Gram-Schmidt run twice."""
    basis = (v / np.linalg.norm(v))[:, None]
    for _ in range(1, n):
        w = op.apply(basis[:, -1])
        for _ in range(2):
            w = w - basis @ (basis.conj().T @ w)
        basis = np.column_stack([basis, w / np.linalg.norm(w)])
    return basis


class TestKrylovSpaceIdentity:
    def test_left_and_two_sided_spans_agree(self):
        # The Krylov spaces of the left-projected and two-sided operators,
        # started from a projected vector, span the same subspace.
        rng = np.random.default_rng(9)
        g = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        a = 0.5 * (g + g.conj().T) + np.diag(rng.uniform(1, 2, 30))
        u = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        d = Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING)
        left = deflated_operator(d, "left")
        two = deflated_operator(d, "two_sided")
        for trial in range(3):
            v = d.project_residual(rng.standard_normal(30) + 1j * rng.standard_normal(30))
            for n in (3, 6, 10):
                b1 = krylov_basis(left, v, n)
                b2 = krylov_basis(two, v, n)
                angles = linalg.principal_angles(b1, b2)
                assert angles[-1] <= 1e-8
