import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from dkrylov import linalg, solvers
from dkrylov.checks import equivalence_instances
from dkrylov.operators import LinearOperator, deflated_operator, dense_operator
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
    return linalg.assemble_hermitian(q, lam)


def logspaced_system(n, seed, decades, signs=False):
    """Real symmetric Q diag(lam) Q^T with |lam| log-spaced over ``decades``
    from 1, random signs on request, and a standard-normal right-hand side."""
    q = linalg.random_orthogonal(n, seed)
    rng = np.random.default_rng(seed)
    lam = np.logspace(0, decades, n)
    if signs:
        lam = lam * rng.choice([-1, 1], n)
    return linalg.assemble_hermitian(q, lam), rng.standard_normal(n)


def plus_minus_one_system():
    """n = 35, A = Q diag(signs) Q^T with Q = random_orthogonal(35, 0) and
    the signs, then b, drawn from default_rng(0).  K_2 is invariant."""
    q = linalg.random_orthogonal(35, 0)
    rng = np.random.default_rng(0)
    signs = rng.choice([-1.0, 1.0], 35)
    return linalg.assemble_hermitian(q, signs), rng.standard_normal(35)


def fixed_order_product(a):
    """v -> a v summed row by row in numpy's own order, ``(a * v).sum(axis=1)``,
    which does not depend on the BLAS thread count as ``dsymv`` does."""
    return lambda v: (a * v).sum(axis=1)


def counted_operator(a):
    """dense_operator(a), and the list that gets one entry per product."""
    matrix, calls = linalg.SquareMatrix(a), []
    op = LinearOperator(a.shape[0], lambda v: calls.append(1) or matrix.product(v),
                        matrix.hermitian, dtype=matrix.a.dtype)
    return op, calls


def measured_drifts(monkeypatch):
    """The list to which every later MINRES or GMRES run appends the drift
    ||V^H V - I||_2 of its stored basis V, measured by the SVD oracle when the
    run forms its iterate (:meth:`solvers._StoredBasis.iterate`, called once
    at the end of every run that takes a step)."""
    drifts = []
    iterate = solvers._StoredBasis.iterate

    def measuring(basis):
        v = basis.vectors[:, :basis.size]
        drifts.append(linalg.spectral_norm(v.conj().T @ v - np.eye(basis.size)))
        return iterate(basis)

    monkeypatch.setattr(solvers._StoredBasis, "iterate", measuring)
    return drifts


def krylov_least_squares_residuals(a, b, x0, steps):
    """Dense least-squares oracle: optimal residual over x0 + K_n for each n."""
    r0 = b - a @ x0
    columns = [r0]
    for _ in range(steps - 1):
        columns.append(a @ columns[-1])
    out = [np.linalg.norm(r0)]
    for n in range(1, steps + 1):
        basis = scipy.linalg.orth(np.column_stack(columns[:n]))
        target = a @ basis
        coeffs, *_ = np.linalg.lstsq(target, r0, rcond=None)
        out.append(np.linalg.norm(r0 - target @ coeffs))
    return np.array(out)


class TestSolveConfig:
    def test_defaults_valid(self):
        cfg = SolveConfig()
        assert cfg.residual_tolerance == 1e-10
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "residual_tolerance", "max_iterations", "record_history"]

    @pytest.mark.parametrize("kwargs", [
        {"residual_tolerance": 0.0},
        {"residual_tolerance": -1e-3},
        {"max_iterations": 0},
        {"residual_tolerance": float("nan")},
        {"residual_tolerance": float("inf")},
        {"residual_tolerance": True},
        {"max_iterations": 2.5},
        {"max_iterations": 3.0},
        {"max_iterations": True},
        {"max_iterations": "10"},
        {"residual_tolerance": "1e-8"},
        {"residual_tolerance": None},
        {"residual_tolerance": 1e-8 + 0j},
        {"record_history": "no"},
        {"record_history": 0},
        {"record_history": None},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)

    def test_numpy_integer_steps_are_accepted(self):
        assert SolveConfig(max_iterations=np.int64(7)).max_iterations == 7

    def test_numpy_bool_history_is_accepted(self):
        assert not SolveConfig(record_history=np.bool_(False)).record_history


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
        residuals = [b - a @ x for x in rep.iterates]
        v = np.column_stack(residuals[:-1])
        r_last = residuals[-1]
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

    @pytest.mark.parametrize("ending", ["converged", "max-iterations", "stagnated"])
    def test_one_product_per_step(self, ending):
        # r0, op p for each of the k steps, and b - op x once at the end,
        # where the carried residual meets the tolerance or the run stops
        if ending == "stagnated":
            a, b = logspaced_system(50, 0, 10)
            x0, cfg = None, SolveConfig()
        else:
            rng = np.random.default_rng(3)
            a = random_hpd(rng, 30)
            b, x0 = rng.standard_normal(30), rng.standard_normal(30)
            cfg = SolveConfig(max_iterations=1000 if ending == "converged" else 5)
        op, calls = counted_operator(a)
        rep = cg_solve(op, b, x0, cfg)
        assert rep.status.value == ending and rep.iterations_used > 1
        assert len(calls) == rep.iterations_used + 2

    @pytest.mark.parametrize("seed, decades", [(0, 4), (1, 5), (4, 4), (5, 6)])
    def test_rising_residual_is_not_stagnation(self, seed, decades):
        # CG's residual first rises to 3-7 ||r0|| here, so the best residual
        # of the first 50 steps is still ||r0||; judged on it, every run
        # ended stagnated at step 50.  Its minimal-residual companion
        # decreases, and the runs converge in 687 to 4645 steps.
        a, b = logspaced_system(200, seed, decades)
        rep = cg_solve(dense_operator(a), b,
                       cfg=SolveConfig(residual_tolerance=1e-10, max_iterations=6000))
        assert rep.status is SolveStatus.CONVERGED
        assert np.linalg.norm(b - a @ rep.final_iterate) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed, decades", [(2, 6), (5, 6)])
    def test_true_residual_that_misses_replaces_the_carried_one(self, seed, decades):
        # Here the carried residual meets the tolerance while b - A x misses
        # it (twice, by 1.34 and 1.07 times, and once, by 1.11 times).  The
        # true residual is recorded, replaces the carried one, and the run
        # goes on to converge on it, at one product more than
        # iterations_used + 2 for each such step.  The products are summed
        # in a fixed order, so that the misses are the same at every BLAS
        # thread count.
        a, b = logspaced_system(200, seed, decades)
        product, calls = fixed_order_product(a), []
        op = LinearOperator(200, lambda v: calls.append(1) or product(v),
                            hermitian=True, dtype=np.float64)
        rep = cg_solve(op, b, cfg=SolveConfig(residual_tolerance=1e-10, max_iterations=6000))
        tol = 1e-10 * np.linalg.norm(b)
        assert rep.status is SolveStatus.CONVERGED
        assert np.linalg.norm(b - a @ rep.final_iterate) <= tol
        replaced = ((rep.recurrence_residual_norms <= tol) & (rep.residual_norms > tol)).sum()
        assert replaced >= 1
        assert len(calls) == rep.iterations_used + 2 + replaced

    @pytest.mark.parametrize("seed, decades", [(2, 6), (5, 6)])
    def test_direction_after_a_miss_is_built_from_the_true_residual(self, seed, decades):
        # CG applies op to p_{k-1} at step k and to x_k where the carried
        # residual meets the tolerance.  After a miss the next direction
        # must be p_k = r + (rho' / rho) p_{k-1} with the true residual
        # r = b - A x_k and rho' = r^H r: a run that records and judges the
        # true residual but iterates on the carried one fails only here.
        # The fixed-order product makes the misses independent of the BLAS
        # thread count.
        a, b = logspaced_system(200, seed, decades)
        product, received = fixed_order_product(a), []
        op = LinearOperator(200, lambda v: received.append(v.copy()) or product(v),
                            hermitian=True, dtype=np.float64)
        rep = cg_solve(op, b, cfg=SolveConfig(residual_tolerance=1e-10, max_iterations=6000))
        assert rep.status is SolveStatus.CONVERGED
        tol = 1e-10 * linalg.vector_norm(b)         # the run's own, with x0 = 0
        # op receives vectors in the run's units, in which ||b|| is in [0.5, 1)
        unit = 2.0 ** -math.frexp(linalg.vector_norm(b))[1]
        at = 1                                      # received[0] is x0
        rho = (unit * rep.recurrence_residual_norms[0]) ** 2
        misses = 0
        for k in range(1, rep.iterations_used):
            p, at = received[at], at + 1
            if rep.recurrence_residual_norms[k] > tol:
                rho = (unit * rep.recurrence_residual_norms[k]) ** 2
                continue
            r = unit * b - product(received[at])
            at += 1
            rho_true = np.vdot(r, r).real
            expected = r + (rho_true / rho) * p
            assert np.linalg.norm(received[at] - expected) <= 1e-12 * np.linalg.norm(expected)
            rho, misses = rho_true, misses + 1
        assert misses >= 1

    @pytest.mark.parametrize("ending", ["converged", "max-iterations", "stagnated",
                                        "breakdown", "replaced"])
    def test_recorded_residual_is_within_the_residual_gap(self, ending):
        # The carried residual r_k and b - A x_k part by the residual gap
        # f_k = b - A x_k - r_k (Greenbaum, SIAM J. Matrix Anal. Appl. 18,
        # 1997).  A step x' = fl(x + fl(alpha p)), r' = fl(r - fl(alpha
        # fl(A p))) adds to f the rounding of the two updates and of the
        # product: within gamma_{n+4} ||A||_F (||x|| + ||x'||) + u (||A||_F
        # ||x'|| + ||r'||) in real arithmetic, with gamma_m = m u / (1 - m u)
        # <= 1.01 m u while m u < 0.01 (Higham, *Accuracy and Stability of
        # Numerical Algorithms*, 2002, 3.5).  f_0, the recorded norm and the
        # test's own b - A x_k add gamma_{n+1} (||A||_F ||x|| + ||r||) each,
        # and a true residual that replaces the carried one restarts the gap
        # at that size.  Summed: |recorded_k - ||b - A x_k||| <=
        # 4 gamma_{n+5} sum_{i<=k} (||A||_F ||x_i|| + ||r_i||).  Every ending
        # records b - A x of the returned iterate last, to the roundoff of
        # the solver's and the test's product: 4 gamma_{n+1} (||A||_F ||x||
        # + ||b - A x||), and bit for bit through the solver's own product.
        x0, cfg, status = None, SolveConfig(), ending
        if ending in ("converged", "max-iterations"):
            a, b = logspaced_system(40, 7, 3)
            x0 = np.random.default_rng(1).standard_normal(40)
            cfg = SolveConfig(max_iterations=1000 if ending == "converged" else 20)
        elif ending == "stagnated":
            a, b = logspaced_system(50, 0, 10)
        elif ending == "breakdown":
            # p = (0, 2) at step 2 has zero curvature, at ||b - A x|| = sqrt(2)
            a, b = np.diag([1.0, 0.0]), np.ones(2)
        else:
            # two true residuals replace the carried one, as in
            # test_true_residual_that_misses_replaces_the_carried_one
            a, b = logspaced_system(200, 2, 6)
            cfg, status = SolveConfig(max_iterations=6000), "converged"
        op = dense_operator(a)
        if ending == "replaced":
            op = LinearOperator(200, fixed_order_product(a), hermitian=True, dtype=np.float64)
        rep = cg_solve(op, b, x0, cfg)
        assert rep.status.value == status and rep.iterations_used >= 1
        if ending == "replaced":
            tol = 1e-10 * np.linalg.norm(b)
            assert ((rep.recurrence_residual_norms <= tol) & (rep.residual_norms > tol)).any()
        n, a_norm = a.shape[0], np.linalg.norm(a)
        unit = 1.01 * np.finfo(float).eps / 2       # gamma_m <= m * unit
        total = 0.0
        for x, recorded in zip(rep.iterates, rep.residual_norms):
            explicit = np.linalg.norm(b - a @ x)
            total += a_norm * np.linalg.norm(x) + max(recorded, explicit)
            assert abs(recorded - explicit) <= 4 * (n + 5) * unit * total
        x = rep.final_iterate
        explicit = np.linalg.norm(b - a @ x)
        assert abs(rep.residual_norms[-1] - explicit) <= 4 * (n + 1) * unit * (
            a_norm * np.linalg.norm(x) + explicit)
        assert rep.residual_norms[-1] == linalg.vector_norm(b - op.apply(x))


    def test_run_out_of_steps_returns_its_lowest_residual_iterate(self):
        # Here the carried residual is lowest at step 59 and rises at step
        # 60: a 60-step run returns x_59, the last iterate of a 59-step run,
        # with it as its last history entry and b - A x_59 as its last
        # recorded residual.
        a, b = logspaced_system(40, 7, 3)
        short = cg_solve(dense_operator(a), b, cfg=SolveConfig(max_iterations=59))
        rep = cg_solve(dense_operator(a), b, cfg=SolveConfig(max_iterations=60))
        assert rep.status is short.status is SolveStatus.MAX_ITERATIONS
        carried = rep.recurrence_residual_norms
        assert np.argmin(carried) == 59 and carried[60] > carried[59]
        assert np.array_equal(rep.final_iterate, short.final_iterate)
        assert np.array_equal(rep.iterates[-1], rep.final_iterate) and len(rep.iterates) == 61
        assert rep.residual_norms[-1] == short.residual_norms[-1]
        assert np.array_equal(rep.iterates[:59], short.iterates[:59])
        assert rep.diagnostics == short.diagnostics == {"returned_iteration": 59}

    @pytest.mark.parametrize("seed, decades, steps", [(0, 4, 20), (1, 5, 30), (4, 4, 40),
                                                      (5, 6, 30)])
    def test_run_that_never_goes_below_r0_returns_x0(self, seed, decades, steps):
        # The residual here first rises over ||r0|| (as in
        # test_rising_residual_is_not_stagnation), so the lowest recorded
        # residual of a short run is r0's and the run returns x0, saying so.
        a, b = logspaced_system(200, seed, decades)
        rep = cg_solve(dense_operator(a), b, cfg=SolveConfig(max_iterations=steps))
        assert rep.status is SolveStatus.MAX_ITERATIONS
        assert rep.diagnostics == {"returned_iteration": 0}
        assert not rep.final_iterate.any() and np.array_equal(rep.iterates[-1], rep.iterates[0])
        assert rep.residual_norms[-1] == rep.residual_norms[0]

    def test_converged_run_returns_its_last_iterate(self):
        a, b = logspaced_system(40, 7, 3)
        rep = cg_solve(dense_operator(a), b)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.diagnostics == {"returned_iteration": rep.iterations_used}
        zero_rhs = cg_solve(dense_operator(a), np.zeros(40))
        assert zero_rhs.iterations_used == 0
        assert zero_rhs.diagnostics == {"returned_iteration": 0}

    def test_vanishing_curvature_at_a_converged_iterate(self):
        # A = diag(1, 0) and b = (2^40 + 1, 2^-10) from x0 = (2^40, 0): every
        # operation below is exact.  Step 1 takes alpha = 1 + 2^-20, and
        # x_1 = fl(x0 + alpha r0) rounds its first entry to 2^40 + 1, so the
        # true residual is (0, 2^-10) while the carried one keeps -2^-20
        # there and is 2^-10 sqrt(1 + 2^-20).  The tolerance lies between
        # the two, so the carried residual does not meet it.  Step 2's
        # direction (0, 2^-10 (1 + 2^-20)) lies in the null space: the
        # curvature vanishes at an iterate whose true residual meets the
        # tolerance, and the breakdown is reported as converged.
        a, x0 = np.diag([1.0, 0.0]), np.array([2.0**40, 0.0])
        b = np.array([2.0**40 + 1.0, 2.0**-10])
        tol = 2.0**-10 * (1.0 + 2.0**-30) / np.linalg.norm(b)
        rep = cg_solve(dense_operator(a), b, x0, SolveConfig(residual_tolerance=tol))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations_used == 1 and rep.breakdown_iteration is None
        assert rep.diagnostics == {"returned_iteration": 1}
        assert rep.residual_norms.tolist() == [math.hypot(1.0, 2.0**-10), 2.0**-10]
        assert rep.recurrence_residual_norms[1] == 2.0**-10 * math.sqrt(1.0 + 2.0**-20)
        assert rep.final_iterate.tolist() == [2.0**40 + 1.0, 2.0**-10 * (1.0 + 2.0**-20)]


@pytest.mark.parametrize("solver", [cg_solve, minres_solve])
def test_runs_an_operator_flagged_with_a_numpy_bool(solver):
    # A flag computed with numpy, as np.all(a == a.T) is, is a numpy bool.
    a = np.diag([1.0, 2.0, 3.0])
    op = LinearOperator(3, lambda v: a @ v, hermitian=np.all(a == a.T), dtype=np.float64)
    rep = solver(op, np.ones(3))
    assert rep.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(rep.final_iterate, [1.0, 0.5, 1.0 / 3.0], atol=1e-10)


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

    def test_reorthogonalization_reduces_drift(self, monkeypatch):
        # The one reorthogonalization rule keeps ||V^H V - I||_2 within
        # steps * eps^(3/4): 9.5e-11 for the 52 steps here, where it reads
        # 6.0e-14.  With the trigger at sqrt(eps) it read 1.3e-10.
        drifts = measured_drifts(monkeypatch)
        rng = np.random.default_rng(9)
        a = random_hermitian_indefinite(rng, 60)
        b = rng.standard_normal(60)
        rep = minres_solve(dense_operator(a), b,
                           cfg=SolveConfig(residual_tolerance=1e-12, max_iterations=200))
        assert rep.status is SolveStatus.CONVERGED
        drift, = drifts
        assert drift <= rep.iterations_used * np.finfo(float).eps ** 0.75

    def test_semi_orthogonal_on_deflated_equivalence_instance(self, monkeypatch):
        # Instance 3 of the seed-20 equivalence suite (n=46, k=5): the
        # two-sided operator has a 41-dimensional range whose smallest
        # nonzero |eigenvalue| is about 1e-2.  The plain three-term
        # recurrence lost orthogonality there (drift 1.0) and took 41-42
        # steps, more than the range can hold.
        a, b, u, x0 = list(equivalence_instances(seed=20, instances=4))[3]
        d = Deflator(a, u, GalerkinMode.RESIDUAL_MINIMIZING)
        rank = a.shape[0] - u.shape[1]
        op = deflated_operator(d, "two_sided")
        # The two-sided right-hand side of deflated MINRES from x0.
        rhs = d.project_residual(b - a @ d.adapted_initial_guess(x0, b)) + op.apply(x0)
        drifts = measured_drifts(monkeypatch)
        rep = minres_solve(op, rhs, x0, SolveConfig(residual_tolerance=1e-10, max_iterations=400))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations_used <= rank
        drift, = drifts
        assert drift <= rep.iterations_used * np.sqrt(np.finfo(float).eps)

    @pytest.mark.parametrize("s", [0, 1, 2, 3], ids=["spd-1e3", "indefinite-1e4",
                                                      "spd-1e5", "indefinite-1e6"])
    def test_reaches_the_tolerance_when_ill_conditioned(self, s):
        # With reorthogonalization triggered at sqrt(eps) these runs stalled
        # at ||b - A x|| / ||b|| from 4.8e-10 to 7.0e-7 and ended stagnated.
        a, b = logspaced_system(150 + 10 * s, 100 + s, 3 + s, signs=s % 2 == 1)
        rep = minres_solve(dense_operator(a), b,
                           cfg=SolveConfig(residual_tolerance=1e-10, max_iterations=3000))
        assert rep.status is SolveStatus.CONVERGED
        assert np.linalg.norm(b - a @ rep.final_iterate) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    @pytest.mark.parametrize("threshold", [solvers.BREAKDOWN_THRESHOLD, 0.0],
                             ids=["rule", "dimension-only"])
    def test_ends_within_the_dimension(self, solver, threshold, monkeypatch):
        # A basis of n vectors in C^n cannot be continued, so a run in C^n
        # whose tolerance is out of reach ends within n steps, at the
        # solution, and its basis never holds more than n vectors; also
        # where only an exactly zero continuation would count as vanished.
        monkeypatch.setattr(solvers, "BREAKDOWN_THRESHOLD", threshold)
        sizes = []
        iterate = solvers._StoredBasis.iterate
        monkeypatch.setattr(solvers._StoredBasis, "iterate",
                            lambda basis: sizes.append(basis.vectors.shape[1]) or
                            iterate(basis))
        op = dense_operator(np.diag([1.0, -2.0, 3.0, 4.0]))
        rep = solver(op, np.ones(4), cfg=SolveConfig(max_iterations=20, residual_tolerance=1e-30))
        assert rep.status is SolveStatus.STAGNATED
        assert rep.iterations_used == 4 and sizes == [4]
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

    def test_diagnostics_match_minres(self, monkeypatch):
        # Both minimal-residual solvers report the same diagnostics; GMRES
        # orthogonalizes every Arnoldi vector twice, one CGS2 per step.
        drifts = measured_drifts(monkeypatch)
        rng = np.random.default_rng(15)
        a = random_hermitian_indefinite(rng, 30)
        b = rng.standard_normal(30)
        rep_g = gmres_solve(dense_operator(a), b)
        rep_m = minres_solve(dense_operator(a), b)
        assert rep_g.status is SolveStatus.CONVERGED
        assert set(rep_g.diagnostics) == set(rep_m.diagnostics) == {"reorthogonalizations"}
        assert rep_g.diagnostics["reorthogonalizations"] == rep_g.iterations_used
        drift_g, _ = drifts
        assert drift_g <= 1e-12

    def test_accepts_plain_ndarray(self):
        a = np.diag([2.0, 5.0])
        rep = gmres_solve(a, np.array([2.0, 5.0]))
        np.testing.assert_allclose(rep.final_iterate, [1.0, 1.0], atol=1e-10)


class TestMinimalResidualRecord:
    """MINRES and GMRES apply the operator once per step and record
    ||r0 - (op V) y|| from the stored products op V."""

    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    @pytest.mark.parametrize("max_iterations", [1000, 5], ids=["converged", "max-iterations"])
    def test_one_product_per_step(self, solver, max_iterations):
        # r0, the probe of the breakdown rule, op v_j for each of the k
        # steps, and b - op x once at the end
        rng = np.random.default_rng(3)
        a = random_hermitian_indefinite(rng, 30)
        b = rng.standard_normal(30)
        calls = []
        op = LinearOperator(30, lambda v: calls.append(1) or a @ v, hermitian=True)
        rep = solver(op, b, rng.standard_normal(30), SolveConfig(max_iterations=max_iterations))
        assert rep.iterations_used > 1
        assert len(calls) == rep.iterations_used + 3

    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    def test_recorded_residual_is_the_explicit_one_to_roundoff(self, solver):
        # r0 - (A V) y and b - A (x0 + V y) are equal in exact arithmetic.
        # In floating point they differ by the errors of four products, A x0,
        # A V, (A V) y and A x_k, each within gamma_m |A| |z| for m <= n + k
        # terms, gamma_m <= 1.01 m eps while m eps < 0.01 (Higham, *Accuracy
        # and Stability of Numerical Algorithms*, 2002, 3.5).  In norm that
        # is gamma_m ||A||_F ||z||, and the columns of A V add up to
        # sqrt(k) ||y|| = sqrt(k) ||x_k - x0|| for orthonormal V; the
        # subtractions and the norms add gamma_m of the residual itself.
        rng = np.random.default_rng(11)
        n = 40
        a = (random_hermitian_indefinite(rng, n) if solver is minres_solve
             else rng.standard_normal((n, n)) + 8.0 * np.eye(n))
        b, x0 = rng.standard_normal(n), rng.standard_normal(n)
        rep = solver(dense_operator(a), b, x0)
        assert rep.status is SolveStatus.CONVERGED and rep.iterations_used > 20
        a_norm, eps = np.linalg.norm(a), np.finfo(float).eps
        for k, (x, recorded) in enumerate(zip(rep.iterates, rep.residual_norms)):
            explicit = np.linalg.norm(b - a @ x)
            gamma = 1.01 * (n + k) * eps
            bound = 4 * gamma * (a_norm * np.sqrt(k) * (np.linalg.norm(x) + np.linalg.norm(x0))
                                 + explicit)
            assert abs(recorded - explicit) <= bound


def reference_omega(betas, alphas, om, om_prev, alpha, beta, beta_next, theta):
    """Simon's omega recurrence as one expression, as _LanczosBasis summed it
    before it summed in place: the reference it must match bit for bit."""
    j = om_prev.shape[0]
    t = betas[1:j + 1] * om[1:j + 1] + (alphas[:j] - alpha) * om[:j] - beta * om_prev
    t[1:] += betas[1:j] * om[:j - 1]
    nxt = np.empty(j + 2)
    nxt[:j] = (t + np.copysign(theta, t)) / beta_next
    nxt[j], nxt[j + 1] = theta / beta_next, 1.0
    return nxt, float(np.max(np.abs(nxt[:j + 1])))


class TestOmegaRecurrence:
    @pytest.mark.parametrize("j", [0, 1, 2, 3, 40])
    @pytest.mark.parametrize("level", [1e-14, 1e-10], ids=["keep", "reorthogonalize"])
    def test_in_place_sum_matches_the_expression(self, j, level):
        rng = np.random.default_rng(j)
        basis = solvers._LanczosBasis(np.zeros(50), rng.standard_normal(50), 1.0,
                                      SolveConfig())
        basis.size, basis.scale = j + 1, 10.0       # above every row sum of T here
        basis.betas[:j + 1] = rng.uniform(0.5, 2.0, j + 1)
        basis.alphas[:j] = rng.uniform(-2.0, 2.0, j)
        om, om_prev = level * rng.standard_normal(j + 1), level * rng.standard_normal(j)
        om[-1] = om_prev[-1:] = 1.0                 # |v_k^H v_k|
        basis.omega, basis.omega_prev = om, om_prev
        expected, largest = reference_omega(basis.betas, basis.alphas, om, om_prev, 0.25,
                                            basis.betas[j], 0.75, basis.roundoff * 10.0)
        reorthogonalize = basis.loses_orthogonality(0.25, 0.75)
        assert basis.omega.tobytes() == expected.tobytes()
        assert reorthogonalize == (largest > solvers.REORTHOGONALIZATION_LEVEL)
        assert reorthogonalize == (j > 0 and level > 1e-12)


class TestReorthogonalizationCount:
    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    @pytest.mark.parametrize("ending", ["converged", "max-iterations", "stagnated", "breakdown"])
    @pytest.mark.parametrize("record_history", [False, True])
    def test_every_ending_reports_the_count_alone(self, solver, ending, record_history):
        # The reorthogonalization count is all a run reports, with history
        # or without; the basis drift is measured where a test asks for it.
        max_iterations = 5 if ending == "max-iterations" else 1000
        if ending in ("converged", "max-iterations"):
            rng = np.random.default_rng(3)
            a, b = random_hermitian_indefinite(rng, 30), rng.standard_normal(30)
        elif ending == "stagnated":         # as in test_exhausted_space_commits_the_last_step
            q = linalg.random_orthogonal(3, 0)
            a, b = q @ np.diag([1.0, -2.0, 1e-8]) @ q.T, q @ np.ones(3)
        else:                               # as in test_singular_last_step_is_not_committed
            a, b = np.diag([1.0, 2.0, 3.0, 0.0]), np.array([1.0, 1.0, 1.0, 0.5])
        rep = solver(dense_operator(a), b, cfg=SolveConfig(max_iterations=max_iterations,
                                                           record_history=record_history))
        assert rep.status.value == ending
        assert set(rep.diagnostics) == {"reorthogonalizations"}


class TestHistory:
    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    @pytest.mark.parametrize("ending", ["converged", "max-iterations", "breakdown"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_iterates_are_formed_from_the_krylov_coefficients(self, solver, ending, field,
                                                               monkeypatch):
        # A run that records history keeps each step's least-squares
        # solution y_j and forms its iterates at the end in one product:
        # each is x0 + V y_j, formed on its own, to roundoff, and the last
        # is the final iterate, bit for bit, in an array of its own.
        bases = []
        history = solvers._StoredBasis.history
        monkeypatch.setattr(solvers._StoredBasis, "history",
                            lambda basis, last: bases.append(basis) or history(basis, last))
        if ending == "breakdown":           # as in test_singular_last_step_is_not_committed
            a, b = np.diag([1.0, 2.0, 3.0, 0.0]), np.array([1.0, 1.0, 1.0, 0.5])
        else:
            a, b = logspaced_system(40, 3, 2, signs=True)
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal(b.shape[0])
        if field == "complex":
            b, x0 = b + 1j * b[::-1], x0 - 1j * x0[::-1]
        cfg = SolveConfig(max_iterations=6 if ending == "max-iterations" else 200)
        rep = solver(dense_operator(a), b, x0, cfg)
        assert rep.status.value == ending
        basis, = bases
        assert len(rep.iterates) == rep.iterations_used + 1 == len(basis.steps) + 1
        np.testing.assert_array_equal(rep.iterates[0], x0)
        eps = np.finfo(float).eps
        for x, y in zip(rep.iterates[1:], basis.steps):
            j = y.shape[0]
            expected = x0 + basis.vectors[:, :j] @ y
            bound = 4 * (j + 1) * eps * (np.sqrt(j) * np.linalg.norm(y) + np.linalg.norm(x0))
            assert x.dtype == expected.dtype
            assert np.linalg.norm(x - expected) <= bound
        assert rep.iterates[-1].tobytes() == rep.final_iterate.tobytes()
        assert not np.shares_memory(rep.iterates[-1], rep.final_iterate)


class TestStagnation:
    def test_inconsistent_singular_system_stagnates_or_breaks(self):
        # rank-deficient Hermitian system with an inconsistent right-hand side
        a = np.diag([1.0, 2.0, 3.0, 0.0])
        b = np.array([1.0, 1.0, 1.0, 0.5])
        rep = minres_solve(dense_operator(a), b,
                           cfg=SolveConfig(max_iterations=200, residual_tolerance=1e-10))
        assert rep.status in (SolveStatus.BREAKDOWN, SolveStatus.STAGNATED)

    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    @pytest.mark.parametrize("record_history", [False, True])
    def test_singular_last_step_is_not_committed(self, solver, record_history):
        # The Krylov space is exhausted at step 4 with a singular
        # least-squares factor; the least possible residual is 0.5, so the
        # step must not be committed as a lucky termination.  No residual of
        # the uncommitted step is formed, so only the pivot test can tell.
        # The frozen iterate is the same whether or not the run records its
        # history.
        a = np.diag([1.0, 2.0, 3.0, 0.0])
        b = np.array([1.0, 1.0, 1.0, 0.5])
        cfg = SolveConfig(max_iterations=200, residual_tolerance=1e-10,
                          record_history=record_history)
        rep = solver(dense_operator(a), b, cfg=cfg)
        assert rep.status is SolveStatus.BREAKDOWN
        assert rep.breakdown_iteration == 4
        assert rep.residual_norms[-1] == pytest.approx(0.5, rel=1e-10)
        assert np.linalg.norm(b - a @ rep.final_iterate) == pytest.approx(0.5, rel=1e-10)
        if record_history:
            assert len(rep.iterates) == 4
            np.testing.assert_array_equal(rep.iterates[-1], rep.final_iterate)
        else:
            assert rep.iterates is None

    @pytest.mark.parametrize("solver, recurrence", [
        (minres_solve, False), (gmres_solve, False), (minres_solve, True), (gmres_solve, True),
    ], ids=["minres_solve", "gmres_solve", "minres_solve-recurrence", "gmres_solve-recurrence"])
    def test_unattainable_tolerance_on_nonsingular_system(self, solver, recurrence):
        # Nonsingular, but at condition 2e8 the default tolerance lies below
        # the attainable accuracy: the Krylov space is exhausted at step 3
        # and the last step misses the tolerance, so the run is not
        # reported as converged, and what it records is the true residual.
        # The recurrence residual meets the tolerance, so only the final
        # explicit residual can tell.
        q = linalg.random_orthogonal(3, 0)
        a = q @ np.diag([1.0, -2.0, 1e-8]) @ q.conj().T
        b = q @ np.ones(3)
        rep = solver(dense_operator(a), b)
        assert rep.status is not SolveStatus.CONVERGED
        if recurrence:
            tol = SolveConfig().residual_tolerance * np.linalg.norm(b)
            assert rep.recurrence_residual_norms[-1] <= tol < rep.residual_norms[-1]
        else:
            assert rep.residual_norms[-1] == pytest.approx(
                np.linalg.norm(b - a @ rep.final_iterate), rel=1e-12)

    def test_unattainable_tolerance_on_spd_system(self):
        # CG on the positive definite twin of that system: its carried
        # residual meets the tolerance at step 5 where the true one misses
        # it, so the true residual replaces it there, and the run goes on
        # until it stagnates at its last iterate.  It is not reported as converged, and its
        # last recorded residual is the true one.
        q = linalg.random_orthogonal(3, 0)
        a = q @ np.diag([1.0, 2.0, 1e-8]) @ q.conj().T
        b = q @ np.ones(3)
        rep = cg_solve(dense_operator(a), b)
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


class TestExhaustedSpace:
    """Only a vanishing least-squares pivot is a breakdown: a step that
    exhausts a nonsingular system's Krylov space is committed at any
    tolerance, and b - op x of the returned iterate is recorded last."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-14, 1e-15, 1e-16, 1e-30])
    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    def test_plus_minus_one_system_is_solved_at_step_two(self, solver, tol):
        # Step 2 solves the system to about 1.3e-15 ||b||.  It used to be
        # dropped below tolerance 1e-15, where its recurrence residual
        # misses the tolerance, leaving x_1 at 0.97 ||b|| as a breakdown.
        a, b = plus_minus_one_system()
        rep = solver(dense_operator(a), b, cfg=SolveConfig(residual_tolerance=tol))
        assert rep.iterations_used == 2 and rep.status is not SolveStatus.BREAKDOWN
        assert np.linalg.norm(b - a @ rep.final_iterate) <= 1e-14 * np.linalg.norm(b)

    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    def test_no_breakdown_on_nonsingular_systems_below_eps(self, solver):
        # 80 nonsingular real symmetric systems whose |lam| span s % 13
        # decades with random signs, at tolerance 1e-30: the +-1 spectra
        # (s % 13 == 0) used to break down at 0.95-1.0 ||b||.
        broken = []
        for s in range(80):
            rng = np.random.default_rng(s)
            n = int(rng.integers(20, 81))
            lam = np.logspace(0, -(s % 13), n) * rng.choice([-1, 1], n)
            a = linalg.assemble_hermitian(linalg.random_orthogonal(n, s), lam)
            b = rng.standard_normal(n)
            rep = solver(dense_operator(a), b, cfg=SolveConfig(residual_tolerance=1e-30))
            if rep.status is SolveStatus.BREAKDOWN:
                broken.append(s)
            if s % 13 == 0:
                assert np.linalg.norm(b - a @ rep.final_iterate) <= 1e-14 * np.linalg.norm(b)
        assert broken == []

    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    @pytest.mark.parametrize("ending", ["converged", "max-iterations", "stagnated", "breakdown"])
    def test_last_residual_is_formed_at_every_ending(self, solver, ending):
        # r0, the probe, one product per step, the step that breaks down
        # included, and b - op x of the returned iterate, recorded last
        tol, max_iterations = 1e-10, 1000
        if ending == "breakdown":       # singular: the step-4 pivot vanishes
            a, b = np.diag([1.0, 2.0, 3.0, 0.0]), np.array([1.0, 1.0, 1.0, 0.5])
        elif ending == "stagnated":     # exhausted at step 2, tolerance below eps
            (a, b), tol = plus_minus_one_system(), 1e-30
        else:
            rng = np.random.default_rng(3)
            a, b = random_hermitian_indefinite(rng, 30), rng.standard_normal(30)
            max_iterations = 1000 if ending == "converged" else 5
        op, calls = counted_operator(a)
        rep = solver(op, b, cfg=SolveConfig(residual_tolerance=tol,
                                            max_iterations=max_iterations))
        assert rep.status.value == ending
        assert len(calls) == (rep.breakdown_iteration or rep.iterations_used) + 3
        x = rep.final_iterate
        assert rep.residual_norms[-1] == linalg.vector_norm(b - dense_operator(a).apply(x))


class TestScaleOfB:
    """A = diag(1, 2, 3), b = s (1, 1, 1): the residual norms of a run at
    s = 1e-200 or 1e160 have squares outside the float64 range."""

    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    @pytest.mark.parametrize("solver", [minres_solve, gmres_solve])
    def test_minimal_residual_steps_do_not_depend_on_the_scale(self, solver, scale):
        a = np.diag([1.0, 2.0, 3.0])
        unit = solver(dense_operator(a), np.ones(3))
        rep = solver(dense_operator(a), scale * np.ones(3))
        assert (rep.status, rep.iterations_used) == (unit.status, unit.iterations_used)
        assert rep.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(rep.residual_norms[:-1] / scale, unit.residual_norms[:-1],
                                   rtol=1e-14)
        np.testing.assert_allclose(rep.final_iterate / scale, [1.0, 0.5, 1.0 / 3.0], rtol=1e-14)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e300])
    def test_cg_steps_do_not_depend_on_the_scale(self, scale):
        # rho and p^H A p leave the float64 range at every one of these
        # scales unless the run is carried in units of ||b||.
        a = np.diag([1.0, 2.0, 3.0])
        unit = cg_solve(dense_operator(a), np.ones(3))
        rep = cg_solve(dense_operator(a), scale * np.ones(3))
        assert (rep.status, rep.iterations_used) == (unit.status, unit.iterations_used)
        assert rep.status is SolveStatus.CONVERGED and rep.iterations_used == 3
        np.testing.assert_allclose(rep.residual_norms[:-1] / scale, unit.residual_norms[:-1],
                                   rtol=1e-14)
        np.testing.assert_allclose(rep.recurrence_residual_norms / scale,
                                   unit.recurrence_residual_norms, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(rep.final_iterate / scale, [1.0, 0.5, 1.0 / 3.0], rtol=1e-14)
        assert len(rep.iterates) == 4
        np.testing.assert_allclose(rep.iterates[1] / scale, unit.iterates[1], rtol=1e-14)

    def test_cg_steps_at_a_power_of_two_scale_are_exact(self):
        # A power of two scales every operation of the run exactly.
        a = np.diag([1.0, 2.0, 3.0])
        b = np.array([1.0, -0.25, 3.0])
        unit = cg_solve(dense_operator(a), b)
        rep = cg_solve(dense_operator(a), 2.0 ** -900 * b)
        assert np.array_equal(rep.residual_norms, 2.0 ** -900 * unit.residual_norms)
        assert np.array_equal(rep.final_iterate, 2.0 ** -900 * unit.final_iterate)

    def test_indefinite_curvature_is_reported_unscaled(self):
        b = np.array([1e-100, 0.0, 0.0])
        with pytest.raises(IndefiniteOperatorError, match="negative curvature -1.000e-200 "):
            cg_solve(dense_operator(np.diag([-1.0, 1.0, 1.0])), b)
