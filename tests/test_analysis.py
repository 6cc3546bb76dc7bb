import numpy as np
import pytest

from dkrylov import linalg
from dkrylov.analysis import (INTERSECTION_THRESHOLD, GuessInvalidError, NotInvariantError,
                              _remove_matched, breakdown_initial_guess,
                              check_deflated_spectrum, diagnose_breakdown)
from dkrylov.problems import (breakdown_prone_basis, eigenvector_basis,
                              symmetric_indefinite_problem)
from dkrylov.projection import GalerkinMode

OR = GalerkinMode.RESIDUAL_ORTHOGONAL
MR = GalerkinMode.RESIDUAL_MINIMIZING


class TestBreakdownInitialGuess:
    def test_zero_combination_rejected(self):
        p = symmetric_indefinite_problem(10, seed=0)
        with pytest.raises(GuessInvalidError, match="nonzero vector"):
            breakdown_initial_guess(p.a, p.b, eigenvector_basis(p, [1, 2]), [0.0, 0.0])

    def test_combination_not_orthogonal_to_its_image_rejected(self):
        # an eigenvector is its own image, up to its eigenvalue
        p = symmetric_indefinite_problem(10, seed=0)
        with pytest.raises(GuessInvalidError, match="not orthogonal to its image"):
            breakdown_initial_guess(p.a, p.b, eigenvector_basis(p, [1]), [1.0])

    def test_projected_image_that_vanishes_only_in_exact_arithmetic_rejected(self):
        # Two exchange blocks, e1 <-> e2 and e3 <-> e4, and u = [e1, e1 + d e3]:
        # v = (u_2 - u_1) / d = e3 is orthogonal to w = a u = [e2, e2 + d e4]
        # exactly, and a v = e4 = (w_2 - w_1) / d lies in the image of u.
        # The coupling w^H w = [[1, 1], [1, 1 + d^2]] rounds its last entry
        # by about 1e-4 of the pivot d^2, so the projected a v keeps about
        # 1e-4 of its norm, far above the tolerance.
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1.0
        d = 1e-6
        u = np.zeros((4, 2))
        u[0] = 1.0
        u[2, 1] = d
        with pytest.raises(GuessInvalidError, match="projected image"):
            breakdown_initial_guess(a, np.ones(4), u, [-1.0 / d, 1.0 / d])


class TestDiagnoseBreakdown:
    def test_invariant_basis_angle_is_at_roundoff(self):
        # span(u) is invariant, so it equals span(a u): an arccos of the
        # indicator would read about 1.5e-8 rad.
        p = symmetric_indefinite_problem(50, seed=0)
        diag = diagnose_breakdown(p.a, eigenvector_basis(p, [1, 2, 3, 4, 5, 51, 52, 53, 54, 55]))
        assert diag.largest_principal_angle_rad <= 1e-12
        assert not diag.intersection_nontrivial
        assert diag.smallest_indicator == np.cos(diag.largest_principal_angle_rad)

    def test_breakdown_prone_basis_stays_flagged(self):
        p = symmetric_indefinite_problem(50, seed=0)
        diag = diagnose_breakdown(p.a, breakdown_prone_basis(p, range(1, 6)))
        assert diag.intersection_nontrivial
        assert diag.smallest_indicator < INTERSECTION_THRESHOLD
        assert diag.largest_principal_angle_deg == pytest.approx(90.0)

    @staticmethod
    def mixed_pair(third):
        # span(u) holds e1, fixed by a, and e2 + e3, whose image e2 + third e3
        # makes the cosine (1 + third) / (sqrt(2) sqrt(1 + third^2)) with it:
        # one angle of 0 and one near pi/2.
        u = np.zeros((4, 2))
        u[0, 0] = u[1, 1] = u[2, 1] = 1.0
        return np.diag([1.0, 1.0, third, 2.0]), u

    def test_mixed_basis_reads_a_small_indicator(self):
        a, u = self.mixed_pair(-1.0 + 2e-9)
        diag = diagnose_breakdown(a, u)
        assert diag.smallest_indicator == pytest.approx(1e-9, rel=1e-6)
        assert not diag.intersection_nontrivial

    def test_mixed_basis_with_exact_intersection_is_flagged(self):
        a, u = self.mixed_pair(-1.0)
        diag = diagnose_breakdown(a, u)
        assert diag.smallest_indicator < 1e-15
        assert diag.intersection_nontrivial

    def test_image_of_lower_dimension_is_flagged(self):
        # a annihilates e1, so span(e1, e2) meets the complement of its
        # one-dimensional image span(e2).
        a = np.diag([0.0, 1.0, 2.0, 3.0])
        diag = diagnose_breakdown(a, np.eye(4)[:, :2])
        assert diag.intersection_nontrivial
        assert diag.largest_principal_angle_rad == np.pi / 2

    def test_rank_deficient_basis_rejected(self):
        with pytest.raises(ValueError, match="rank deficient"):
            diagnose_breakdown(np.eye(4), np.ones((4, 2)))


def deflation_pair(lam_small, mode, eps=5e-11):
    """Eigenvalues lam_small, 1, ..., 5 and the eigenvector of lam_small
    moved by eps toward that of 5: at eps = 5e-11 its residual, about 5 eps,
    is below 1e-10 ||a||_2, so the basis passes as invariant."""
    q = linalg.random_orthogonal(6, 0)
    a = linalg.assemble_hermitian(q, np.r_[lam_small, 1.0:6.0])
    return a, q[:, :1] + eps * q[:, 5:6], mode


class TestCheckDeflatedSpectrum:
    def test_basis_that_is_not_invariant_rejected(self):
        a, u, mode = deflation_pair(1e-3, OR, eps=1e-3)
        with pytest.raises(NotInvariantError, match="basis is not invariant"):
            check_deflated_spectrum(a, u, mode)

    def test_deflated_matrix_that_is_not_hermitian_rejected(self):
        # w = a u leans about 5 eps / lam_small = 2.5e-7 toward the
        # eigenvector of 5, so the projector onto its complement no longer
        # commutes with a; the defect is reported as the mismatch
        a, u, mode = deflation_pair(1e-3, MR)
        result = check_deflated_spectrum(a, u, mode)
        assert not result.passed
        assert result.max_mismatch > 1e-8 * 5.0

    def test_moved_eigenvalue_rejected(self):
        # a - a u (u^H a u)^-1 u^H a moves the eigenvalue 5 by about
        # (5 eps)^2 / lam_small = 6e-7, above 1e-8 ||a||_2
        a, u, mode = deflation_pair(1e-13, OR)
        result = check_deflated_spectrum(a, u, mode)
        assert not result.passed
        assert result.max_mismatch > 1e-8 * 5.0

    def test_restriction_eigenvalue_missing_from_the_spectrum_rejected(self):
        # Through check_deflated_spectrum each restriction eigenvalue lies
        # within the invariance residual, 1e-10 ||a||_2, of the spectrum,
        # a hundredth of this tolerance, so the pairing is tested directly.
        assert _remove_matched(np.array([0.0, 1.0, 2.0]), np.array([1.0]), 1e-8).tolist() == [
            0.0, 2.0]
        with pytest.raises(NotInvariantError, match="not in the spectrum"):
            _remove_matched(np.array([0.0, 1.0, 2.0]), np.array([1.5]), 1e-8)
