"""Deflated and augmented Krylov subspace solvers with breakdown diagnostics."""

from .analysis import (BreakdownDiagnosis, GuessInvalidError, NotInvariantError,
                       SpectrumCheck, VerificationFailedError,
                       breakdown_initial_guess, check_deflated_spectrum,
                       diagnose_breakdown, effective_condition_number)
from .deflated import DualReport, MethodVariant, run_method
from .linalg import (GivensRotation, HermitianEigenDecomposition,
                     SingularMatrixError, givens_qr_step, hermitian_eigen,
                     inner, principal_angles, random_orthogonal, solve_dense)
from .operators import LinearOperator, deflated_operator, dense_operator
from .problems import (TestProblem, breakdown_prone_basis, clustered_spd_problem,
                       eigenvector_basis, near_invariant_problem, perturb_basis,
                       symmetric_indefinite_problem, toy_breakdown_problem)
from .projection import (Deflator, GalerkinMode, ModeMismatchError,
                         SingularCouplingError)
from .solvers import (IndefiniteOperatorError, SolveConfig, SolveReport,
                      SolveStatus, cg_solve, gmres_solve, minres_solve)

__version__ = "0.1.0"

__all__ = [
    "BreakdownDiagnosis", "Deflator", "DualReport", "GalerkinMode",
    "GivensRotation", "GuessInvalidError", "HermitianEigenDecomposition",
    "IndefiniteOperatorError", "LinearOperator", "MethodVariant",
    "ModeMismatchError", "NotInvariantError", "SingularCouplingError",
    "SingularMatrixError", "SolveConfig", "SolveReport", "SolveStatus",
    "SpectrumCheck", "TestProblem", "VerificationFailedError",
    "breakdown_initial_guess", "breakdown_prone_basis", "cg_solve",
    "check_deflated_spectrum", "clustered_spd_problem", "deflated_operator",
    "dense_operator", "diagnose_breakdown", "effective_condition_number",
    "eigenvector_basis", "givens_qr_step", "gmres_solve", "hermitian_eigen",
    "inner", "minres_solve", "near_invariant_problem", "perturb_basis",
    "principal_angles", "random_orthogonal", "run_method", "solve_dense",
    "symmetric_indefinite_problem", "toy_breakdown_problem",
]
