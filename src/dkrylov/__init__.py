"""Deflated and augmented Krylov subspace solvers with breakdown diagnostics."""

from .analysis import (BreakdownDiagnosis, GuessInvalidError, NotInvariantError,
                       SpectrumCheck, breakdown_initial_guess,
                       check_deflated_spectrum, diagnose_breakdown)
from .deflated import DualReport, MethodVariant, run_method
from .linalg import SingularMatrixError, principal_angles
from .operators import LinearOperator, deflated_operator, dense_operator
from .problems import (TestProblem, breakdown_prone_basis, clustered_spd_problem,
                       eigenvector_basis, near_invariant_problem, perturb_basis,
                       symmetric_indefinite_problem, toy_breakdown_problem)
from .projection import Deflator, GalerkinMode, SingularCouplingError
from .solvers import (IndefiniteOperatorError, SolveConfig, SolveReport,
                      SolveStatus, cg_solve, gmres_solve, minres_solve)

__version__ = "0.1.0"

__all__ = [
    "BreakdownDiagnosis", "Deflator", "DualReport", "GalerkinMode", "GuessInvalidError",
    "IndefiniteOperatorError", "LinearOperator", "MethodVariant", "NotInvariantError",
    "SingularCouplingError", "SingularMatrixError", "SolveConfig", "SolveReport",
    "SolveStatus", "SpectrumCheck", "TestProblem",
    "breakdown_initial_guess", "breakdown_prone_basis", "cg_solve",
    "check_deflated_spectrum", "clustered_spd_problem", "deflated_operator",
    "dense_operator", "diagnose_breakdown", "eigenvector_basis", "gmres_solve",
    "minres_solve", "near_invariant_problem", "perturb_basis", "principal_angles",
    "run_method", "symmetric_indefinite_problem", "toy_breakdown_problem",
]
