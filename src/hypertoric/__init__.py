"""Equivariant quantum cohomology of smooth hypertoric varieties.

Computes, from torus data (an integer matrix a and a stability lift
theta_hat): circuit data of the associated hyperplane arrangement, classical
and quantum cohomology ring presentations over the equivariant parameter
field, the quantum connection and its GKZ system, and numerical verification
of the mirror description via twisted periods and critical points.
"""

from .errors import (
    BranchTrackingFailure,
    BudgetExceeded,
    DegenerateModel,
    DimensionMismatch,
    HypertoricError,
    IncompleteCriticalSet,
    InconsistentExtraction,
    NonGenericStability,
    NotSmooth,
    NotZeroDimensional,
    OutsideLocalization,
    ParameterDegeneracy,
    PoleOrderError,
    QuadratureFailure,
    RankDeficient,
    SearchBudgetExceeded,
    SingularEvaluation,
    StepFailure,
    UnsupportedDimension,
)

__version__ = "0.1.0"
