"""Stepper-based ODE initial value problem solvers.

The package is organized around small stepper objects that advance a
state by one step, composed with integration drivers that run them over
an interval.  States may be numpy arrays or plain Python sequences; the
algebra layer keeps the arithmetic identical between the two.
"""

from .algebra import (
    MAX_TERMS,
    NUMPY_ALGEBRA,
    SEQUENCE_ALGEBRA,
    Algebra,
    algebra_for,
)
from .controlled import (
    ControlledStepper,
    ControllerParams,
    error_ratio,
    next_step_size,
)
from .dense import DenseOutputDopri5
from .errors import (
    ConvergenceError,
    DimensionError,
    SingularMatrixError,
    SolverError,
    StepSizeUnderflowError,
)
from .explicit import (
    CashKarp54,
    DormandPrince5,
    ExplicitEuler,
    RungeKutta4,
    StageRecord,
)
from .implicit import (
    ImplicitEuler,
    JacobianSystem,
    NewtonParams,
    lu_solve,
)
from .integrate import (
    EvaluationCounter,
    IntegrationReport,
    TrajectoryRecorder,
    integrate_adaptive,
    integrate_const,
    integrate_const_dense,
)
from .symplectic import PairState, SeparableHamiltonian, SymplecticEuler
from .systems import (
    EXPDECAY,
    HARMONIC,
    LORENZ,
    STIFF2,
    SYSTEMS,
    LorenzParams,
    NamedSystem,
    fit_order,
    get_system,
    harmonic_energy,
    harmonic_separable,
    make_lorenz,
    observed_order,
    order_study,
)
from .tableaus import (
    CASH_KARP_54,
    DORMAND_PRINCE_54,
    EULER,
    RK4_CLASSIC,
    ButcherTableau,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "ButcherTableau",
    "CASH_KARP_54",
    "CashKarp54",
    "ControlledStepper",
    "ControllerParams",
    "ConvergenceError",
    "DORMAND_PRINCE_54",
    "DenseOutputDopri5",
    "DimensionError",
    "DormandPrince5",
    "EULER",
    "EXPDECAY",
    "EvaluationCounter",
    "ExplicitEuler",
    "HARMONIC",
    "ImplicitEuler",
    "IntegrationReport",
    "JacobianSystem",
    "LORENZ",
    "LorenzParams",
    "MAX_TERMS",
    "NUMPY_ALGEBRA",
    "NamedSystem",
    "NewtonParams",
    "PairState",
    "RK4_CLASSIC",
    "RungeKutta4",
    "SEQUENCE_ALGEBRA",
    "STIFF2",
    "SYSTEMS",
    "SeparableHamiltonian",
    "SingularMatrixError",
    "SolverError",
    "StageRecord",
    "StepSizeUnderflowError",
    "SymplecticEuler",
    "TrajectoryRecorder",
    "algebra_for",
    "error_ratio",
    "fit_order",
    "get_system",
    "harmonic_energy",
    "harmonic_separable",
    "integrate_adaptive",
    "integrate_const",
    "integrate_const_dense",
    "lu_solve",
    "make_lorenz",
    "next_step_size",
    "observed_order",
    "order_study",
    "__version__",
]
