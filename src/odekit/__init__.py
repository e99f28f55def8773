"""Stepper-based ODE initial value problem solvers.

The package is organized around small stepper objects that advance a
state by one step, composed with integration drivers that run them over
an interval.  States may be numpy arrays or plain Python sequences; the
algebra layer keeps the arithmetic identical between the two.
"""

from .algebra import (
    Algebra,
    algebra_for,
)
from .controlled import (
    ControlledStepper,
    ControllerParams,
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
)
from .implicit import (
    ImplicitEuler,
    JacobianSystem,
)
from .integrate import (
    EvaluationCounter,
    IntegrationReport,
    integrate_adaptive,
    integrate_const,
)
from .symplectic import PairState, SeparableHamiltonian, SymplecticEuler
from .systems import (
    EXPDECAY,
    HARMONIC,
    LORENZ,
    STIFF2,
    SYSTEMS,
    NamedSystem,
    fit_order,
    get_system,
    harmonic_energy,
    harmonic_separable,
    make_lorenz,
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
    "NamedSystem",
    "PairState",
    "RK4_CLASSIC",
    "RungeKutta4",
    "STIFF2",
    "SYSTEMS",
    "SeparableHamiltonian",
    "SingularMatrixError",
    "SolverError",
    "StepSizeUnderflowError",
    "SymplecticEuler",
    "algebra_for",
    "fit_order",
    "get_system",
    "harmonic_energy",
    "harmonic_separable",
    "integrate_adaptive",
    "integrate_const",
    "make_lorenz",
    "next_step_size",
    "order_study",
    "__version__",
]
