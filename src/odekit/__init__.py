"""Stepper-based ODE initial value problem solvers.

The package is organized around small stepper objects that advance a
state by one step, composed with integration drivers that run them over
an interval.  States may be numpy arrays or plain Python sequences; the
algebra layer keeps the arithmetic identical between the two.

``import odekit`` loads no submodule.  Each public name imports the
module that defines it on first use and is a plain global from then on
(PEP 562), so a run pays only for the modules it reaches; the modules
that define names resolve as ``odekit.<module>`` too.
"""

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_HOME = {name: module for module, names in {
    "algebra": "Algebra algebra_for",
    "controlled": "ControlledStepper ControllerParams next_step_size",
    "dense": "DenseOutputDopri5",
    "errors": "ConvergenceError DimensionError SingularMatrixError SolverError StepSizeUnderflowError",
    "explicit": "CashKarp54 DormandPrince5 ExplicitEuler RungeKutta4",
    "implicit": "ImplicitEuler JacobianSystem",
    "integrate": "EvaluationCounter IntegrationReport integrate_adaptive integrate_const",
    "symplectic": "PairState SeparableHamiltonian SymplecticEuler",
    "systems": "EXPDECAY HARMONIC LORENZ STIFF2 SYSTEMS NamedSystem fit_order get_system harmonic_energy"
               " harmonic_separable make_lorenz order_study",
    "tableaus": "CASH_KARP_54 DORMAND_PRINCE_54 EULER RK4_CLASSIC ButcherTableau",
}.items() for name in names.split()}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    if name in _HOME.values():
        __import__(f"{__name__}.{name}")  # which binds the module here, as a submodule import does
        return globals()[name]
    if name in _HOME:
        value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_HOME.values()})
