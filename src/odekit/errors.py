"""Exception types raised by the solvers."""


class DimensionError(ValueError):
    """State, derivative, or matrix operands have incompatible lengths."""


class SolverError(RuntimeError):
    """Base class for numerical failures during stepping or solving.

    When raised from a controlled integration run, ``partial_report``
    holds the counters and state accumulated before the failure.
    """

    partial_report = None


class StepSizeUnderflowError(SolverError):
    """Adaptive step size fell below the permitted minimum.

    Carries the time and step size at the point of failure.
    """

    def __init__(self, dt, t=None, partial_report=None):
        self.dt = dt
        self.t = t
        self.partial_report = partial_report
        where = "" if t is None else f" at t={t!r}"
        super().__init__(f"step size underflow{where}: dt={dt!r}")


class SingularMatrixError(SolverError):
    """The matrix of a linear solve is singular."""


class ConvergenceError(SolverError):
    """An iterative solve did not converge within the iteration budget."""

    def __init__(self, iterations, message=None):
        self.iterations = iterations
        super().__init__(message or f"no convergence after {iterations} iterations")
