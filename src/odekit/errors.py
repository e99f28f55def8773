"""Exception types raised by the solvers."""

import math


class DimensionError(ValueError):
    """State, derivative, or matrix operands have incompatible lengths."""


class SolverError(RuntimeError):
    """Base class for numerical failures during stepping or solving.

    Raised from any driver run, fixed-step, controlled or dense, it
    carries the counters and state so far in ``partial_report``.
    """

    partial_report = None


class StepSizeUnderflowError(SolverError):
    """Adaptive step size fell below the permitted minimum, or too low
    to move the time.

    Carries the time and step size at the point of failure.  The
    message names the last error estimate ``err`` when it is not finite.
    """

    def __init__(self, dt, t=None, err=None):
        self.dt = dt
        self.t = t
        self._err = err
        where = "" if t is None else f" at t={t!r}"
        message = f"step size underflow{where}: dt={dt!r}"
        if err is not None and not math.isfinite(err):
            message += f"; the last error estimate was {err!r}, not finite"
        super().__init__(message)

    def __reduce__(self):
        # pickle (and so multiprocessing) would call the class with
        # ``args``, the message; rebuild from the constructor arguments.
        return type(self), (self.dt, self.t, self._err), self.__dict__


class SingularMatrixError(SolverError):
    """The matrix of a linear solve is singular."""


class ConvergenceError(SolverError):
    """An iterative solve did not converge within the iteration budget."""

    def __init__(self, iterations, message=None):
        self.iterations = iterations
        super().__init__(message or f"no convergence after {iterations} iterations")

    def __reduce__(self):
        return type(self), (self.iterations, str(self)), self.__dict__
