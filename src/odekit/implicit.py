"""Implicit Euler stepping for stiff systems.

Each step solves ``u = x + dt * f(u, t + dt)`` by Newton iteration on
the residual ``G(u) = u - x - dt * f(u, t + dt)``, refreshing the
dense Newton matrix ``I - dt * J(u)`` every iteration and solving it
with LAPACK through ``numpy.linalg``.  The user supplies the
Jacobian analytically; matrices are dense and desk-scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import scratch
from .errors import ConvergenceError, DimensionError, SingularMatrixError


def lu_solve(matrix, rhs):
    """Solve ``matrix @ x = rhs`` by LAPACK's pivoted LU (``numpy.linalg``).

    The result container matches ``rhs``: a numpy array stays an array,
    any other sequence comes back as a list of Python floats.  Raises
    :class:`SingularMatrixError` for an exactly singular matrix.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 1 or len(b) != a.shape[0]:
        raise DimensionError(
            f"right-hand side of length {b.shape} does not match matrix order {a.shape[0]}"
        )
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None
    return x if isinstance(rhs, np.ndarray) else x.tolist()


@dataclass(frozen=True)
class NewtonParams:
    """Newton iteration limits: ``tol`` bounds the update max-norm at
    convergence, ``max_iter`` the number of updates."""

    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class JacobianSystem:
    """A system callable paired with its analytic Jacobian.

    Calling the pair runs ``system(x, dxdt, t)``, which writes the
    derivative; ``jacobian(x, jac, t)`` fills the dense ``(n, n)`` array
    ``jac`` with ``d f_i / d x_j``.
    """

    system: object
    jacobian: object

    def __call__(self, x, dxdt, t):
        return self.system(x, dxdt, t)


class ImplicitEuler:
    """First order implicit Euler for stiff problems.

    Convergence is declared when the Newton update max-norm drops to
    ``tol``, or as soon as the residual itself has collapsed to ``tol``
    after at least one update; for linear systems a single iteration
    therefore suffices.  The iteration count of the latest step is kept
    in ``last_iteration_count``.
    """

    order = 1

    def __init__(self, params=None, algebra=None):
        self.params = NewtonParams() if params is None else params
        self._fixed_algebra = algebra
        self._scratch = None
        self.last_iteration_count = 0

    def do_step(self, system, x, t, dt, out=None):
        """Advance ``x`` from ``t`` by ``dt > 0``.

        ``system(x, dxdt, t)`` writes the derivative and
        ``system.jacobian`` fills its Jacobian, as a :class:`JacobianSystem`
        or a named system does; a system without one raises
        :class:`ValueError`.  In place when ``out`` is None.  Raises
        :class:`ConvergenceError` when Newton does not converge within
        ``max_iter`` updates.
        """
        if dt <= 0.0:
            raise ValueError("implicit Euler steps forward: dt must be positive")
        jac_f = getattr(system, "jacobian", None)
        if jac_f is None:
            raise ValueError("implicit Euler needs a system that carries a jacobian")
        algebra, (u, f, g), _ = scratch(self, x, 3)
        params = self.params
        n = len(x)
        t_new = t + dt
        jac = np.empty((n, n))
        algebra.copy(u, x)
        applied = 0
        while True:
            system(u, f, t_new)
            algebra.scale_sum(g, (1.0, -1.0, -dt), (u, x, f))
            if applied and algebra.norm_inf(g) <= params.tol:
                break
            if applied >= params.max_iter:
                raise ConvergenceError(
                    applied, f"Newton stalled after {applied} updates at t={t_new!r}"
                )
            jac_f(u, jac, t_new)
            m = np.multiply(jac, -dt)
            m.flat[:: n + 1] += 1.0  # I - dt*J
            delta = lu_solve(m, g)
            algebra.scale_sum(u, (1.0, -1.0), (u, delta))
            applied += 1
            if float(np.max(np.abs(delta))) <= params.tol:
                break
        self.last_iteration_count = applied
        target = x if out is None else out
        algebra.copy(target, u)
        return target
