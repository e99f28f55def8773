"""Implicit Euler stepping for stiff systems.

Each step solves ``u = x + dt * f(u, t + dt)`` by Newton iteration on
the residual ``G(u) = u - x - dt * f(u, t + dt)`` with the dense
Newton matrix ``I - dt * J(u)`` and LAPACK through ``numpy.linalg``;
a linear system at a fixed width inverts that matrix once per run.
The user supplies the Jacobian analytically; matrices are dense and
desk-scale.

Newton's stop is scaled to the step's start state (see
:class:`ImplicitEuler`); its limits are the two constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Scratched, scratch
from .errors import ConvergenceError, SingularMatrixError

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


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


def _bind(algebra, buffers, x):
    # Newton's residual and update kernels, on every backend, and its stop's floor for the state's dtype.
    eps = float(np.finfo(getattr(buffers[0], "dtype", float)).eps)
    return algebra._kernel(2), algebra._kernel(3), max(NEWTON_TOL, 8.0 * eps)


class ImplicitEuler(Scratched):
    """First order implicit Euler for stiff problems.

    Newton stops when an update, or the residual after at least one
    update, has max-norm at most ``NEWTON_TOL * max(1, |x|_inf)``, with
    ``x`` the state the step starts from; for linear systems a single
    update therefore suffices.  ``NEWTON_TOL`` is floored at 8 units of
    roundoff of the state's float type, which float64 never reaches.
    The update count of the latest step is kept in
    ``last_iteration_count``; each Newton pass evaluates the system
    once, and each update the Jacobian once, into a zeroed array.  A
    step's first update is ``inverse @ G`` refined once; the inverse is
    held while ``dt`` and the Jacobian's bytes are unchanged and, held
    or new, gives the same bits.  Later updates, which only a nonlinear
    system needs, solve.  The README gives the cost.
    """

    order = 1
    _factorizations = 0  # Newton matrices LU-factored by do_step: inversions and solves
    _newton = None  # (key, inverse, matrix) of the latest first update
    _caches = ("_scratch", "_newton")

    def __init__(self, algebra=None):
        self._fixed_algebra = algebra
        self.last_iteration_count = 0

    def do_step(self, system, x, t, dt, out=None):
        """Advance ``x`` from ``t`` by ``dt > 0``.

        ``system(x, dxdt, t)`` writes the derivative and
        ``system.jacobian`` fills its Jacobian, as a :class:`JacobianSystem`
        or a named system does; a system without one, or a non-finite
        ``t`` or ``dt``, raises :class:`ValueError` before any
        evaluation.  In place when ``out`` is None.  Raises
        :class:`ConvergenceError` when Newton does not converge within
        ``NEWTON_MAX_ITER`` updates or an update is not finite, and
        :class:`SingularMatrixError` when the Newton matrix is singular.
        """
        if not (math.isfinite(t) and 0.0 < dt < math.inf):
            raise ValueError("implicit Euler needs a finite t and a finite positive dt")
        jac_f = getattr(system, "jacobian", None)
        if jac_f is None:
            raise ValueError("implicit Euler needs a system that carries a jacobian")
        algebra, (u, f, g), copy, (k2, k3, floor) = scratch(self, x, 3, _bind)
        if out is not None:
            algebra._check_shapes(x, out)
        n = len(x)
        t_new = t + dt
        tol = floor * max(1.0, float(np.abs(x).max()))
        copy(u, x)
        applied = 0
        while True:
            system(u, f, t_new)
            k3(g, (1.0, -1.0, -dt), (u, x, f))
            if applied and float(np.abs(g).max()) <= tol:
                break
            if applied >= NEWTON_MAX_ITER:
                raise ConvergenceError(
                    applied, f"Newton stalled after {applied} updates at t={t_new!r}"
                )
            jac = np.zeros((n, n))  # a jacobian may write only its nonzero entries
            jac_f(u, jac, t_new)
            try:
                if applied:  # u has moved, and with it a nonlinear system's Jacobian
                    self._factorizations += 1
                    delta = np.linalg.solve(np.eye(n) - dt * jac, g)
                else:
                    key = (dt, jac.tobytes())
                    if self._newton is None or self._newton[0] != key:
                        self._factorizations += 1
                        m = np.eye(n) - dt * jac
                        self._newton = (key, np.linalg.inv(m), m)
                    _, inv, m = self._newton
                    delta = inv.dot(g)
                    delta += inv.dot(g - m.dot(delta))  # recovers what inv @ g loses to cancellation
            except np.linalg.LinAlgError:
                raise SingularMatrixError(f"singular Newton matrix at t={t_new!r}") from None
            if not isinstance(g, np.ndarray):
                delta = delta.tolist()  # a sequence state keeps Python floats
            k2(u, (1.0, -1.0), (u, delta))
            applied += 1
            size = float(np.abs(delta).max())
            if size <= tol:
                break
            if not math.isfinite(size):
                raise ConvergenceError(applied, f"Newton update {applied} is not finite at t={t_new!r}")
        self.last_iteration_count = applied
        target = x if out is None else out
        copy(target, u)
        return target
