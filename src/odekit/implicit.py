"""Implicit Euler stepping for stiff systems.

Each step solves ``u = x + dt * f(u, t + dt)`` by Newton iteration on
the residual ``G(u) = u - x - dt * f(u, t + dt)`` with the dense
Newton matrix ``I - dt * J(u)`` and LAPACK through ``numpy.linalg``;
a linear system at a fixed width inverts that matrix once per run.
The user supplies the Jacobian analytically; matrices are dense and
desk-scale.  ``do_step`` calls the generated step that
``integrate_const``'s fixed-step loop runs inline (:func:`_newton_code`).
On a numpy backend that replaces neither ``scale_sum`` nor ``copy`` its
residual, update and copies are the ufunc calls numpy's kernels make,
bit for bit; elsewhere they are kernel calls, so a replaced method
receives each.

Newton's stop is scaled to the step's start state (see
:class:`ImplicitEuler`); its limits are the two constants below.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .algebra import Bound, Scratched, _bound, _indent, _lazy_make, _numpy_scale_sum, scratch
from .errors import ConvergenceError, SingularMatrixError

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class JacobianSystem(partial):
    """A system callable paired with its analytic Jacobian.

    Calling the pair runs ``system(x, dxdt, t)``, which writes the
    derivative: the instance is a frameless :func:`functools.partial`
    of ``system``, as a named system is.  ``jacobian(x, jac, t)`` fills
    the dense ``(n, n)`` array ``jac`` with ``d f_i / d x_j``.
    """

    def __new__(cls, system, jacobian):
        self = super().__new__(cls, system)
        vars(self).update(system=system, jacobian=jacobian)
        return self

    def __reduce__(self):
        return type(self), (self.system, self.jacobian)

    def __repr__(self):
        return f"JacobianSystem(system={self.system!r}, jacobian={self.jacobian!r})"


@lru_cache(maxsize=None)
def _newton_code(form):
    """The Newton step, generated once per ``form`` as ``explicit._step_code``'s is: ``(pieces, make)``,
    ``pieces`` that step on ``target = x`` and ``make()(kernel, k)``, compiled on the first ``make()``,
    returning ``do_step``'s ``step(stepper, system, x, t, dt, target)``.  The form ``numpy`` writes the
    residual, the update and the copies as the ufunc calls numpy's own kernels make on these operands;
    ``numpy kernels`` and ``sequence`` call the kernels, ``sequence`` on Python floats."""
    inline = form == "numpy"
    head = [f"u, f, g, {'(copy, subtract, add, multiply)' if inline else 'copy'}, floor, eye, square, (absolute, zeros,"
            " linalg, LinAlgError, isfinite, ConvergenceError, SingularMatrixError) = k"]
    check = ["jac_f = getattr(system, 'jacobian', None)", "if jac_f is None:",
             "    raise ValueError('implicit Euler needs a system that carries a jacobian')"]
    stop = "        raise ConvergenceError(applied, f'Newton {} at t={{t_new!r}}')".format
    norm = "(a := absolute({})).item(a.argmax())".format  # a selection, not a reduction: numpy's max bits, a NaN too
    step = [
        "t_new = t + dt", f"s = {norm('x')}", "tol = floor * (s if s > 1.0 else 1.0)", "copy(u, x)", "applied = 0",
        "while True:", "    system(u, f, t_new)",
        *(["    subtract(u, x, out=g)", "    add(g, multiply(f, -dt), out=g)"] if inline else
          ["    K3(g, (1.0, -1.0, -dt), (u, x, f))"]),
        f"    if applied and {norm('g')} <= tol:", "        break",
        f"    if applied >= {NEWTON_MAX_ITER}:", stop("stalled after {applied} updates"),
        "    jac = zeros(square)  # a jacobian may write only its nonzero entries", "    jac_f(u, jac, t_new)",
        "    try:", "        if applied:  # u has moved, and with it a nonlinear system's Jacobian",
        "            stepper._factorizations += 1", "            delta = linalg.solve(eye - dt * jac, g)",
        "        else:", "            key, held = (dt, jac.tobytes()), stepper._newton",
        "            if held is None or held[0] != key:", "                stepper._factorizations += 1",
        "                m = eye - dt * jac", "                held = stepper._newton = key, linalg.inv(m), m",
        "            _, inv, m = held", "            delta = inv.dot(g)",
        "            delta += inv.dot(g - m.dot(delta))  # recovers what inv @ g loses to cancellation",
        "    except LinAlgError:",
        "        raise SingularMatrixError(f'singular Newton matrix at t={t_new!r}') from None",
        *(["    delta = delta.tolist()  # a sequence state keeps Python floats"] if form == "sequence" else []),
        "    subtract(u, delta, out=u)" if inline else "    K2(u, (1.0, -1.0), (u, delta))", "    applied += 1",
        f"    size = {norm('delta')}",
        "    if size <= tol:", "        break", "    if not isfinite(size):", stop("update {applied} is not finite"),
        "stepper.last_iteration_count = applied", "copy(target, u)",
    ]
    key = f"implicit_euler {form}"
    pieces = (key, (*head, *check, "target = x"), (), tuple(step))
    return pieces, _lazy_make("k", [*head, "def step(stepper, system, x, t, dt, target):",
                                    *_indent([*check, *step, "return target"])], "step", f"step {key}")


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
    _factorizations = 0  # Newton matrices LU-factored by its steps: inversions and solves
    _newton = None  # (key, inverse, matrix) of the latest first update
    _caches = ("_scratch", "_newton")
    _count = 3  # the Newton iterate, its derivative and its residual

    def __init__(self, algebra=None):
        self._fixed_algebra = algebra
        self.last_iteration_count = 0

    def _bind(self, algebra, buffers, x):
        # The generated Newton step on states like x (compiled on first call), its pieces and their make's args: the
        # buffers, the copy (numpy's copyto and ufuncs on arrays unless scale_sum or copy is replaced; arrays tested
        # first, as _kernel compiles on a list), the stop's floor for the dtype, the identity, its shape, names.
        eps, n, copy = float(np.finfo(getattr(buffers[0], "dtype", float)).eps), len(x), algebra._copy_kernel(x)
        form = "sequence" if not isinstance(buffers[0], np.ndarray) else "numpy kernels" \
            if algebra._replaced("copy") or algebra._kernel(1) is not _numpy_scale_sum else "numpy"
        k = (*buffers, (np.copyto, np.subtract, np.add, np.multiply) if form == "numpy" else copy,
             max(NEWTON_TOL, 8.0 * eps), np.eye(n), (n, n), (np.abs, np.zeros, np.linalg, np.linalg.LinAlgError,
             math.isfinite, ConvergenceError, SingularMatrixError))
        pieces, make = _newton_code(form)
        return Bound(_bound(make, algebra._kernel, k), pieces, (algebra._kernel, k))

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
        algebra, _, _, bound = scratch(self, x)
        if out is not None:
            algebra._check_shapes(x, out)
        return bound.step()(self, system, x, float(t), float(dt), x if out is None else out)

    do_step._shipped = True  # the fixed-step loop runs its Bound's pieces inline
