"""Dense output stepping: adapt freely, interpolate anywhere.

``DenseOutputDopri5`` is a controlled stepper: ``try_step`` has the
accept/reject contract of :class:`ControlledStepper`, and every
accepted trial also fits the quartic continuous extension of the
Dormand-Prince pair over the step just taken.  ``calc_state`` then
evaluates the trajectory at any time inside that step without further
system evaluations.  The drivers run it on the same controlled walk as
any other controlled stepper.
"""

from __future__ import annotations

import math

from .algebra import Scratched, _initial_copy, scratch
from .controlled import ControlledStepper
from .explicit import DormandPrince5
from .integrate import _counting

# Interpolation weights of the quartic term, from the continuous
# extension published for the Dormand-Prince 5(4) pair.
_D1 = -12715105075.0 / 11282082432.0
_D3 = 87487479700.0 / 32700410799.0
_D4 = -10690763975.0 / 1880347072.0
_D5 = 701980252875.0 / 199316789632.0
_D6 = -1453857185.0 / 822651844.0
_D7 = 69997945.0 / 29380423.0


class DenseOutputDopri5(Scratched):
    """Adaptive Dormand-Prince stepping with free interpolation.

    Either call ``try_step`` on your own state, as with any controlled
    stepper, or ``initialize`` with the initial state, time, and a
    first width proposal and then call ``do_step``, which retries until
    a trial is accepted.  After each accepted trial ``calc_state``
    answers for any time inside the step just taken, at no system
    evaluations; the quartic interpolant reproduces both interval ends
    to rounding accuracy.  Any new trial discards it, so
    ``calc_state`` raises until the next acceptance.

    Each trial is the ``controller``'s, generated whole on the shipped
    sequence backend (see :class:`ControlledStepper`).  The state is
    copied before each trial, and the fit reads the accepted trial's
    stage derivatives where the trial left them.

    Parameters
    ----------
    params : ControllerParams, optional
        Tolerances and limits of the internal error control, kept
        by ``controller`` alone.
    algebra : Algebra, optional
        State backend; defaults to the container of the state stepped.
    """

    _caches = ("_scratch", "_span")

    def __init__(self, params=None, algebra=None):
        self._fixed_algebra = algebra
        self.stepper = DormandPrince5(algebra)
        self.controller = ControlledStepper(self.stepper, params)
        self._algebra = self._x = self._t = self._dt = None
        self.reset()

    def reset(self):
        """Drop the interpolant and the controller's caches."""
        self.controller.reset()
        # (t_prev, t_cur, width, algebra, kernels, buffers) of the interpolant
        self._span = None

    def initialize(self, x0, t0, dt0):
        """Set the start state, start time, and first width proposal:
        all finite, the state non-empty, the width positive."""
        if not (math.isfinite(t0) and 0.0 < dt0 < math.inf):
            raise ValueError("need a finite start time and a finite positive width proposal")
        self._algebra, self._x = _initial_copy(self, x0)
        self._t = t0
        self._dt = dt0
        self.reset()

    @property
    def _evaluations(self):
        # Every evaluation is the controller's.
        return self.controller._evaluations

    @property
    def current_time(self):
        return self._t

    @property
    def current_state(self):
        """Copy of the state at ``current_time``."""
        self._require_initialized()
        out = self._algebra.clone_shape(self._x)
        self._algebra.copy(out, self._x)
        return out

    @property
    def interval(self):
        """``(t_previous, t_current)`` covered by the last accepted step."""
        self._require_interval()
        return self._span[:2]

    def _require_initialized(self):
        if self._x is None or self._t is None:
            raise RuntimeError("initialize() must be called first")

    def _require_interval(self):
        if self._span is None:
            raise RuntimeError("no accepted step since the last trial")

    @_counting
    def try_step(self, system, x, t, dt):
        """Attempt one step of width ``dt`` from ``(x, t)``.

        Same contract as :meth:`ControlledStepper.try_step`; on
        acceptance the interpolant covers ``[t, result.t]``.
        """
        algebra, buffers, copy, kernels = scratch(self, x, 5)
        x_prev, ydiff, bspl, c4, c5 = buffers
        self._span = None
        copy(x_prev, x)
        result = self.controller.try_step(system, x, t, dt)
        if not result.accepted:
            return result

        k = self.controller._stages
        # Interpolation coefficients, Horner-ready:
        #   x(t_prev + theta*h) = x_prev + theta*ydiff
        #     + theta*(1-theta)*bspl + theta^2*(1-theta)*c4
        #     + theta^2*(1-theta)^2*c5
        kernels[2](ydiff, (1.0, -1.0), (x, x_prev))
        kernels[2](bspl, (dt, -1.0), (k[0], ydiff))
        kernels[3](c4, (1.0, -dt, -1.0), (ydiff, k[6], bspl))
        kernels[6](
            c5,
            (dt * _D1, dt * _D3, dt * _D4, dt * _D5, dt * _D6, dt * _D7),
            (k[0], k[2], k[3], k[4], k[5], k[6]),
        )
        self._span = (t, result.t, dt, algebra, kernels, buffers)
        return result

    def do_step(self, system):
        """Advance the state set by ``initialize`` by one accepted step
        of self-chosen width; returns ``(t_previous, t_current)``."""
        self._require_initialized()
        while True:
            result = self.try_step(system, self._x, self._t, self._dt)
            self._dt = result.dt
            if result.accepted:
                self._t = result.t
                return self.interval

    def calc_state(self, t, out=None):
        """Interpolated state at a time inside the last accepted step.

        ``t`` must satisfy ``t_previous <= t <= t_current``; there is
        no extrapolation.  Performs no system evaluations.
        """
        self._require_interval()
        lo, hi, h, algebra, kernels, (x_prev, ydiff, bspl, c4, c5) = self._span
        if not (min(lo, hi) <= t <= max(lo, hi)):
            raise ValueError(
                f"time {t!r} lies outside the last step interval [{lo!r}, {hi!r}]"
            )
        if out is None:
            out = algebra.clone_shape(x_prev)
        else:
            algebra._check_shapes(x_prev, out)
        theta = (t - lo) / h
        omt = 1.0 - theta
        kernels[5](
            out,
            (1.0, theta, theta * omt, theta * theta * omt, theta * theta * omt * omt),
            (x_prev, ydiff, bspl, c4, c5),
        )
        return out
