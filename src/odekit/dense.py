"""Dense output stepping: adapt freely, interpolate anywhere.

``DenseOutputDopri5`` is a controlled stepper: ``try_step`` has the
accept/reject contract of :class:`ControlledStepper`, and every
accepted trial also fits the quartic continuous extension of the
Dormand-Prince pair over the step just taken.  ``calc_state`` then
evaluates the trajectory at any time inside that step without further
system evaluations.  The drivers run it on the same controlled walk as
any other controlled stepper; on a grid, :func:`integrate_const` hands
each accepted step to a sampler generated with the fit and the
interpolant, which observes every grid point inside the step at once.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

from .algebra import UNROLL, Scratched, _indent, _initial_copy, _make, _update_lines, scratch
from .controlled import ControlledStepper
from .explicit import DormandPrince5
from .integrate import _counting, _readonly

# Quartic-term weights by stage, from the continuous extension
# published for the Dormand-Prince 5(4) pair.
_D = {0: -12715105075.0 / 11282082432.0, 2: 87487479700.0 / 32700410799.0,
      3: -10690763975.0 / 1880347072.0, 4: 701980252875.0 / 199316789632.0,
      5: -1453857185.0 / 822651844.0, 6: 69997945.0 / 29380423.0}
# The interpolant at theta = (t - t_prev) / h, with omt = 1 - theta,
# from the state p0 at t_prev and the fitted p1..p4, Horner-ready.
_ROW = (["1.0", "theta", "theta * omt", "theta * theta * omt", "theta * theta * omt * omt"],
        ["p0", "p1", "p2", "p3", "p4"])


@lru_cache(maxsize=None)  # n is None or at most UNROLL + 1
def _dense_code(n):
    """The interpolation, generated once per length ``n`` as the
    explicit steppers' step is: ``make(kernel, clone, readonly, p)``
    binds the buffers ``p``, ``p[0]`` the state at the step's start,
    and returns ``fit(x, k, dt)``, fitting ``p[1:]`` from the new state
    and the stage derivatives, ``at(theta, out)``, and
    ``sample(observer, lo, hi, h, t0, dt, j, t_end, limit)``, which
    observes each grid point ``t0 + j*dt`` (``j`` counting up) below
    ``t_end`` and up to ``limit``, interpolated on the step
    ``[lo, hi]`` of width ``h`` at that time or ``hi`` if earlier, and
    returns the next ``j``.  A snapshot is a tuple built inline, or a
    fresh copy filled by the 5-term kernel and made read-only."""
    update = partial(_update_lines, n)
    if n is None:
        snap = ["s = clone(p0)", *update("s", *_ROW), "s = readonly(s, True)"]
    elif n <= UNROLL:
        snap = [*update(lambda i, v: f"s{i} = {v}", *_ROW), f"s = {''.join(f's{i}, ' for i in range(n))}"]
    else:
        snap = ["s = []", *update(lambda i, v: f"s.append({v})", *_ROW), "s = tuple(s)"]
    return _make(n is None, "clone, readonly, p", [
        "p0, p1, p2, p3, p4 = p",
        "def fit(x, k, dt):",
        "    k0, _, k2, k3, k4, k5, k6 = k[:7]",
        *_indent(update("p1", ["1.0", "-1.0"], ["x", "p0"])),
        *_indent(update("p2", ["dt", "-1.0"], ["k0", "p1"])),
        *_indent(update("p3", ["1.0", "-dt", "-1.0"], ["p1", "k6", "p2"])),
        *_indent(update("p4", [f"dt * {w!r}" for w in _D.values()], [f"k{j}" for j in _D])),
        "def at(theta, out):",
        "    omt = 1.0 - theta",
        *_indent(update("out", *_ROW)),
        "    return out",
        "def sample(observer, lo, hi, h, t0, dt, j, t_end, limit):",
        "    t = t0 + j * dt",
        "    while t < t_end and t <= limit:",
        "        theta = ((hi if hi < t else t) - lo) / h",
        "        omt = 1.0 - theta",
        *_indent(snap, 2),
        "        observer(s, t)",
        "        j += 1",
        "        t = t0 + j * dt",
        "    return j",
    ], "fit, at, sample")


def _bind(algebra, p):
    # The interpolation code for the state's length, bound to p.
    return _dense_code(algebra._fused_length(p[0]))(algebra._kernel, algebra.clone_shape, _readonly, p)


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

    Each trial is the ``controller``'s (see :class:`ControlledStepper`),
    and the drivers' walk calls ``try_step``.  The state is copied
    before each trial, and the fit reads the accepted trial's stage
    derivatives where the trial left them.  The fit, ``calc_state`` and
    the grid sampler run code generated for the state's length (see
    :func:`_dense_code`).

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
        # (t_prev, t_cur, width, at, sample) of the interpolant
        self._span = None

    def initialize(self, x0, t0, dt0):
        """Set the start state, start time, and first width proposal:
        all finite, the state non-empty, the width positive."""
        if not (math.isfinite(t0) and 0.0 < dt0 < math.inf):
            raise ValueError("need a finite start time and a finite positive width proposal")
        self._algebra, self._x = _initial_copy(self, x0)
        self._t, self._dt = float(t0), float(dt0)
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
        _, (x_prev, *_), copy, (fit, at, sample) = scratch(self, x, 5, _bind)
        self._span = None
        copy(x_prev, x)
        result = self.controller.try_step(system, x, t, dt)
        if result.accepted:
            fit(x, self.controller._stages, dt)
            self._span = (t, result.t, dt, at, sample)
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
        lo, hi, h, at, _ = self._span
        if not (min(lo, hi) <= t <= max(lo, hi)):
            raise ValueError(
                f"time {t!r} lies outside the last step interval [{lo!r}, {hi!r}]"
            )
        algebra, (x_prev, *_), _, _ = self._scratch[1]
        if out is None:
            out = algebra.clone_shape(x_prev)
        else:
            algebra._check_shapes(x_prev, out)
        return at((t - lo) / h, out)

    def _sample(self, observer, t0, dt, j, t_end, limit):
        # Observe the grid points t0 + j*dt, t0 + (j+1)*dt, ... below
        # t_end and up to limit on the last accepted step; the next j.
        lo, hi, h, _, sample = self._span
        return sample(observer, lo, hi, h, t0, dt, j, t_end, limit)
