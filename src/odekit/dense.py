"""Dense output stepping: adapt freely, interpolate anywhere.

``DenseOutputDopri5`` is a :class:`ControlledStepper` over the
Dormand-Prince pair whose trial, on acceptance, also fits the quartic
continuous extension over the step just taken, so ``calc_state``
evaluates the trajectory inside that step at no system evaluations.
On a grid, :func:`integrate_const` hands each accepted step to a
sampler, which observes every grid point inside it at once.  The fit,
the interpolant and the sampler are generated code (see ``algebra``'s
module docstring).
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

from .algebra import UNROLL, _indent, _initial_copy, _make, _readonly, _update_lines, algebra_of, scratch
from .controlled import ControlledStepper
from .explicit import DormandPrince5
from .tableaus import DORMAND_PRINCE_54

# Quartic-term weights by stage, from the continuous extension
# published for the Dormand-Prince 5(4) pair.
_D = {0: -12715105075.0 / 11282082432.0, 2: 87487479700.0 / 32700410799.0,
      3: -10690763975.0 / 1880347072.0, 4: 701980252875.0 / 199316789632.0,
      5: -1453857185.0 / 822651844.0, 6: 69997945.0 / 29380423.0}
# The interpolant's states, after the controller's own in its scratch.
_P = ("p0", "p1", "p2", "p3", "p4")
# The interpolant at theta = (t - t_prev) / h, with omt = 1 - theta,
# from the state p0 at t_prev and the fitted p1..p4, Horner-ready.
_ROW = (["1.0", "theta", "theta * omt", "theta * theta * omt", "theta * theta * omt * omt"], _P)


@lru_cache(maxsize=None)  # n is None or at most UNROLL + 1
def _dense_code(n, paired=False):
    """The interpolation, generated once per length ``n`` as the
    explicit steppers' step is: ``((_P, fit), make)``.  ``fit(at)``'s
    lines copy the state ``x`` at the step's start into ``p0`` and fit
    ``p1``..``p4`` from it, the new state ``u``, the stage derivatives
    ``k0``..``k6`` (a ``paired`` user's pair's from its record) and the
    width ``dt``; the controller's generated trial runs them on acceptance.
    ``make(kernel, clone, readonly, p)`` binds the states ``p`` and
    returns ``at(theta, out)`` and ``sample(observer, lo, hi, h, t0,
    dt, j, t_end, limit)``, which observes each grid point ``t0 +
    j*dt`` (``j`` counting up) below ``t_end`` and up to ``limit``,
    interpolated on the step ``[lo, hi]`` of width ``h`` at that time
    or ``hi`` if earlier, and returns the next ``j``.  A snapshot is a
    tuple built inline from locals up to ``UNROLL`` elements, else
    ``at``'s fresh state made read-only."""
    update = partial(_update_lines, n)
    fit = lambda at: (*(["_, k1, k2, k3, k4, k5, k6 = trial[2].derivatives"] if paired else []),
                      *(["copy(p0, x)"] if n is None else update("p0", ["1.0"], ["x"], at)),
                      *update("p1", ["1.0", "-1.0"], ["u", "p0"], at),
                      *update("p2", ["dt", "-1.0"], ["k0", "p1"], at),
                      *update("p3", ["1.0", "-dt", "-1.0"], ["p1", "k6", "p2"], at),
                      *update("p4", [f"dt * {w!r}" for w in _D.values()], [f"k{j}" for j in _D], at))
    unpack, snap = [], ["s = readonly(at(theta, clone(p0)), True)"]
    if n and n <= UNROLL:
        unpack = [f"{''.join(f'{p}_{i}, ' for i in range(n))}= {p}" for p in _P]
        snap = ["omt = 1.0 - theta", *update(lambda i, v: f"s{i} = {v}", *_ROW, at="{}_{}".format),
                f"s = {''.join(f's{i}, ' for i in range(n))}"]
    return (_P, fit), _make(n is None, "clone, readonly, p", [
        f"{', '.join(_P)} = p",
        "def at(theta, out):",
        "    omt = 1.0 - theta",
        *_indent(update("out", *_ROW)),
        "    return out",
        "def sample(observer, lo, hi, h, t0, dt, j, t_end, limit):",
        *_indent(unpack),
        "    t = t0 + j * dt",
        "    while t < t_end and t <= limit:",
        "        theta = ((hi if hi < t else t) - lo) / h",
        *_indent(snap, 2),
        "        observer(s, t)",
        "        j += 1",
        "        t = t0 + j * dt",
        "    return j",
    ], "at, sample", f"dense n={n}")


class DenseOutputDopri5(ControlledStepper):
    """Adaptive Dormand-Prince stepping with free interpolation.

    Either call ``try_step`` on your own state, as with any controlled
    stepper, or ``initialize`` with the initial state, time, and a
    first width proposal and then call ``do_step``, which retries until
    a trial is accepted.  After each accepted trial ``calc_state``
    answers for any time inside the step just taken, at no system
    evaluations; the quartic interpolant reproduces both interval ends
    to rounding accuracy.  Any new trial discards it, so
    ``calc_state`` raises until the next acceptance.

    Each trial is :class:`ControlledStepper`'s with the fit run inside
    it on acceptance (see :func:`_dense_code`).  ``stepper`` takes only
    a pair with the Dormand-Prince tableau, whose stages the
    interpolant is fitted to: a pair of the user's hands over the
    stages after the first in its :class:`StageRecord`.

    Parameters
    ----------
    params : ControllerParams, optional
        Tolerances and limits of the error control, in ``params``.
    algebra : Algebra, optional
        State backend; defaults to the container of the state stepped.
    """

    def __init__(self, params=None, algebra=None):
        super().__init__(DormandPrince5(algebra), params)
        self._x = self._t = self._dt = None

    @ControlledStepper.stepper.setter
    def stepper(self, stepper):
        if getattr(stepper, "tableau", None) != DORMAND_PRINCE_54:
            raise TypeError(f"dense output needs the Dormand-Prince 5(4) pair, not {type(stepper).__name__}")
        ControlledStepper.stepper.fset(self, stepper)

    def _count(self, algebra, x):
        # The controller's states, then the interpolant's.
        return super()._count(algebra, x) + len(_P)

    def _bind(self, algebra, buffers, x):
        # The controller's binding, with the fit, on all the states
        # (the interpolant's follow its own), then the interpolation
        # code on the interpolant's: (at, sample).  Around a user's
        # pair the fit reads the stages after the first from its record.
        fit, make = _dense_code(algebra._fused_length(x), not self._plain())
        code = make(algebra._kernel, algebra.clone_shape, _readonly, buffers[len(buffers) - len(_P):])
        return (*super()._bind(algebra, buffers, x, fit), code)

    def initialize(self, x0, t0, dt0):
        """Set the start state, start time, and first width proposal:
        all finite, the state non-empty, the width positive."""
        if not (math.isfinite(t0) and 0.0 < dt0 < math.inf):
            raise ValueError("need a finite start time and a finite positive width proposal")
        self._x = _initial_copy(self, x0)[1]
        self._t, self._dt = float(t0), float(dt0)
        self.reset()

    @property
    def current_time(self):
        return self._t

    @property
    def current_state(self):
        """Copy of the state at ``current_time``."""
        self._require_initialized()
        algebra = algebra_of(self, self._x)
        out = algebra.clone_shape(self._x)
        algebra.copy(out, self._x)
        return out

    @property
    def interval(self):
        """``(t_previous, t_current)`` covered by the last accepted step."""
        self._require_interval()
        return self._span[:2]

    def _require_initialized(self):
        if self._x is None:
            raise RuntimeError("initialize() must be called first")

    def _require_interval(self):
        if self._span is None:
            raise RuntimeError("no accepted step since the last trial")

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
        t, (lo, hi, h) = float(t), self._span
        if not (min(lo, hi) <= t <= max(lo, hi)):
            raise ValueError(
                f"time {t!r} lies outside the last step interval [{lo!r}, {hi!r}]"
            )
        algebra, (x, *_), _, (*_, (at, _)) = self._scratch[1]
        if out is None:
            out = algebra.clone_shape(x)
        else:
            algebra._check_shapes(x, out)
        return at((t - lo) / h, out)

    def _sampler(self, x):
        # The generated grid sampler on states like x, which the walk
        # calls after each accepted step (see _dense_code).
        return scratch(self, x, self._count, self._bind)[3][-1][1]
