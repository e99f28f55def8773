"""Dense output stepping: adapt freely, interpolate anywhere.

``DenseOutputDopri5`` is a :class:`ControlledStepper` whose trial, on
acceptance, also fits the cubic Hermite interpolant (plus its tableau's
quartic term, if any) over the step just taken, so ``calc_state``
evaluates the trajectory inside that step at no system evaluations.
On a grid, :func:`integrate_const` hands each accepted step to a
sampler, which observes every grid point inside it at once.  The fit,
the interpolant and the sampler are generated code (see ``algebra``'s
module docstring).
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

from .algebra import UNROLL, _bound, _each, _indent, _initial_copy, _lazy_make, _readonly, _update_lines
from .algebra import algebra_of
from .controlled import ControlledStepper
from .explicit import DormandPrince5, _update

# The interpolant's states, after the controller's own in its scratch.
_P = ("p0", "p1", "p2", "p3", "p4")
# The interpolant at theta = (t - t_prev) / h: the state p0 at t_prev and the fitted p1..p4 weighted by the
# basis terms _BASIS binds, not in Horner form; c4 = c3 * omt is theta * theta * omt * omt, taken left to right.
_BASIS = ["omt = 1.0 - theta", "c2 = theta * omt", "c3 = theta * theta * omt", "c4 = c3 * omt"]
_ROW = (["1.0", "theta", "c2", "c3", "c4"], _P)


@lru_cache(maxsize=64)
def _dense_code(tableau, n, paired=False):
    """The interpolation, generated once per tableau and length ``n`` as the
    explicit steppers' step is: ``((_P, fit), make)``.  ``fit(at)``'s
    lines copy the state ``x`` at the step's start into ``p0`` and fit
    ``p1``..``p4`` from it, the new state ``u``, the stage derivatives
    ``k0``, ``k1``, ... (a ``paired`` user's pair's from its record), the
    last at ``u``, and the width ``dt``, ``p4`` by ``tableau``'s dense
    weights, else left zero; the controller's generated trial runs them
    on acceptance.
    ``make()``, compiled on its first call only, binds the states ``p``:
    ``make()(kernel, clone, readonly, p)`` returns the interpolant
    ``at(theta, out)`` and ``sample(observer, lo, hi, h, t0, dt, j, t_end, limit)``,
    which observes each grid point ``t0 + j*dt`` (``j`` counting up)
    below ``t_end`` and up to ``limit``, interpolated on the step ``[lo,
    hi]`` of width ``h`` at that time or ``hi`` if earlier, and returns
    the next ``j``.  A snapshot is one tuple expression on locals up
    to ``UNROLL`` elements, else ``at``'s fresh state made read-only."""
    update, s, w = partial(_update_lines, n), tableau.stage_count, tableau.dense_weights
    fit = lambda at: (*([f"_, {', '.join(f'k{j}' for j in range(1, s))} = trial[2].derivatives"] if paired else []),
                      *(["copy(p0, x)"] if n is None else _each(n, "len(x)", lambda i: f"p0[{i}] = {at('x', i)}")),
                      *update("p1", ["1.0", "-1.0"], ["u", "x"], at),
                      *update("p2", ["dt", "-1.0"], ["k0", "p1"], at),
                      *update("p3", ["1.0", "-dt", "-1.0"], ["p1", f"k{s - 1}", "p2"], at),
                      *(_update(n, "p4", w, 0, at) if any(w or ()) else ()))
    unpack, snap = [], ["s = readonly(at(theta, clone(p0)), True)"]
    if n and n <= UNROLL:
        unpack = [f"{''.join(f'{p}_{i}, ' for i in range(n))}= {p}" for p in _P]
        snap = [*_BASIS, "s = (", *update(lambda i, v: f"    {v},", *_ROW, at="{}_{}".format), ")"]
    return (_P, fit), _lazy_make("clone, readonly, p", [
        f"{', '.join(_P)} = p",
        "def at(theta, out):", *_indent([*_BASIS, *update("out", *_ROW), "return out"]),
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
    evaluations; the interpolant reproduces both interval ends to
    rounding accuracy.  Any new trial discards it, so ``calc_state``
    raises until the next acceptance.

    Each trial is :class:`ControlledStepper`'s with the fit run inside
    it on acceptance (see :func:`_dense_code`).  ``stepper`` takes any
    first-same-as-last pair with a tableau, quartic with its dense
    weights and cubic Hermite without: a pair of the user's hands over
    the stages after the first in its :class:`StageRecord`.

    Parameters
    ----------
    params : ControllerParams, optional
        Tolerances and limits of the error control, in ``params``.
    algebra : Algebra, optional
        State backend; defaults to the container of the state stepped.
    """

    _caches = (*ControlledStepper._caches, "_span")  # _span: (t, t_new, dt) of the last trial, if accepted

    def __init__(self, params=None, algebra=None):
        super().__init__(DormandPrince5(algebra), params)
        self._x = self._t = self._dt = None

    @ControlledStepper.stepper.setter
    def stepper(self, stepper):
        if not getattr(getattr(stepper, "tableau", None), "is_fsal", False):
            raise TypeError(f"dense output needs a first-same-as-last tableau, not {type(stepper).__name__}")
        ControlledStepper.stepper.fset(self, stepper)

    def _count(self, algebra, x):
        # The controller's states, then the interpolant's.
        return super()._count(algebra, x) + len(_P)

    def _bind(self, algebra, buffers, x):
        # The controller's Bound with the fit, on all the states (the interpolant's last), and calc_state's at and
        # the grid sampler on the interpolant's, compiled on first call.  A user's pair's fit reads its record.
        fit, make = _dense_code(self._stepper.tableau, algebra._fused_length(x), not self._plain())
        p = buffers[len(buffers) - len(_P):]
        return super()._bind(algebra, buffers, x, fit)._replace(
            dense=_bound(make, algebra._kernel, algebra.clone_shape, _readonly, p))

    def initialize(self, x0, t0, dt0):
        """Set the start state, start time, and first width proposal:
        all finite, the state non-empty, the width positive."""
        if not (math.isfinite(t0) and 0.0 < dt0 < math.inf):
            raise ValueError("need a finite start time and a finite positive width proposal")
        self._x = _initial_copy(self, x0)
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
        algebra._copy_kernel(out)(out, self._x)  # the copy a stepper binds: a replaced copy or scale_sum still runs
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
        algebra, (x, *_), _, bound = self._scratch[1]
        if out is None:
            out = algebra.clone_shape(x)
        else:
            algebra._check_shapes(x, out)
        return bound.dense()[0]((t - lo) / h, out)
