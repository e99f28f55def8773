"""Adaptive step size control around embedded-error steppers.

A trial step is accepted when its scaled error ratio is at most one;
otherwise the state and time stay untouched and the step width shrinks.
The next width follows the standard integral controller
``dt * SAFETY * ratio**(-1/(error_order+1))``, clamped to the growth
window ``[FAC_MIN, FAC_MAX]``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .algebra import scratch
from .errors import StepSizeUnderflowError

SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 5.0


@dataclass(frozen=True)
class ControllerParams:
    """Tolerances and limits for adaptive stepping.

    ``atol`` and ``rtol`` weight the error test; ``dt_min`` is the
    smallest usable width; ``max_rejections`` bounds consecutive
    rejected trials of one step.  Every field rejects NaN.
    """

    atol: float = 1e-6
    rtol: float = 1e-6
    dt_min: float = 1e-14
    max_rejections: int = 100

    def __post_init__(self):
        if not (self.atol >= 0.0 and self.rtol >= 0.0 and self.atol + self.rtol > 0.0):
            raise ValueError("tolerances must be nonnegative numbers, not both zero")
        if not self.dt_min > 0.0:
            raise ValueError("dt_min must be positive")
        if not self.max_rejections >= 1:
            raise ValueError("max_rejections must be at least 1")


class StepResult(namedtuple("StepResult", ["accepted", "t", "dt", "error_ratio"])):
    """Outcome of ``try_step``: whether the trial was accepted, the time
    after the call, the width to use for the next trial, and the
    trial's error ratio."""


def next_step_size(dt, err, error_order, was_rejected=False):
    """Integral controller for the following step width.

    Returns ``dt`` times a factor in ``[FAC_MIN, FAC_MAX]``: a zero
    error ratio grows the width by ``FAC_MAX`` outright, a NaN ratio
    shrinks it by ``FAC_MIN``, and after a rejection the factor is
    capped at one.  Never raises.
    """
    if err == 0.0:
        factor = FAC_MAX
    else:
        factor = SAFETY * err ** (-1.0 / (error_order + 1))
        factor = min(FAC_MAX, max(FAC_MIN, factor))
    if was_rejected and factor > 1.0:
        factor = 1.0
    return dt * factor


class ControlledStepper:
    """Accept/reject wrapper around an embedded-error stepper.

    ``try_step`` writes the new state into ``x`` only on acceptance; a
    rejected trial leaves ``x`` and ``t`` untouched and only shrinks
    the step width.  The derivative at the current state, needed for
    the error scale, is cached between trials and handed to the stepper
    as its first stage.  For steppers with a first-same-as-last stage
    it is refreshed from the last stage on acceptance, so a smooth run
    costs one extra system evaluation in total.

    Instances carry trial scratch and the derivative cache; do not
    share one instance between concurrent integrations.  Call
    ``reset`` after modifying the state externally; the drivers call
    it at the start of every run.
    """

    def __init__(self, stepper, params=None, algebra=None):
        if getattr(stepper, "error_order", None) is None:
            raise TypeError(f"{type(stepper).__name__} provides no embedded error estimate")
        self.stepper = stepper
        self.params = ControllerParams() if params is None else params
        self._fixed_algebra = algebra
        self._scratch = None
        self._dxdt = None  # the scratch buffer holding f(x, t), when valid
        self._last_rejected = False
        self._rejections = 0
        self.last_stage_record = None

    def reset(self):
        """Drop the cached derivative and rejection history."""
        self._dxdt = None
        self._last_rejected = False
        self._rejections = 0
        self.last_stage_record = None

    def try_step(self, system, x, t, dt):
        """Attempt one step of width ``dt`` from ``(x, t)``.

        Returns a :class:`StepResult` ``(accepted, t, dt, error_ratio)``.
        On acceptance ``x`` holds the new state, ``result.t`` the
        advanced time and ``result.dt`` the width proposed for the next
        step; on rejection ``x`` and the time are unchanged and
        ``result.dt`` carries the reduced width to retry with.  An
        accepted step never raises.  A rejection raises
        :class:`StepSizeUnderflowError` once a step has been rejected
        more than ``max_rejections`` times in a row or the width falls
        below ``dt_min``.
        """
        if dt == 0.0:
            raise ValueError("step width must be nonzero")
        algebra, (xtrial, xerr, dxdt), _ = scratch(self, x, 3)
        params = self.params
        stepper = self.stepper

        if self._dxdt is not dxdt:
            system(x, dxdt, t)
            self._dxdt = dxdt

        trial = stepper.do_step_with_error(
            system, x, t, dt, out=xtrial, xerr=xerr, dxdt_in=dxdt
        )
        record = self.last_stage_record = trial[2] if stepper.fsal else None

        err = algebra.error_ratio_max(xerr, x, dxdt, params.atol, params.rtol, dt)

        if err <= 1.0:
            algebra.copy(x, xtrial)
            if record is not None:
                # The last stage derivative belongs to the state just
                # accepted; keep it as the next trial's first stage.
                algebra.copy(dxdt, record.new_derivative)
            else:
                self._dxdt = None
            dt_next = next_step_size(dt, err, stepper.error_order, self._last_rejected)
            self._last_rejected = False
            self._rejections = 0
            return StepResult(True, t + dt, dt_next, err)

        # Rejected: x and t stay untouched, the cached derivative is
        # still the derivative at (x, t).
        self._rejections += 1
        self._last_rejected = True
        if self._rejections > params.max_rejections:
            raise StepSizeUnderflowError(dt, t, err)
        dt_next = next_step_size(dt, err, stepper.error_order, True)
        if abs(dt_next) < params.dt_min:
            raise StepSizeUnderflowError(dt_next, t, err)
        return StepResult(False, t, dt_next, err)
