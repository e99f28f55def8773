"""Adaptive step size control around embedded-error steppers.

A trial step is accepted when its scaled error ratio is at most one;
otherwise the state and time stay untouched and the step width shrinks.
The next width follows the standard integral controller
``dt * safety * ratio**(-1/(error_order+1))``, clamped to a bounded
growth window.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .algebra import algebra_for, scratch
from .errors import StepSizeUnderflowError


@dataclass(frozen=True)
class ControllerParams:
    """Tolerances and limits for adaptive stepping.

    ``atol`` and ``rtol`` weight the error test; ``safety`` shrinks the
    predicted width; ``fac_min`` and ``fac_max`` bound how fast the
    width may change in one adaptation; ``dt_min`` is the smallest
    usable width; ``max_rejections`` bounds consecutive rejected trials
    of one step.
    """

    atol: float = 1e-6
    rtol: float = 1e-6
    safety: float = 0.9
    fac_min: float = 0.2
    fac_max: float = 5.0
    dt_min: float = 1e-14
    max_rejections: int = 100

    def __post_init__(self):
        if self.atol < 0.0 or self.rtol < 0.0 or self.atol + self.rtol == 0.0:
            raise ValueError("tolerances must be nonnegative and not both zero")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must lie in (0, 1]")
        if not 0.0 < self.fac_min < 1.0 < self.fac_max:
            raise ValueError("need fac_min < 1 < fac_max with fac_min > 0")
        if self.dt_min <= 0.0:
            raise ValueError("dt_min must be positive")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be at least 1")


class StepResult(namedtuple("StepResult", ["accepted", "t", "dt", "error_ratio"])):
    """Outcome of ``try_step``: whether the trial was accepted, the time
    after the call, the width to use for the next trial, and the
    trial's error ratio."""


def error_ratio(xerr, x_old, dxdt_old, dt, params, algebra=None):
    """Scaled max-norm of an error estimate against the step tolerances.

    The scale for component ``i`` is
    ``atol + rtol * (|x_old_i| + |dt| * |dxdt_old_i|)``; a ratio of at
    most one means the step passes.
    """
    if algebra is None:
        algebra = algebra_for(x_old)
    return algebra.error_ratio_max(xerr, x_old, dxdt_old, params.atol, params.rtol, dt)


def _step_factor(err, error_order, params, was_rejected):
    if err == 0.0:
        factor = params.fac_max
    else:
        factor = params.safety * err ** (-1.0 / (error_order + 1))
        factor = min(params.fac_max, max(params.fac_min, factor))
    if was_rejected and factor > 1.0:
        factor = 1.0
    return factor


def next_step_size(dt, err, error_order, params, was_rejected=False):
    """Integral controller for the following step width.

    A zero error ratio grows the width by ``fac_max`` outright.  After
    a rejection the growth factor is additionally capped at one.
    Raises :class:`StepSizeUnderflowError` when the proposed width
    drops below ``dt_min``.
    """
    dt_new = dt * _step_factor(err, error_order, params, was_rejected)
    if abs(dt_new) < params.dt_min:
        raise StepSizeUnderflowError(dt_new)
    return dt_new


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
        algebra, (xtrial, xerr, dxdt) = scratch(self, x, 3)
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
            dt_next = dt * _step_factor(err, stepper.error_order, params, self._last_rejected)
            self._last_rejected = False
            self._rejections = 0
            return StepResult(True, t + dt, dt_next, err)

        # Rejected: x and t stay untouched, the cached derivative is
        # still the derivative at (x, t).
        self._rejections += 1
        self._last_rejected = True
        if self._rejections > params.max_rejections:
            raise StepSizeUnderflowError(dt, t, err)
        try:
            dt_next = next_step_size(dt, err, stepper.error_order, params, True)
        except StepSizeUnderflowError as exc:
            raise StepSizeUnderflowError(exc.dt, t, err) from None
        return StepResult(False, t, dt_next, err)
