"""Adaptive step size control around embedded-error steppers.

A trial step is accepted when its scaled error ratio is at most one;
otherwise the state and time stay untouched and the step width shrinks.
The next width follows the standard integral controller
``dt * SAFETY * ratio**(-1/(error_order+1))``, clamped to the growth
window ``[FAC_MIN, FAC_MAX]``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .algebra import Algebra, scratch
from .errors import SolverError, StepSizeUnderflowError

SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 5.0


@dataclass(frozen=True)
class ControllerParams:
    """Tolerances and the width floor of adaptive stepping.

    ``atol`` and ``rtol`` weight the error test; ``dt_min``, the
    smallest usable width, ends every chain of rejections.  Every field
    rejects NaN, and the tolerances reject infinity.
    """

    atol: float = 1e-6
    rtol: float = 1e-6
    dt_min: float = 1e-14

    def __post_init__(self):
        if not (0.0 <= self.atol < math.inf and 0.0 <= self.rtol < math.inf
                and self.atol + self.rtol > 0.0):
            raise ValueError("tolerances must be finite nonnegative numbers, not both zero")
        if not self.dt_min > 0.0:
            raise ValueError("dt_min must be positive")


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
    costs one extra system evaluation in total.  The state backend is
    ``algebra`` when given, else the stepper's.

    Instances carry five scratch states, among them the derivative
    cache and two states the error ratio is computed in, and the
    rejection history; do not share one instance between concurrent
    integrations.  Call ``reset`` after modifying the state externally;
    the drivers call it at the start of every run.
    """

    def __init__(self, stepper, params=None, algebra=None):
        if getattr(stepper, "error_order", None) is None:
            raise TypeError(f"{type(stepper).__name__} provides no embedded error estimate")
        self.stepper = stepper
        self.params = ControllerParams() if params is None else params
        self._fixed_algebra = getattr(stepper, "_fixed_algebra", None) if algebra is None else algebra
        self._scratch = None
        self._dxdt = None  # the scratch buffer holding f(x, t), when valid
        self._rejected = False
        self.last_stage_record = None

    def reset(self):
        """Drop the cached derivative and the rejection flag."""
        self._dxdt = None
        self._rejected = False
        self.last_stage_record = None

    def try_step(self, system, x, t, dt):
        """Attempt one step of width ``dt`` from ``(x, t)``.

        Returns a :class:`StepResult` ``(accepted, t, dt, error_ratio)``.
        On acceptance ``x`` holds the new state, ``result.t`` the
        advanced time and ``result.dt`` the width proposed for the next
        step; on rejection ``x`` and the time are unchanged and
        ``result.dt`` carries the reduced width to retry with.  An
        accepted step never raises.  A rejection raises
        :class:`StepSizeUnderflowError` once the width falls below
        ``dt_min``, and :class:`SolverError` at once when the error
        ratio and the derivative at ``(x, t)`` are not finite.  A
        non-finite ``t`` or ``dt``, or ``dt == 0``, raises
        :class:`ValueError`, and a width too small to move ``t``
        (``t + dt == t``) raises :class:`StepSizeUnderflowError`, both
        before any evaluation.
        """
        if not (math.isfinite(t) and math.isfinite(dt)) or dt == 0.0:
            raise ValueError("time and step width must be finite, the width nonzero")
        if t + dt == t:
            raise StepSizeUnderflowError(dt, t)
        _, (xtrial, xerr, dxdt, _, _), copy, ratio = scratch(self, x, 5, Algebra._error_kernel)
        params = self.params
        stepper = self.stepper

        if self._dxdt is not dxdt:
            system(x, dxdt, t)
            self._dxdt = dxdt

        trial = stepper.do_step_with_error(
            system, x, t, dt, out=xtrial, xerr=xerr, dxdt_in=dxdt
        )
        record = self.last_stage_record = trial[2] if stepper.fsal else None

        err = ratio(xerr, x, dxdt, params.atol, params.rtol, dt)

        if err <= 1.0:
            copy(x, xtrial)
            if record is not None:
                # The last stage derivative belongs to the state just
                # accepted; keep it as the next trial's first stage.
                copy(dxdt, record.new_derivative)
            else:
                self._dxdt = None
            dt_next = next_step_size(dt, err, stepper.error_order, self._rejected)
            self._rejected = False
            return StepResult(True, t + dt, dt_next, err)

        # Rejected: x and t stay untouched, the cached derivative is
        # still the derivative at (x, t).  When it is not finite, no
        # smaller width can help.
        if not math.isfinite(err) and not math.isfinite(ratio(dxdt, x, dxdt, 1.0, 0.0, 0.0)):
            raise SolverError(f"the derivative at t={t!r} is not finite")
        self._rejected = True
        dt_next = next_step_size(dt, err, stepper.error_order, True)
        if abs(dt_next) < params.dt_min:
            raise StepSizeUnderflowError(dt_next, t, err)
        return StepResult(False, t, dt_next, err)
