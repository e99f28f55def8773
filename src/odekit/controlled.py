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
from functools import partial

from .algebra import Scratched, algebra_of, scratch
from .errors import SolverError, StepSizeUnderflowError
from .explicit import EmbeddedRungeKutta, _trial_code
from .integrate import EvaluationCounter, _counting

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


# A StepResult from a tuple of its fields, as ``StepResult._make``
# builds it, without the constructor's Python frame.
_step_result = partial(tuple.__new__, StepResult)


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


class ControlledStepper(Scratched):
    """Accept/reject wrapper around an embedded-error stepper.

    ``try_step`` writes the new state into ``x`` only on acceptance; a
    rejected trial leaves ``x`` and ``t`` untouched and only shrinks
    the step width.  The derivative at the current state, needed for
    the error scale, is cached between trials and read as the first
    stage.  For steppers with a first-same-as-last stage it is the last
    stage of the accepted trial, so a smooth run costs one extra system
    evaluation in total.  The state backend is ``algebra`` when given,
    else the stepper's.

    A shipped embedded pair (an ``EmbeddedRungeKutta`` that keeps its
    ``do_step_with_error``) runs each trial as code generated once per
    tableau and state length, on every backend: stages, solution, last
    stage, error ratio and, on acceptance, the copy into ``x`` in one
    call, into the controller's own stage states; the last stage is
    handed over by swapping two buffers.  On an unreplaced sequence
    backend every update is inline and no error estimate is stored;
    on numpy, and wherever ``scale_sum``, ``copy`` or
    ``error_ratio_max`` is replaced, the updates are the stepper
    backend's kernel calls and the error ratio and the copy are the
    controller's, with the same bits.  Any other stepper's trial goes
    through its ``do_step_with_error``, counted by a wrapper.

    Instances carry scratch states (the derivative cache among them),
    the rejection history and the count of system evaluations since
    the last ``reset``; do not share one instance between concurrent
    integrations.  Call ``reset`` after modifying the state
    externally; the drivers call it at the start of every run.
    """

    _caches = ("_scratch", "_dxdt", "_stages")

    def __init__(self, stepper, params=None, algebra=None):
        if getattr(stepper, "error_order", None) is None:
            raise TypeError(f"{type(stepper).__name__} provides no embedded error estimate")
        self.stepper = stepper
        self.params = ControllerParams() if params is None else params
        self._fixed_algebra = getattr(stepper, "_fixed_algebra", None) if algebra is None else algebra
        self.reset()

    @property
    def stepper(self):
        """The embedded-error stepper; another one assigned binds anew."""
        return self._stepper

    @stepper.setter
    def stepper(self, stepper):
        self._stepper, self._scratch = stepper, None

    def reset(self):
        """Drop the cached derivative and the rejection flag, and zero
        the evaluation count."""
        self._dxdt = None  # the scratch buffer holding f(x, t), when valid
        self._stages = None  # the stage derivatives of the last accepted trial
        self._rejected = False
        self._evaluations = 0

    def _plain(self):
        # Whether the stepper's trial is EmbeddedRungeKutta's, which
        # the generated trial runs from the stepper's tableau.
        return getattr(type(self._stepper), "do_step_with_error", None) is EmbeddedRungeKutta.do_step_with_error

    def _trial_length(self, algebra, x):
        # The length the trial on x is generated for, where the
        # stepper's backend agrees; None: kernel calls.
        n = algebra._fused_length(x)
        return n if algebra_of(self._stepper, x)._fused_length(x) == n else None

    def _count(self, algebra, x):
        # The general path's trial state, error, derivative and two ratio
        # states; else the stages, the solution and, for kernel calls,
        # an error state and two ratio states.
        if not self._plain():
            return 5
        return self._stepper.stage_count + (4 if self._trial_length(algebra, x) is None else 1)

    def _bind(self, algebra, buffers):
        # (trial, ratio, index of the last stage); no trial: the general
        # path.  The stepper's backend runs the trial's updates.
        ratio, stepper, x = algebra._error_kernel(buffers), self._stepper, buffers[0]
        if not self._plain():
            return None, ratio, None
        make = _trial_code(stepper.tableau, self._trial_length(algebra, x))
        trial = make(algebra_of(stepper, x)._kernel, ratio, algebra._copy_kernel(x))
        return trial, ratio, stepper.stage_count - 1

    @_counting
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
        # scratch()'s cache test for a sequence state, inline: it opens
        # every trial.  Any other state takes the call.
        cached = self._scratch
        if cached is None or cached[0] != (type(x), len(x)):
            scratch(self, x, self._count, self._bind)
            cached = self._scratch
        _, k, copy, (trial, ratio, last) = cached[1]
        if trial is None:
            return self._general_step(system, x, t, dt, k, copy, ratio)
        dxdt = k[0]
        if self._dxdt is not dxdt:
            if self._dxdt is k[last]:
                # The last accepted trial's last stage belongs to x:
                # swap it in as the first stage.
                k[0], k[last] = k[last], dxdt
                dxdt = k[0]
            else:
                self._evaluations += 1
                system(x, dxdt, t)
            self._dxdt = dxdt
        params = self.params
        self._evaluations += last
        err = trial(system, x, t, dt, params.atol, params.rtol, k)
        if err <= 1.0:
            self._stages = k
            self._dxdt = k[last] if self._stepper.fsal else None
            dt_next = next_step_size(dt, err, self._stepper.error_order, self._rejected)
            self._rejected = False
            return _step_result((True, t + dt, dt_next, err))
        return self._reject(x, t, dt, err, dxdt, ratio)

    def _general_step(self, system, x, t, dt, buffers, copy, ratio):
        xtrial, xerr, dxdt = buffers[:3]
        stepper = self._stepper
        if self._dxdt is not dxdt:
            self._evaluations += 1
            system(x, dxdt, t)
            self._dxdt = dxdt
        # The trial is the user's: a wrapper counts it.
        counter = EvaluationCounter(system)
        trial = stepper.do_step_with_error(counter, x, t, dt, out=xtrial, xerr=xerr, dxdt_in=dxdt)
        self._evaluations += counter.count
        err = ratio(xerr, x, dxdt, self.params.atol, self.params.rtol, dt)
        if err <= 1.0:
            copy(x, xtrial)
            if stepper.fsal:
                # The last stage derivative belongs to the state just
                # accepted; keep it as the next trial's first stage.
                copy(dxdt, trial[2].new_derivative)
                self._stages = trial[2].derivatives
            else:
                self._dxdt = None
            dt_next = next_step_size(dt, err, stepper.error_order, self._rejected)
            self._rejected = False
            return StepResult(True, t + dt, dt_next, err)
        return self._reject(x, t, dt, err, dxdt, ratio)

    def _reject(self, x, t, dt, err, dxdt, ratio):
        # x and t stay untouched, the cached derivative is still the
        # derivative at (x, t).  When it is not finite, no smaller
        # width can help.
        if not math.isfinite(err) and not math.isfinite(ratio(dxdt, x, dxdt, 1.0, 0.0, 0.0)):
            raise SolverError(f"the derivative at t={t!r} is not finite")
        self._rejected = True
        dt_next = next_step_size(dt, err, self._stepper.error_order, True)
        if abs(dt_next) < self.params.dt_min:
            raise StepSizeUnderflowError(dt_next, t, err)
        return StepResult(False, t, dt_next, err)
