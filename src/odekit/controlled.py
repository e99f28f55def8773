"""Adaptive step size control around embedded-error steppers.

A trial step is accepted when its scaled error ratio is at most one;
otherwise the state and time stay untouched and the step width shrinks.
The next width follows the standard integral controller
``dt * SAFETY * ratio**(-1/(error_order+1))``, clamped to the growth
window ``[FAC_MIN, FAC_MAX]``.  A shipped pair's trial, in ``try_step``
and inline in the drivers' walk, comes from one generator here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial

from .algebra import Scratched, _indent, _make, _ratio_lines, _update_lines, scratch
from .errors import SolverError, StepSizeUnderflowError
from .explicit import EmbeddedRungeKutta, _stages, _update
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
    stage of the accepted trial, handed over by swapping two buffers,
    so a smooth run costs one extra system evaluation in total.  The
    state backend is ``algebra`` when given, else the stepper's, and
    it runs the whole trial.

    A shipped embedded pair (an ``EmbeddedRungeKutta`` that keeps its
    ``do_step_with_error``) runs each trial as code generated once per
    tableau and state length, into the controller's own stage states:
    inline on an unreplaced sequence backend, else the backend's kernel
    calls, with the same bits.  The drivers' walk runs that trial and
    the step size control inline, without ``try_step``, which is the
    manual path and the reference.  Any other stepper's trial goes
    through its ``do_step_with_error``, counted by a wrapper.

    Instances carry scratch states (the derivative cache among them),
    the rejection history, the last step when it was accepted and the
    count of system evaluations since the last ``reset``; do not share
    one instance between concurrent integrations.  Call ``reset`` after
    modifying the state externally; the drivers call it at the start of
    every run.
    """

    _caches = ("_scratch", "_dxdt", "_span")

    def __init__(self, stepper, params=None, algebra=None):
        if getattr(stepper, "error_order", None) is None:
            raise TypeError(f"{type(stepper).__name__} provides no embedded error estimate")
        self.stepper = stepper
        self.params = ControllerParams() if params is None else params
        self._algebra = algebra
        self.reset()

    @property
    def _fixed_algebra(self):
        # The given backend, else the current stepper's.
        return getattr(self._stepper, "_fixed_algebra", None) if self._algebra is None else self._algebra

    @property
    def stepper(self):
        """The embedded-error stepper; another one assigned binds anew."""
        return self._stepper

    @stepper.setter
    def stepper(self, stepper):
        self._stepper, self._scratch, self._span = stepper, None, None

    def reset(self):
        """Drop the cached derivative, the last step and the rejection
        flag, and zero the evaluation count."""
        self._dxdt = None  # the scratch buffer holding f(x, t), when valid
        self._span = None  # (t, t + dt, dt) of the last trial, if accepted
        self._rejected = False
        self._evaluations = 0

    def _plain(self):
        # Whether the stepper's trial is EmbeddedRungeKutta's, which
        # the generated trial runs from the stepper's tableau.
        return getattr(type(self._stepper), "do_step_with_error", None) is EmbeddedRungeKutta.do_step_with_error

    def _count(self, algebra, x):
        # The general path's derivative, trial state, error and two
        # ratio states; else the stages, the solution and, for kernel
        # calls, an error state and two ratio states.
        if not self._plain():
            return 5
        return self._stepper.stage_count + (4 if algebra._fused_length(x) is None else 1)

    def _bind(self, algebra, buffers, fit_code=((), ()), fit=None):
        # (trial, ratio, index of the last stage, (walk's trial, its
        # make's arguments but the states)); the general path's trial is
        # _general_step, with the first buffer as the last stage.  Dense
        # output hands in its fit as code for the generated trial and as
        # a function for the general path.  One backend runs it all.
        x = buffers[0]
        ratio, copy = algebra._error_kernel(buffers), algebra._copy_kernel(x)
        if not self._plain():
            return partial(self._general_step, copy, ratio, fit), ratio, 0, (None, ())
        tableau = self._stepper.tableau
        make, walk = _trial_code(tableau, algebra._fused_length(x), fit_code)
        args = (algebra._kernel, ratio, copy)
        return make(*args), ratio, tableau.stage_count - 1, (walk, args)

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
        self._span = None
        if not (math.isfinite(t) and math.isfinite(dt)) or dt == 0.0:
            raise ValueError("time and step width must be finite, the width nonzero")
        if t + dt == t:
            raise StepSizeUnderflowError(dt, t)
        _, k, _, (trial, ratio, last, *_) = scratch(self, x, self._count, self._bind)
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
        self._evaluations += last
        err = trial(system, x, t, dt, self.params.atol, self.params.rtol, k)
        if err <= 1.0:
            self._dxdt = k[last] if self._stepper.fsal else None
            self._span = t, t + dt, dt
            dt_next = next_step_size(dt, err, self._stepper.error_order, self._rejected)
            self._rejected = False
            return StepResult(True, t + dt, dt_next, err)
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

    def _inline(self, x):
        # The walk's inline trial on x and its make's arguments, the
        # scratch states last; none on a user's pair or an override.
        _, k, _, (_, _, _, (walk, args), *_) = scratch(self, x, self._count, self._bind)
        return (walk, (*args, k)) if walk else (None, (None,))

    try_step._inline = _inline

    def _general_step(self, copy, ratio, fit, system, x, t, dt, atol, rtol, buffers):
        # A trial of the user's from f(x, t) in the first buffer,
        # through do_step_with_error and counted by a wrapper: its
        # error ratio.  A dense stepper's fit reads the stage record.
        dxdt, xtrial, xerr = buffers[:3]
        stepper = self._stepper
        counter = EvaluationCounter(system)
        trial = stepper.do_step_with_error(counter, x, t, dt, out=xtrial, xerr=xerr, dxdt_in=dxdt)
        self._evaluations += counter.count
        err = ratio(xerr, x, dxdt, atol, rtol, dt)
        if err <= 1.0:
            if fit is not None:
                fit(x, xtrial, trial[2].derivatives, dt)
            copy(x, xtrial)
            if stepper.fsal:
                # The last stage derivative belongs to the state just
                # accepted; keep it as the next trial's first stage.
                copy(dxdt, trial[2].new_derivative)
        return err


@lru_cache(maxsize=64)
def _trial_code(tableau, n, fit=((), ())):
    """One controlled trial of an embedded pair, generated once per
    tableau value, length ``n`` and fit as ``explicit._step_code``'s
    step is: ``(make, walk)``.  ``make(kernel, ratio, copy)`` returns
    the manual trial ``trial(system, x, t, dt, atol, rtol, k)``: from
    ``f(x, t)`` in ``k0`` it writes the other stages, the solution
    ``u`` and a first-same-as-last stage at it, copies ``u`` into
    ``x`` when the error ratio is at most one, and returns the ratio.
    A dense stepper's ``fit``, ``(states, lines)`` (see
    ``dense._dense_code``), names the states after the trial's own in
    ``k`` and the lines run on acceptance before ``x`` takes ``u``.
    ``walk``, ``(kernels, head, step, accept, reject, tail)``, is
    ``try_step`` around the same lines for ``integrate._walk_code`` to
    run inline: the first-stage hand-over, the evaluation count, the
    accepted step and ``next_step_size`` with its constants as
    literals; only ``FAC_MAX`` bounds an accepted ratio's factor (at
    most one), only ``FAC_MIN`` a rejected one's.  With ``n`` None the
    error goes into the buffer after ``u`` and ``ratio`` and ``copy``
    run; inline, each element's ratio is taken from its error update's
    value, unstored, bit for bit with ``_sequence_ratio``, and so is
    each copy."""
    s, update = tableau.stage_count, partial(_update, tableau, n)
    kl, power = f"k{s - 1}", f"{SAFETY!r} * worst ** {-1.0 / (tableau.error_order + 1)!r}"
    body = [*_stages(tableau, update), *update("u", tableau.b, 1),
            *([f"system(u, {kl}, t + dt)"] if tableau.is_fsal else [])]
    states, fit = fit
    names = [*(f"k{j}" for j in range(s)), "u", *(["e", "_", "_"] if n is None else []), *states]
    unpack = f"{', '.join(names)} = k"
    if n is None:
        body += [*update("e", tableau.error_weights, 0), "worst = ratio(e, x, k0, atol, rtol, dt)"]
    else:
        body += _ratio_lines(lambda row: update(row, tableau.error_weights, 0), "k0")
    accept = [*fit, *(["copy(x, u)"] if n is None else _update_lines(n, "x", ["1.0"], ["u"]))]
    trial = ["def trial(system, x, t, dt, atol, rtol, k):",
             *_indent([unpack, *body, "if worst <= 1.0:", *_indent(accept), "return worst"])]
    head = [unpack, "params = stepper.params", "atol, rtol, dt_min = params.atol, params.rtol, params.dt_min",
            "dxdt, again, evaluations = stepper._dxdt, stepper._rejected, 0"]
    step = ["stepper._span = None", "if t + dt == t:", "    raise StepSizeUnderflowError(dt, t)",
            "if dxdt is not k0:", f"    if dxdt is {kl}:", f"        k0, {kl} = {kl}, k0",
            "    else:", "        evaluations += 1", "        system(x, k0, t)", "    dxdt = k0",
            f"evaluations += {s - 1}", *body]
    accept = [*accept, "stepper._span = t, t + dt, dt",
              f"factor = {FAC_MAX!r} if worst == 0.0 else {power}",
              f"if factor > {FAC_MAX!r}:", f"    factor = {FAC_MAX!r}",
              "if again and factor > 1.0:", "    factor = 1.0",
              f"dt_next, again, dxdt = dt * factor, False, {kl if tableau.is_fsal else None}"]
    reject = ["if not isfinite(worst) and not isfinite(ratio(k0, x, k0, 1.0, 0.0, 0.0)):",
              "    raise SolverError(f'the derivative at t={t!r} is not finite')",
              f"again, factor = True, {power}",
              f"dt_next = dt * (factor if factor > {FAC_MIN!r} else {FAC_MIN!r})",
              "if abs(dt_next) < dt_min:", "    raise StepSizeUnderflowError(dt_next, t, worst)"]
    tail = [f"k[0], k[{s - 1}] = k0, {kl}",
            "stepper._dxdt, stepper._rejected = dxdt, again", "stepper._evaluations += evaluations"]
    walk = (n is None, tuple(head), tuple(step), tuple(accept), tuple(reject), tuple(tail))
    return _make(n is None, "ratio, copy", trial, "trial"), walk
