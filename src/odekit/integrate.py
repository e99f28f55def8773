"""Integration drivers: observed on a fixed grid or at every step.

Drivers copy the initial state, dispatch on what the stepper can do,
and call the observer with read-only snapshots; observers never see a
rejected trial.  Controlled and dense-output steppers run on one
generated walk: every :class:`ControlledStepper`'s trial and step
size control inline, dense output's fit among them, and any other
stepper's ``try_step`` called; fixed steps on one generated loop, a
shipped explicit stepper's step inline and any other's ``do_step``
called (see ``algebra``'s module docstring for which code runs).  Every
run returns an :class:`IntegrationReport` with the final state and the
step and evaluation counters.

The run counts the system evaluations, each in the line before the
call, so a call that raises is counted too: the inline code in a local,
the calling forms through an :class:`EvaluationCounter` around the
system.  Steppers keep no count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import _indent, _initial_copy, _make
from .errors import SolverError, StepSizeUnderflowError

# Grid times within this fraction of a width of the interval end are
# treated as the end itself.
GRID_SNAP = 1e-10


@dataclass
class IntegrationReport:
    """Counters and final values of one driver run."""

    final_state: object
    final_time: float
    steps_accepted: int
    steps_rejected: int
    system_evaluations: int

    @property
    def steps_attempted(self):
        return self.steps_accepted + self.steps_rejected


class EvaluationCounter:
    """Counts calls to a wrapped ``(x, dxdt, t)`` system callable.

    The drivers wrap the system in one wherever they call a stepping
    method; wrap yours to count the calls of manual ``do_step`` or
    ``try_step`` steps, which keep no count.  The wrapped system's
    ``jacobian``, if any, is carried along uncounted, so steppers that
    need it find it on the counter.
    """

    def __init__(self, system):
        self.system = system
        self.jacobian = getattr(system, "jacobian", None)
        self.count = 0

    def __call__(self, x, dxdt, t):
        self.count += 1
        return self.system(x, dxdt, t)

    def reset(self):
        self.count = 0


def _readonly(x, fresh=False):
    """Read-only snapshot of ``x``: a tuple, or a read-only numpy copy;
    a ``fresh`` numpy state, one no other code holds, is not copied."""
    if not isinstance(x, np.ndarray):
        return tuple(x)
    if not fresh:
        x = x.copy()
    x.flags.writeable = False
    return x


def _grid(t0, t1, dt):
    """Number of whole widths in the interval and the clamped end time;
    a run that fits no whole width ends at ``t0``."""
    count = int(np.floor((t1 - t0) / dt + GRID_SNAP))
    t_last = t0 + count * dt
    if count and abs(t_last - t1) <= GRID_SNAP * dt:
        t_last = t1
    return count, t_last


def _start(stepper, x0, t0, t1, dt, observer):
    """Check the run's bounds, then return a floating working copy of
    the initial state, made by the stepper's backend, checked before
    any evaluation, and observed at ``t0``, and the bounds as floats."""
    try:
        finite = all(map(math.isfinite, (t0, t1, dt))) and math.isfinite(float(t1) - float(t0))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError("start time, end time, their distance and the width must be finite")
    t0, t1, dt = float(t0), float(t1), float(dt)
    if t1 <= t0:
        raise ValueError("end time must exceed start time")
    if dt <= 0.0:
        raise ValueError("step or grid width must be positive")
    x = _initial_copy(stepper, x0)[1]
    if observer is not None:
        observer(_readonly(x), t0)
    return x, t0, t1, dt


def _controlled_walk(stepper, system, x, t0, targets, dt, observer, observe_steps, sample=None):
    """Adapt freely from ``t0`` and land exactly on each of ``targets``.

    The observer sees every accepted step when ``observe_steps`` is
    set, otherwise each target once it is reached.  A ``sample`` is
    ``(sample, t0, dt, t_end, reach)``: after each accepted step, which
    ends at ``t``, ``j = sample(observer, t0, dt, j, t_end, t + reach)``
    observes grid points from ``t0 + j*dt`` on, ``j`` first 1.  The
    stepper is reset first, so no cache of an earlier run leaks in.
    Any :class:`SolverError` leaves with the counters so far in
    ``partial_report``.
    """
    stepper.reset()
    inline = getattr(stepper.try_step, "_inline", None)
    trial, bound = inline(stepper, x) if inline else (None, (None,))
    observe = None if observer is None else "steps" if observe_steps else "samples" if sample else "targets"
    walk = _walk_code(trial, observe)(*bound)
    return walk(stepper, system, x, t0, targets, dt, observer, sample,
                _readonly if isinstance(x, np.ndarray) else tuple)


@lru_cache(maxsize=64)
def _walk_code(trial, observe):
    """:func:`_controlled_walk`'s loop, generated per trial and observe
    mode: ``make(kernel, ...)`` returns ``walk(stepper, system, x, t,
    targets, dt_next, observer, sample, snap)``.  A ``trial`` None calls
    ``try_step`` on the system in an :class:`EvaluationCounter`; an
    inline one is ``controlled._trial_code``'s pieces, bound by
    ``make(kernel, ratio, copy, k)``: ``step`` leaves a trial's error
    ratio in ``worst``, ``accept`` or ``reject`` sets ``dt_next``, and
    ``evaluations`` counts."""
    seen = ["observer(snap(x), t)"]
    on_step = {"steps": seen, "samples": ["j = sample(observer, t0, h, j, t_end, t + reach)"]}.get(observe, [])
    on_target = seen if observe in ("targets", "samples") else []
    sampler = ["(sample, t0, h, t_end, reach), j = sample, 1"] if observe == "samples" else []
    if trial is None:
        kernels, args, accept, reject, tail, after, count = False, "", [], [], [], "result.t", "system.count"
        head = ["try_step, system = stepper.try_step, EvaluationCounter(system)"]
        step = ["result = try_step(system, x, t, target - t if clamped else dt_next)",
                "dt_next = result.dt", "if result.accepted:"]
    else:
        (kernels, head, step, accept, reject, tail), args = trial, "ratio, copy, k"
        after, count = "t + dt", "evaluations"
        step = ["dt = target - t if clamped else dt_next", *step, "if worst <= 1.0:"]
    report = f"IntegrationReport(x, t, accepted, rejected, {count})"
    return _make(kernels, args, [
        "def walk(stepper, system, x, t, targets, dt_next, observer, sample, snap):",
        *_indent([*sampler, *head, "accepted = rejected = 0"]), "    try:", "        for target in targets:",
        "            if target <= t:  # a grid point that rounds onto the time reached",
        "                raise StepSizeUnderflowError(dt_next, t)",
        "            while t < target:", "                clamped = dt_next >= target - t", *_indent(step, 4),
        *_indent([*accept, "accepted += 1", f"t = target if clamped else {after}", *on_step], 5),
        "                else:", *_indent([*reject, "rejected += 1"], 5),
        "            t = target", *_indent(on_target, 3),
        "    except SolverError as exc:", f"        exc.partial_report = {report}", "        raise",
        *(["    finally:", *_indent(tail, 2)] if tail else []), f"    return {report}",
    ], "walk", IntegrationReport=IntegrationReport, SolverError=SolverError,
        StepSizeUnderflowError=StepSizeUnderflowError, isfinite=math.isfinite, EvaluationCounter=EvaluationCounter)


@lru_cache(maxsize=64)
def _fixed_code(step, observed):
    """:func:`integrate_const`'s fixed-step loop, generated as
    :func:`_walk_code`'s walk is: ``make(kernel, k)`` returns
    ``loop(stepper, system, x, t, steps, width, t_last, dt_last,
    observer, snap)``.  A ``step`` None calls ``do_step`` on the system in
    an :class:`EvaluationCounter`; an inline one is
    ``explicit._step_code``'s pieces, and ``evaluations`` counts."""
    count = "system.count" if step is None else "evaluations"
    kernels, head, step = step or (False, ["system = EvaluationCounter(system)"], ["stepper.do_step(system, x, t, dt)"])
    return _make(kernels, "k", [
        "def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):",
        *_indent([*head, "t0, dt = t, width"]), "    try:", "        for j in range(1, steps + 1):",
        "            if j == steps:", "                t_next, dt = t_last, dt_last",
        "            else:", "                t_next = t0 + j * width",
        "            if t_next <= t:  # a width too small to move t",
        "                raise StepSizeUnderflowError(width, t)",
        *_indent([*step, "t = t_next", *(["observer(snap(x), t)"] if observed else [])], 3),
        "    except SolverError as exc:",
        f"        exc.partial_report = IntegrationReport(x, t, j - 1, 0, {count})", "        raise",
        f"    return IntegrationReport(x, t_last, steps, 0, {count})",
    ], "loop", IntegrationReport=IntegrationReport, SolverError=SolverError,
        StepSizeUnderflowError=StepSizeUnderflowError, EvaluationCounter=EvaluationCounter)


def integrate_const(stepper, system, x0, t0, t1, dt, observer=None):
    """Integrate over ``[t0, t1]`` observing on the grid ``t0 + k*dt``.

    The observer fires at ``t0`` first.  Plain steppers advance with
    fixed width ``dt`` on the generated loop (see the module docstring),
    except that a last grid point snapped onto ``t1`` (within
    ``GRID_SNAP`` widths) sizes the last step to end on it; controlled
    steppers adapt freely inside each grid interval but land exactly on
    the grid points.  The run ends at the last grid point inside the
    interval.

    :class:`DenseOutputDopri5` picks its own widths on the walk that
    :func:`integrate_adaptive` uses, so the grid does not constrain
    the step sequence, and the run ends at ``t1`` with no right-hand
    side evaluation past it.  Its grid sampler interpolates the grid
    points strictly inside the interval after each accepted step; the
    observer sees ``t1`` with the stepped state.  A dense-output
    stepper of your own, which has no such sampler, is run as a
    controlled one.

    A fixed step or a grid point that would not move the time raises
    :class:`StepSizeUnderflowError` before it is taken.  A
    :class:`SolverError` carries the counters so far, and the last
    time reached, in ``partial_report``.
    """
    controlled = hasattr(stepper, "try_step")
    if not (controlled or hasattr(stepper, "do_step")):
        raise TypeError(f"{type(stepper).__name__} is not a stepper")
    x, t0, t1, dt = _start(stepper, x0, t0, t1, dt, observer)
    if hasattr(stepper, "_sample"):
        # After each accepted step the dense stepper observes the grid
        # points strictly inside the interval that the step reached.
        sample = None if observer is None else (stepper._sample, t0, dt, t1 - GRID_SNAP * dt, GRID_SNAP * dt)
        return _controlled_walk(stepper, system, x, t0, (t1,), dt, observer, False, sample)
    steps, t_last = _grid(t0, t1, dt)
    if controlled:
        targets = (t_last if k == steps else t0 + k * dt for k in range(1, steps + 1))
        return _controlled_walk(stepper, system, x, t0, targets, dt, observer, False)

    inline = getattr(stepper.do_step, "_inline", None)
    step, bound = inline(stepper, x) if inline else (None, (None, None))
    # A last grid point snapped onto t1 ends the last step there.
    dt_last = dt if t_last == t0 + steps * dt else t_last - (t0 + (steps - 1) * dt)
    loop = _fixed_code(step, observer is not None)(*bound)
    return loop(stepper, system, x, t0, steps, dt, t_last, dt_last, observer,
                _readonly if isinstance(x, np.ndarray) else tuple)


def integrate_adaptive(stepper, system, x0, t0, t1, dt0, observer=None):
    """Integrate with free step choice, observing every accepted step.

    ``stepper`` must have ``try_step``: a controlled or a dense-output
    stepper.  The final step is clamped so the run ends exactly at
    ``t1``.  On failure the raised :class:`SolverError` carries the
    counters gathered so far in ``partial_report``.
    """
    if not hasattr(stepper, "try_step"):
        raise TypeError("integrate_adaptive needs a stepper with try_step")
    x, t0, t1, dt0 = _start(stepper, x0, t0, t1, dt0, observer)
    return _controlled_walk(stepper, system, x, t0, (t1,), dt0, observer, True)
