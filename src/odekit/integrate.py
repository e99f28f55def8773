"""Integration drivers: observed on a fixed grid or at every step.

Drivers copy the initial state, dispatch on what the stepper can do,
and call the observer with read-only snapshots; observers never see a
rejected trial.  Controlled and dense-output steppers run on one
generated walk, fixed steps on one generated loop.  Each runs inline
the ``pieces`` of the stepper's ``algebra.Bound`` for the state, read
through ``_record``, where its ``try_step`` or ``do_step`` is the
shipped method (marked ``_shipped``): every :class:`ControlledStepper`'s
trial and step size control, dense output's fit among them, an
explicit stepper's step or implicit Euler's Newton step; any other
method, a proxy's too, is called.  A dense stepper's grid sampler is
its record's ``dense``.  Every run returns an :class:`IntegrationReport`
with the final state and the step and evaluation counters.

The drivers write every count line; steppers generate plain code and
keep no count.  A run counts each system call it inlines in the line
before the call, so a call that raises is counted too, and hands any
opaque callee ``counted``, the system in an :class:`EvaluationCounter`.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .algebra import Bound, _finite, _indent, _initial_copy, _make, _readonly
from .errors import SolverError, StepSizeUnderflowError

# Grid times within this fraction of a width of the interval end are
# treated as the end itself.
GRID_SNAP = 1e-10


class IntegrationReport(namedtuple("IntegrationReport",
                                   "final_state final_time steps_accepted steps_rejected system_evaluations")):
    """Counters and final values of one driver run: a frozen record."""

    __slots__ = ()

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


def _grid(t0, t1, dt):
    """Number of whole widths in the interval and the clamped end time;
    a run that fits no whole width ends at ``t0``."""
    count = math.floor((t1 - t0) / dt + GRID_SNAP)
    t_last = t0 + count * dt
    if count and abs(t_last - t1) <= GRID_SNAP * dt:
        t_last = t1
    return count, t_last


def _start(stepper, x0, t0, t1, dt):
    """Check the run's bounds, then return a floating working copy of
    the initial state, made by the stepper's backend and checked before
    any evaluation, and the bounds as floats."""
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
    return _initial_copy(stepper, x0)[1], t0, t1, dt


def _controlled_walk(stepper, system, x, t0, targets, dt, observer, observe_steps, sample=None):
    """Adapt freely from ``t0`` and land exactly on each of ``targets``.

    The observer sees ``t0``, then each accepted step if ``observe_steps``
    is set, otherwise each target once it is reached.  A ``sample`` is
    ``(sample, t0, dt, t_end, reach)``, a dense stepper's generated
    sampler first: after each accepted step of width ``w`` from ``lo``
    to ``t``, ``j = sample(observer, lo, t, w, t0, dt, j, t_end, t +
    reach)`` observes grid points from ``t0 + j*dt`` on, ``j`` first 1.  The
    stepper is reset first, so no cache of an earlier run leaks in.
    Any :class:`SolverError` leaves with the counters so far in
    ``partial_report``.
    """
    stepper.reset()
    bound = stepper._record(x) if getattr(stepper.try_step, "_shipped", False) else Bound(None, None, (None,))
    observe = None if observer is None else "steps" if observe_steps else "samples" if sample else "targets"
    walk = _walk_code(bound.pieces, observe)(*bound.args)
    return walk(stepper, system, x, t0, targets, dt, observer, sample,
                _readonly if isinstance(x, np.ndarray) else tuple)


def _count_calls(lines):
    """``lines`` with each system call counted in ``evaluations`` in
    the line before it, at its indentation, so that a call that raises
    is counted too."""
    return re.sub(r"^( *)system\(", r"\1evaluations += 1\n\g<0>", "\n".join(lines), flags=re.M).split("\n")


def _run_code(args, signature, head, loop, partial, final, key, tail=()):
    """Both drivers' generated run, ``make(kernel, <args>)`` named by
    ``key`` (see ``algebra._define``) returning ``signature``: it counts
    in ``evaluations`` and ``counted``, runs ``head`` and ``loop`` (then
    ``tail``), and reports ``final``, or ``partial`` in the one place
    that sets a :class:`SolverError`'s ``partial_report``."""
    report = "IntegrationReport({}, evaluations + counted.count)".format
    return _make(args, [
        f"def {signature}:", "    evaluations, counted = 0, EvaluationCounter(system)", *_indent(head),
        "    try:", *_indent(loop, 2),
        "    except SolverError as exc:", f"        exc.partial_report = {report(partial)}", "        raise",
        *(["    finally:", *_indent(tail, 2)] if tail else []), f"    return {report(final)}",
    ], signature[:signature.index("(")], key, IntegrationReport=IntegrationReport, SolverError=SolverError,
        StepSizeUnderflowError=StepSizeUnderflowError, isfinite=math.isfinite, nextafter=math.nextafter,
        EvaluationCounter=EvaluationCounter, finite=_finite)


@lru_cache(maxsize=64)
def _walk_code(trial, observe):
    """:func:`_controlled_walk`'s loop, generated per trial and observe
    mode on :func:`_run_code`: ``make(kernel, ...)`` returns
    ``walk(stepper, system, x, t, targets, dt_next, observer, sample,
    snap)``.  A ``trial`` None calls ``try_step`` on ``counted``; an
    inline one is ``controlled._trial_code``'s pieces, bound by
    ``make(kernel, ratio, copy, k)``, with the system calls of their
    ``step`` counted here: ``step`` leaves a trial's error ratio in
    ``worst``, and ``accept``, given the end time ``t_new``, or ``reject`` sets ``dt_next``."""
    seen = ["observer(snap(x), t)"]
    on_step = {"steps": seen, "samples": ["j = sample(observer, lo, t, dt, t0, h, j, t_end, t + reach)"]}
    on_step = on_step.get(observe, [])
    on_target = seen if observe in ("targets", "samples") else []
    sampler = ["(sample, t0, h, t_end, reach), j = sample, 1"] if observe == "samples" else []
    if trial is None:
        args, accept, reject, tail, after, key = "", [], [], (), "result.t", "try_step"
        head = ["try_step = stepper.try_step"]
        step = ["result = try_step(counted, x, t, dt)", "dt_next = result.dt", "if result.accepted:"]
    else:
        (key, head, step, accept, reject, tail), args, after = trial, "ratio, copy, k", "t + dt"
        step = [*_count_calls(step), "if worst <= 1.0:"]
    return _run_code(args, "walk(stepper, system, x, t, targets, dt_next, observer, sample, snap)",
                     [*sampler, *head, "accepted = rejected = 0"], [*(seen if observe else []),
        "for target in targets:", "    if target <= t:  # a grid point that rounds onto the time reached",
        "        raise StepSizeUnderflowError(dt_next, t)", "    while t < target:",
        "        clamped = dt_next >= target - t", "        dt = target - t if clamped else dt_next",
        "        if clamped and t + dt > target:  # the largest width that ends on or before target",
        "            dt = nextafter(dt, 0.0)", *_indent(step, 2),
        *_indent([f"t_new = target if clamped else {after}", *accept, "accepted += 1", "lo, t = t, t_new",
                  *on_step], 3),
        "        else:", *_indent([*reject, "rejected += 1"], 3), "    t = target", *_indent(on_target),
    ], "x, t, accepted, rejected", "x, t, accepted, rejected", f"walk {key} {observe or 'unobserved'}", tail)


@lru_cache(maxsize=64)
def _fixed_code(step, observed):
    """:func:`integrate_const`'s fixed-step loop, generated as
    :func:`_walk_code`'s walk is: ``make(kernel, k)`` returns
    ``loop(stepper, system, x, t, steps, width, t_last, dt_last,
    observer, snap)``.  A ``step`` None calls ``do_step`` on
    ``counted``; an inline one is ``explicit._step_code``'s or
    ``implicit._newton_code``'s pieces ``(key, head, bind, step)``,
    ``bind`` run per width, the system calls of ``step`` counted here."""
    key, head, bind, step = step or ("do_step", [], [], ["stepper.do_step(counted, x, t, dt)"])
    seen = ["if not finite(x):", "    break", "observer(snap(x), t)"] if observed else []
    # The observation alone, seen[-1:], sees t0 before the head, which may refuse the system.  Step j is taken
    # once t is t_next, then only the observer or the end check raises; too small a width clears t_next.
    return _run_code("k", "loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap)",
                     ["j = 0", "t_next = t"], [*seen[-1:], *head, "t0, dt = t, width", *bind,
        "for j in range(1, steps + 1):", "    if j == steps:", "        t_next, dt = t_last, dt_last",
        *_indent(bind, 2), "    else:", "        t_next = t0 + j * width",
        "    if t_next <= t:  # a width too small to move t", "        t_next = None",
        "        raise StepSizeUnderflowError(width, t)", *_indent([*_count_calls(step), "t = t_next", *seen]),
        "if not finite(x):", "    raise SolverError(f'the state is not finite at t={t!r}')",
    ], "x, t, j if t == t_next else j - 1, 0", "x, t_last, steps, 0",
        f"loop {key} {'observed' if observed else 'unobserved'}")


def integrate_const(stepper, system, x0, t0, t1, dt, observer=None):
    """Integrate over ``[t0, t1]`` observing on the grid ``t0 + k*dt``.

    The observer fires at ``t0`` first.  Plain steppers advance with
    fixed width ``dt`` on the generated loop (see the module docstring),
    except that a last grid point snapped onto ``t1`` (within
    ``GRID_SNAP`` widths) sizes the last step to end on it; controlled
    steppers adapt freely inside each grid interval but land exactly on
    the grid points.  The run ends at the last grid point inside the
    interval.  A fixed step evaluates stage ``c`` at ``t + c*dt``, as ``do_step``
    does, so a ``c = 1`` stage may lie one ulp from the grid time reported.

    :class:`DenseOutputDopri5` picks its own widths on the walk that
    :func:`integrate_adaptive` uses, so the grid does not constrain
    the step sequence, and the run ends at ``t1`` with no right-hand
    side evaluation past it.  Its grid sampler interpolates the grid
    points strictly inside the interval after each accepted step; the
    observer sees ``t1`` with the stepped state.  A dense-output
    stepper of your own, which has no such sampler, is run as a
    controlled one.

    A fixed step or a grid point that would not move the time raises
    :class:`StepSizeUnderflowError` before it is taken; a fixed-step
    state not finite at an observation or at the end, a
    :class:`SolverError`.  A :class:`SolverError` carries the counters
    so far, and the last time reached, in ``partial_report``.
    """
    controlled = hasattr(stepper, "try_step")
    if not (controlled or hasattr(stepper, "do_step")):
        raise TypeError(f"{type(stepper).__name__} is not a stepper")
    x, t0, t1, dt = _start(stepper, x0, t0, t1, dt)
    dense = controlled and getattr(stepper, "_record", None) and stepper._record(x).dense
    if dense:
        # The dense stepper's sampler observes the grid points strictly inside each accepted step's interval.
        sample = None if observer is None else (dense()[1], t0, dt, t1 - GRID_SNAP * dt, GRID_SNAP * dt)
        return _controlled_walk(stepper, system, x, t0, (t1,), dt, observer, False, sample)
    steps, t_last = _grid(t0, t1, dt)
    if controlled:
        targets = (t_last if k == steps else t0 + k * dt for k in range(1, steps + 1))
        return _controlled_walk(stepper, system, x, t0, targets, dt, observer, False)

    bound = stepper._record(x) if getattr(stepper.do_step, "_shipped", False) else Bound(None, None, (None, None))
    # A last grid point snapped onto t1 ends the last step there.
    dt_last = dt if t_last == t0 + steps * dt else t_last - (t0 + (steps - 1) * dt)
    loop = _fixed_code(bound.pieces, observer is not None)(*bound.args)
    return loop(stepper, system, x, t0, steps, dt, t_last, dt_last, observer,
                _readonly if isinstance(x, np.ndarray) else tuple)


def integrate_adaptive(stepper, system, x0, t0, t1, dt0, observer=None):
    """Integrate with free step choice, observing every accepted step.

    ``stepper`` must have ``try_step``: a controlled or a dense-output
    stepper.  The last step is the widest ending at or before ``t1``,
    so no evaluation lies past it, and the run ends exactly at ``t1``.
    On failure the raised :class:`SolverError` carries the counters
    gathered so far in ``partial_report``.
    """
    if not hasattr(stepper, "try_step"):
        raise TypeError("integrate_adaptive needs a stepper with try_step")
    x, t0, t1, dt0 = _start(stepper, x0, t0, t1, dt0)
    return _controlled_walk(stepper, system, x, t0, (t1,), dt0, observer, True)
