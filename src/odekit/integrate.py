"""Integration drivers: observed on a fixed grid or at every step.

Drivers copy the initial state, dispatch on what the stepper can do,
and call the observer with read-only snapshots; observers never see a
rejected trial.  Controlled and dense-output steppers run on one
adaptive loop, ``_controlled_walk``.  Every run returns an
:class:`IntegrationReport` with the final state and the step and
evaluation counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import algebra_for
from .errors import SolverError

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

    The wrapped system's ``jacobian``, if any, is carried along
    uncounted, so steppers that need it find it on the counter.
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


class TrajectoryRecorder:
    """Observer that keeps times and state copies as they arrive."""

    def __init__(self):
        self.times = []
        self.states = []

    def __call__(self, x, t):
        self.times.append(t)
        self.states.append(np.array(x, dtype=float))

    def as_arrays(self):
        return np.asarray(self.times), np.asarray(self.states)


def _readonly(x):
    if isinstance(x, np.ndarray):
        view = x.view()
        view.flags.writeable = False
        return view
    if isinstance(x, list):
        return tuple(x)
    return x


def _grid(t0, t1, dt):
    """Number of whole widths in the interval and the clamped end time;
    a run that fits no whole width ends at ``t0``."""
    count = int(np.floor((t1 - t0) / dt + GRID_SNAP))
    t_last = t0 + count * dt
    if count and abs(t_last - t1) <= GRID_SNAP * dt:
        t_last = t1
    return count, t_last


def _start(x0, t0, t1, dt, observer):
    """Check the run's bounds, then return a floating working copy of
    the initial state, observed at ``t0``."""
    try:
        finite = math.isfinite(t0) and math.isfinite(t1) and math.isfinite(dt)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError("start time, end time and width must be finite")
    if t1 <= t0:
        raise ValueError("end time must exceed start time")
    if dt <= 0.0:
        raise ValueError("step or grid width must be positive")
    algebra = algebra_for(x0)
    x = algebra.clone_shape(x0)
    algebra.copy(x, x0)
    if observer is not None:
        observer(_readonly(x), t0)
    return x


def _controlled_walk(stepper, system, x, t0, targets, dt, observer, observe_steps):
    """Adapt freely from ``t0`` and land exactly on each of ``targets``.

    The observer sees every accepted step when ``observe_steps`` is
    set, otherwise each target once it is reached.  The stepper is
    reset first, so no cache from an earlier run leaks in.  Any
    :class:`SolverError` leaves with the counters so far in
    ``partial_report``.
    """
    counter = EvaluationCounter(system)
    stepper.reset()
    accepted = rejected = 0
    t = t0
    try:
        for target in targets:
            while t < target:
                clamped = dt >= target - t
                result = stepper.try_step(counter, x, t, target - t if clamped else dt)
                if result.accepted:
                    accepted += 1
                    t = target if clamped else result.t
                    if observe_steps and observer is not None:
                        observer(_readonly(x), t)
                else:
                    rejected += 1
                dt = result.dt
            t = target
            if not observe_steps and observer is not None:
                observer(_readonly(x), t)
    except SolverError as exc:
        exc.partial_report = IntegrationReport(x, t, accepted, rejected, counter.count)
        raise
    return IntegrationReport(x, t, accepted, rejected, counter.count)


def _interpolating(dense_stepper, observer, t0, t1, dt):
    """Step observer that hands ``observer`` the grid points
    ``t0 + k*dt`` inside each accepted step, interpolated, and ``t1``
    with the stepped state."""
    t_end = t1 - GRID_SNAP * dt
    k = 1

    def observe_step(x_step, t):
        nonlocal k
        hi = dense_stepper.interval[1]
        t_k = t0 + k * dt
        while t_k < t_end and t_k <= t + GRID_SNAP * dt:
            observer(_readonly(dense_stepper.calc_state(min(t_k, hi))), t_k)
            k += 1
            t_k = t0 + k * dt
        if t == t1:
            observer(x_step, t1)

    return observe_step


def integrate_const(stepper, system, x0, t0, t1, dt, observer=None):
    """Integrate over ``[t0, t1]`` observing on the grid ``t0 + k*dt``.

    The observer fires at ``t0`` first.  Plain steppers advance with
    fixed width ``dt``, except that a last grid point snapped onto
    ``t1`` (within ``GRID_SNAP`` widths) sizes the last step to end on
    it; controlled steppers adapt freely inside each
    grid interval but land exactly on the grid points.  The run ends
    at the last grid point inside the interval.

    Dense-output steppers pick their own widths on the walk that
    :func:`integrate_adaptive` uses, so the grid does not constrain
    the step sequence, and the run ends at ``t1`` with no right-hand
    side evaluation past it.  The grid points strictly inside the
    interval are interpolated after each accepted step; the observer
    sees ``t1`` with the stepped state.

    A :class:`SolverError` carries the counters so far, and the last
    time reached, in ``partial_report``.
    """
    controlled = hasattr(stepper, "try_step")
    if not (controlled or hasattr(stepper, "do_step")):
        raise TypeError(f"{type(stepper).__name__} is not a stepper")
    x = _start(x0, t0, t1, dt, observer)
    if hasattr(stepper, "calc_state"):
        observe = None if observer is None else _interpolating(stepper, observer, t0, t1, dt)
        return _controlled_walk(stepper, system, x, t0, (t1,), dt, observe, True)
    steps, t_last = _grid(t0, t1, dt)
    if controlled:
        targets = (t_last if k == steps else t0 + k * dt for k in range(1, steps + 1))
        return _controlled_walk(stepper, system, x, t0, targets, dt, observer, False)

    counter = EvaluationCounter(system)
    # A last grid point snapped onto t1 ends the last step there.
    dt_last = dt if t_last == t0 + steps * dt else t_last - (t0 + (steps - 1) * dt)
    t = t0
    try:
        for k in range(1, steps + 1):
            stepper.do_step(counter, x, t, dt_last if k == steps else dt)
            t = t_last if k == steps else t0 + k * dt
            if observer is not None:
                observer(_readonly(x), t)
    except SolverError as exc:
        exc.partial_report = IntegrationReport(x, t, k - 1, 0, counter.count)
        raise
    return IntegrationReport(x, t_last, steps, 0, counter.count)


def integrate_adaptive(stepper, system, x0, t0, t1, dt0, observer=None):
    """Integrate with free step choice, observing every accepted step.

    ``stepper`` must have ``try_step``: a controlled or a dense-output
    stepper.  The final step is clamped so the run ends exactly at
    ``t1``.  On failure the raised :class:`SolverError` carries the
    counters gathered so far in ``partial_report``.
    """
    if not hasattr(stepper, "try_step"):
        raise TypeError("integrate_adaptive needs a stepper with try_step")
    x = _start(x0, t0, t1, dt0, observer)
    return _controlled_walk(stepper, system, x, t0, (t1,), dt0, observer, True)
