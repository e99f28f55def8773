"""Integration drivers: fixed-grid, fully adaptive, and dense-observed.

Drivers copy the initial state, dispatch on what the stepper can do,
and call the observer with read-only snapshots; observers never see a
rejected trial.  Every run returns an :class:`IntegrationReport` with
the final state and the step and evaluation counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import algebra_for
from .errors import SolverError
from .implicit import JacobianSystem

# Grid times within this fraction of a width of the interval end are
# treated as the end itself.
GRID_SNAP = 1e-10


@dataclass
class IntegrationReport:
    """Counters and final values of one driver run."""

    final_state: object
    final_time: float
    steps_attempted: int
    steps_accepted: int
    steps_rejected: int
    system_evaluations: int


class EvaluationCounter:
    """Counts calls to a wrapped ``(x, dxdt, t)`` system callable."""

    def __init__(self, system):
        self.system = system
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


def _counted(system):
    """Wrap the right-hand side of ``system`` in an evaluation counter."""
    if isinstance(system, JacobianSystem):
        counter = EvaluationCounter(system.system)
        return JacobianSystem(counter, system.jacobian), counter
    counter = EvaluationCounter(system)
    return counter, counter


def _readonly(x):
    if isinstance(x, np.ndarray):
        view = x.view()
        view.flags.writeable = False
        return view
    if isinstance(x, list):
        return tuple(x)
    return x


def _stepper_kind(stepper):
    if hasattr(stepper, "calc_state") and hasattr(stepper, "initialize"):
        return "dense"
    if hasattr(stepper, "try_step"):
        return "controlled"
    if hasattr(stepper, "do_step"):
        return "plain"
    raise TypeError(f"{type(stepper).__name__} is not a stepper")


def _grid(t0, t1, dt):
    """Number of whole widths in the interval and the clamped end time."""
    count = int(np.floor((t1 - t0) / dt + GRID_SNAP))
    t_last = t0 + count * dt
    if abs(t_last - t1) <= GRID_SNAP * dt:
        t_last = t1
    return count, t_last


def _clone_of(x0):
    """Floating working copy of the initial state."""
    algebra = algebra_for(x0)
    x = algebra.clone_shape(x0)
    algebra.copy(x, x0)
    return x


def _controlled_walk(stepper, system, x, t0, targets, dt, observer, observe_steps):
    """Adapt freely from ``t0`` and land exactly on each of ``targets``.

    The observer sees every accepted step when ``observe_steps`` is
    set, otherwise each target once it is reached.  The stepper is
    reset first, so no cache from an earlier run leaks in.  Any
    :class:`SolverError` leaves with the counters so far in
    ``partial_report``.
    """
    counted, counter = _counted(system)
    stepper.reset()
    attempted = accepted = rejected = 0
    t = t0
    try:
        for target in targets:
            while t < target:
                clamped = dt >= target - t
                result = stepper.try_step(counted, x, t, target - t if clamped else dt)
                attempted += 1
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
        exc.partial_report = IntegrationReport(
            x, t, attempted, accepted, rejected, counter.count
        )
        raise
    return IntegrationReport(x, t, attempted, accepted, rejected, counter.count)


def integrate_const(stepper, system, x0, t0, t1, dt, observer=None):
    """Integrate over ``[t0, t1]`` observing on the grid ``t0 + k*dt``.

    The observer fires at ``t0`` first.  Plain steppers advance with
    fixed width ``dt``; controlled steppers adapt freely inside each
    grid interval but land exactly on the grid points, and a failure
    of theirs carries ``partial_report``; dense-output steppers
    delegate to :func:`integrate_const_dense`.  The run ends at the
    last grid point inside the interval (dense runs end at ``t1``
    itself).
    """
    if t1 <= t0:
        raise ValueError("end time must exceed start time")
    if dt <= 0.0:
        raise ValueError("grid width must be positive")
    kind = _stepper_kind(stepper)
    if kind == "dense":
        return integrate_const_dense(stepper, system, x0, t0, t1, dt, observer)
    x = _clone_of(x0)
    steps, t_last = _grid(t0, t1, dt)

    if observer is not None:
        observer(_readonly(x), t0)

    if kind == "controlled":
        targets = (t_last if k == steps else t0 + k * dt for k in range(1, steps + 1))
        return _controlled_walk(stepper, system, x, t0, targets, dt, observer, False)

    counted, counter = _counted(system)
    for k in range(1, steps + 1):
        stepper.do_step(counted, x, t0 + (k - 1) * dt, dt)
        if observer is not None:
            observer(_readonly(x), t_last if k == steps else t0 + k * dt)
    return IntegrationReport(x, t_last, steps, steps, 0, counter.count)


def integrate_adaptive(stepper, system, x0, t0, t1, dt0, observer=None):
    """Integrate with free step choice, observing every accepted step.

    ``stepper`` must be a controlled stepper.  The final step is
    clamped so the run ends exactly at ``t1``.  On failure the raised
    :class:`SolverError` carries the counters gathered so far in
    ``partial_report``.
    """
    if t1 <= t0:
        raise ValueError("end time must exceed start time")
    if dt0 <= 0.0:
        raise ValueError("initial step width must be positive")
    if _stepper_kind(stepper) != "controlled":
        raise TypeError("integrate_adaptive needs a stepper with try_step")
    x = _clone_of(x0)

    if observer is not None:
        observer(_readonly(x), t0)

    return _controlled_walk(stepper, system, x, t0, (t1,), dt0, observer, True)


def integrate_const_dense(dense_stepper, system, x0, t0, t1, observe_dt, observer=None):
    """Step as far as error control allows, observe on a uniform grid.

    The stepper picks its own interior step widths; grid values come
    from interpolation, so observer calls do not constrain the step
    sequence.  The observer fires at ``t0``, at every grid point
    strictly inside the interval, and finally at ``t1`` itself.
    """
    if t1 <= t0:
        raise ValueError("end time must exceed start time")
    if observe_dt <= 0.0:
        raise ValueError("observation width must be positive")
    counted, counter = _counted(system)
    dense_stepper.initialize(x0, t0, observe_dt)
    snap = GRID_SNAP * observe_dt

    if observer is not None:
        observer(_readonly(dense_stepper.current_state), t0)

    k = 1
    t_cur = t0
    while t_cur < t1 - snap:
        _, t_cur = dense_stepper.do_step(counted)
        while True:
            t_k = t0 + k * observe_dt
            if t_k >= t1 - snap or t_k > t_cur + snap:
                break
            if observer is not None:
                observer(_readonly(dense_stepper.calc_state(min(t_k, t_cur))), t_k)
            k += 1

    final = dense_stepper.calc_state(min(t1, t_cur))
    if observer is not None:
        observer(_readonly(final), t1)
    return IntegrationReport(
        final,
        t1,
        dense_stepper.steps_attempted,
        dense_stepper.steps_accepted,
        dense_stepper.steps_rejected,
        counter.count,
    )
