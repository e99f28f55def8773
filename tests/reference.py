"""The drivers' documented rules, written once: :func:`reference_run`,
a plain loop over the public per-step API that every driver property
compares the generated runs against, with the one grid helper and the
helpers more than one test file shares.  Pytest collects no test here."""

import array
import math

from odekit import DenseOutputDopri5, EvaluationCounter, IntegrationReport, SolverError, StepSizeUnderflowError
from odekit import next_step_size
from odekit.algebra import SequenceAlgebra
from odekit.integrate import GRID_SNAP


def ring(x, dxdt, t):
    # Elementwise so both containers run the same float operations.
    n = len(x)
    for i in range(n):
        dxdt[i] = x[(i + 1) % n] - x[i] * x[i] * x[i] + 0.5 * t


def hexes(v):
    return None if v is None else [float(e).hex() for e in v]


def expgrow(x, dxdt, t):
    dxdt[0] = x[0]


def zero_rhs(x, dxdt, t):
    for i in range(len(x)):
        dxdt[i] = 0.0


def nan_after_start(x, dxdt, t):
    # Finite at the start state, NaN at every later stage: no width is
    # accepted, yet only the error estimate is not finite.
    dxdt[0] = -x[0] if t == 0.0 else float("nan")


def e_series(z, terms=30):
    # A high-precision oracle for e^z, summed smallest first.
    parts = [z**k / math.factorial(k) for k in range(terms)]
    return sum(reversed(parts))


class ArrayAlgebra(SequenceAlgebra):
    """The sequence arithmetic on ``array.array('d')`` states, which
    the default backend cannot build."""

    def clone_shape(self, src):
        return array.array("d", bytes(8 * len(src)))


def grid_times(t0, t1, dt):
    """``integrate_const``'s grid: ``t0 + k*dt`` for each whole width
    ``k`` in the interval, counted up to ``GRID_SNAP`` of one, the last
    point snapped onto ``t1`` when within ``GRID_SNAP`` widths of it."""
    count = math.floor((t1 - t0) / dt + GRID_SNAP)
    times = [t0 + k * dt for k in range(count + 1)]
    if count and abs(times[-1] - t1) <= GRID_SNAP * dt:
        times[-1] = t1
    return times


def reference_run(stepper, system, x, t0, t1, dt, observer=None, adaptive=False):
    """What ``integrate_adaptive`` (``adaptive``) or ``integrate_const``
    does, stepping ``x`` in place, as a loop over the public per-step
    API on an :class:`EvaluationCounter`, with no generated driver code.
    The observer, given, sees ``t0`` first.  Then:

    - a stepper without ``try_step`` steps the grid by its class
      ``do_step``, called unbound, so no ``do_step`` entry runs: the
      last step ends on a snapped last point, and a state not finite
      at an observation or at the end raises;
    - any other walks by ``try_step`` onto each grid point, or onto
      ``t1`` when ``adaptive`` or dense (a :class:`DenseOutputDopri5`),
      a width past the target clamped to the widest that ends on or
      before it; each trial's proposal is checked against
      ``next_step_size``.  The observer sees each accepted step when
      ``adaptive``, else each target, and a dense run's grid points
      inside each accepted step through ``calc_state``, whose clamped
      step covers ``[lo, target]``.

    Returns the :class:`SolverError` raised or None, the
    :class:`IntegrationReport` of the steps taken, and the walk's
    trials as ``(t, width, accepted)``, the times in hex."""
    counter, times, trials = EvaluationCounter(system), grid_times(t0, t1, dt), []
    t, accepted, rejected, dense = t0, 0, 0, isinstance(stepper, DenseOutputDopri5)
    finite = lambda: all(math.isfinite(v) for v in x)  # noqa: E731
    try:
        if observer:
            observer(x, t)
        if not hasattr(stepper, "try_step"):
            for k, t_next in enumerate(times[1:], 1):
                if t_next <= t:
                    raise StepSizeUnderflowError(dt, t)
                type(stepper).do_step(stepper, counter, x, t, dt if t_next == t0 + k * dt else t_next - t)
                t, accepted = t_next, accepted + 1
                if observer:
                    if not finite():
                        break
                    observer(x, t)
            if not finite():
                raise SolverError(f"the state is not finite at t={t!r}")
            return None, IntegrationReport(x, t, accepted, 0, counter.count), trials
        h, j, again = dt, 1, False
        for target in [t1] if adaptive or dense else times[1:]:
            if target <= t:
                raise StepSizeUnderflowError(dt, t)
            while t < target:
                clamped = dt >= target - t
                width = target - t if clamped else dt
                if clamped and t + width > target:  # the largest width that ends on or before target
                    width = math.nextafter(width, 0.0)
                result = stepper.try_step(counter, x, t, width)
                trials.append((t.hex(), width.hex(), result.accepted))
                dt = next_step_size(width, result.error_ratio, stepper.stepper.error_order, again)
                assert dt.hex() == result.dt.hex()
                again = not result.accepted
                if again:
                    rejected += 1
                    continue
                accepted, lo, t = accepted + 1, t, target if clamped else result.t
                if clamped and dense:
                    stepper._span = lo, t, width
                if observer and adaptive:
                    observer(x, t)
                elif observer and dense:  # the grid points before t1 - GRID_SNAP widths, up to the step's end
                    while (s := t0 + j * h) < t1 - GRID_SNAP * h and s <= t + GRID_SNAP * h:
                        observer(stepper.calc_state(min(s, stepper.interval[1])), s)
                        j += 1
            t = target
            if observer and not adaptive:
                observer(x, t)
    except SolverError as exc:
        return exc, IntegrationReport(x, t, accepted, rejected, counter.count), trials
    return None, IntegrationReport(x, t, accepted, rejected, counter.count), trials
