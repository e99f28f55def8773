"""Integration drivers: observation grids, counters, capability dispatch."""

import inspect
import math
from collections import UserList

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odekit import (
    CashKarp54,
    ConvergenceError,
    ControlledStepper,
    ControllerParams,
    DenseOutputDopri5,
    DormandPrince5,
    EvaluationCounter,
    ExplicitEuler,
    HARMONIC,
    ImplicitEuler,
    JacobianSystem,
    LORENZ,
    RungeKutta4,
    SolverError,
    StepSizeUnderflowError,
    integrate_adaptive,
    integrate_const,
)
from odekit.algebra import SequenceAlgebra
from reference import expgrow, reference_run, ring, zero_rhs


def one_rhs(x, dxdt, t):
    dxdt[0] = 1.0


# --- integrate_const, plain steppers ----------------------------------------


def test_observer_grid_count_and_times():
    times = []
    integrate_const(ExplicitEuler(), zero_rhs, [1.0], 0.0, 1.0, 0.25,
                    lambda x, t: times.append(t))
    assert times == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_observer_states_constant_for_zero_rhs():
    states = []
    integrate_const(RungeKutta4(), zero_rhs, [2.0, 3.0], 0.0, 1.0, 0.25,
                    lambda x, t: states.append(list(x)))
    assert all(s == [2.0, 3.0] for s in states)


def test_constant_rhs_lands_exactly():
    report = integrate_const(RungeKutta4(), one_rhs, [0.5], 0.0, 1.0, 0.1)
    assert report.final_state[0] == pytest.approx(1.5, abs=1e-12)
    assert report.final_time == 1.0


def test_rk4_eval_count_is_four_per_step():
    report = integrate_const(RungeKutta4(), expgrow, [1.0], 0.0, 1.0, 0.01)
    assert report.steps_accepted == 100
    assert report.steps_attempted == 100
    assert report.steps_rejected == 0
    assert report.system_evaluations == 400


def test_euler_eval_count_is_one_per_step():
    report = integrate_const(ExplicitEuler(), expgrow, [1.0], 0.0, 1.0, 0.1)
    assert report.system_evaluations == 10


def test_input_state_is_not_mutated_by_driver():
    x0 = [1.0]
    integrate_const(RungeKutta4(), expgrow, x0, 0.0, 1.0, 0.1)
    assert x0 == [1.0]


class DuckEuler:
    """A user stepper with no algebra of its own: the drivers and the
    controller fall back to the default backend of the state."""

    order = error_order = 1
    fsal = False

    def do_step(self, system, x, t, dt, out=None):
        dxdt = [0.0] * len(x)
        system(x, dxdt, t)
        out = x if out is None else out
        for i, (v, d) in enumerate(zip(x, dxdt)):
            out[i] = v + dt * d
        return out

    def do_step_with_error(self, system, x, t, dt, out, xerr, dxdt_in):
        self.do_step(system, x, t, dt, out)
        for i, (a, b) in enumerate(zip(out, x)):
            xerr[i] = 0.5 * dt * (a - b)


@pytest.mark.parametrize("drive, make", [
    (integrate_const, DuckEuler),
    (integrate_adaptive, lambda: ControlledStepper(DuckEuler())),
], ids=["plain", "controlled"])
def test_duck_typed_stepper_runs_on_the_default_backend(drive, make):
    report = drive(make(), expgrow, [1.0], 0.0, 1.0, 0.1)
    assert type(report.final_state) is list
    assert report.final_time == 1.0 and report.final_state[0] > 2.0


def test_final_time_clamped_to_t1():
    # 0.1 is inexact in binary; the last grid point must still be t1
    times = []
    integrate_const(ExplicitEuler(), zero_rhs, [0.0], 0.0, 0.7, 0.1,
                    lambda x, t: times.append(t))
    assert times[-1] == 0.7
    assert len(times) == 8


@pytest.mark.parametrize("make", [CashKarp54, DormandPrince5, "dense"])
def test_a_clamped_last_step_evaluates_nothing_past_t1(make):
    # From t = -0.1023..., t1 - t rounds up, and t plus it passes t1
    # by 2 ulps: the last width is the widest that ends on or before
    # t1, the run still ends at t1, and a dense stepper's last step
    # covers t1, so calc_state(t1) interpolates there.  A plain
    # controller keeps no step interval.
    tol, seen = 0.00024040634050784984, []
    params = ControllerParams(atol=tol, rtol=tol)
    stepper = DenseOutputDopri5(params) if make == "dense" else ControlledStepper(make(), params)

    def logged(x, dxdt, t):
        seen.append(t)
        ring(x, dxdt, t)

    report = integrate_adaptive(stepper, logged, [0.3, -0.7], -0.15625, 0.03125, 0.05389669397121018)
    assert report.final_time == 0.03125 and max(seen) <= 0.03125
    if make == "dense":
        lo, hi, _ = stepper._span
        assert lo + (0.03125 - lo) > 0.03125 and hi == 0.03125
        assert stepper.interval[1] == 0.03125 and stepper.calc_state(0.03125)


def test_fixed_step_run_ends_on_snapped_t1():
    # The grid point 0.3 lies 1e-12 above t1, within GRID_SNAP widths,
    # so it is snapped onto t1 and the last step is shortened to end there.
    t0, t1, dt = 0.0, 0.3 - 1e-12, 0.1
    times = []

    def rhs(x, dxdt, t):
        times.append(t)
        dxdt[0] = -x[0]

    report = integrate_const(RungeKutta4(), rhs, [1.0], t0, t1, dt)
    assert report.final_time == t1
    assert max(times) <= t1
    x, stepper = [1.0], RungeKutta4()
    stepper.do_step(rhs, x, t0, dt)
    stepper.do_step(rhs, x, t0 + dt, dt)
    stepper.do_step(rhs, x, t0 + 2 * dt, t1 - (t0 + 2 * dt))
    assert report.final_state == x


def test_observer_receives_readonly_state():
    def tamper(x, t):
        with pytest.raises((ValueError, TypeError)):
            x[0] = 99.0

    integrate_const(ExplicitEuler(), zero_rhs, np.array([1.0]), 0.0, 0.2, 0.1, tamper)
    seen = []
    integrate_const(ExplicitEuler(), zero_rhs, [1.0], 0.0, 0.2, 0.1,
                    lambda x, t: seen.append(x))
    assert all(isinstance(s, tuple) for s in seen)


def test_observer_keeps_a_snapshot_of_any_sequence_state():
    # A UserList state is no list, yet each observation must outlive
    # the steps after it.
    seen = []
    report = integrate_const(RungeKutta4(), HARMONIC, UserList([1.0, 0.0]), 0, 0.3, 0.1,
                             lambda x, t: seen.append(x))
    assert len(seen) == 4
    assert all(type(s) is tuple for s in seen)
    assert seen[0] == (1.0, 0.0)
    assert len(set(seen)) == 4
    assert seen[-1] == tuple(report.final_state)


SNAPSHOT_RUNS = {
    "const": lambda: (integrate_const, RungeKutta4()),
    "const-controlled": lambda: (integrate_const, ControlledStepper(DormandPrince5())),
    "adaptive": lambda: (integrate_adaptive, ControlledStepper(DormandPrince5())),
    "const-dense": lambda: (integrate_const, DenseOutputDopri5()),
}


@pytest.mark.parametrize("run", SNAPSHOT_RUNS)
def test_stored_numpy_snapshots_match_the_list_run(run):
    # An observer may keep what it receives: later steps must not
    # change a numpy snapshot, so it equals the list run's bit for bit.
    def snapshots(x0):
        driver, stepper = SNAPSHOT_RUNS[run]()
        seen = []
        driver(stepper, LORENZ, x0, 0.0, 0.05, 0.01, lambda x, t: seen.append((t, x)))
        return [(t, [float(v).hex() for v in x]) for t, x in seen]

    as_list = snapshots([1.0, 2.0, 3.0])
    assert len(as_list) >= 4
    assert snapshots(np.array([1.0, 2.0, 3.0])) == as_list


def test_validation_errors():
    with pytest.raises(ValueError):
        integrate_const(ExplicitEuler(), zero_rhs, [1.0], 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate_const(ExplicitEuler(), zero_rhs, [1.0], 1.0, 0.0, 0.1)
    with pytest.raises(TypeError):
        integrate_const(object(), zero_rhs, [1.0], 0.0, 1.0, 0.1)


def test_non_stepper_rejected_before_observer():
    seen = []
    with pytest.raises(TypeError):
        integrate_const(object(), zero_rhs, [1.0], 0.0, 1.0, 0.1,
                        lambda x, t: seen.append(t))
    assert seen == []


RUNS = {
    "const-plain": lambda *a: integrate_const(RungeKutta4(), *a),
    "const-controlled": lambda *a: integrate_const(ControlledStepper(DormandPrince5()), *a),
    "const-dense": lambda *a: integrate_const(DenseOutputDopri5(), *a),
    "adaptive": lambda *a: integrate_adaptive(ControlledStepper(DormandPrince5()), *a),
    "adaptive-dense": lambda *a: integrate_adaptive(DenseOutputDopri5(), *a),
}


@pytest.mark.parametrize(
    "value", [math.inf, -math.inf, math.nan, 10**400], ids=["inf", "-inf", "nan", "huge-int"]
)
@pytest.mark.parametrize("bound", ["t0", "t1", "dt"])
@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_non_finite_bounds_rejected_before_any_call(run, bound, value):
    bounds = {"t0": 0.0, "t1": 1.0, "dt": 0.1, bound: value}
    counter = EvaluationCounter(expgrow)
    seen = []
    with pytest.raises(ValueError):
        run(counter, [1.0], bounds["t0"], bounds["t1"], bounds["dt"],
            lambda x, t: seen.append(t))
    assert counter.count == 0
    assert seen == []


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_interval_beyond_the_float_range_rejected_before_any_call(run):
    # t1 - t0 overflows: a trial clamped to t1 would be infinitely wide,
    # and a grid would have no step count.
    counter, seen = EvaluationCounter(expgrow), []
    with pytest.raises(ValueError, match="distance"):
        run(counter, [1.0], -1e308, 1e308, 1e307, lambda x, t: seen.append(t))
    assert counter.count == 0 and seen == []


def test_zero_step_run_ends_at_t0():
    # No whole width fits into [0, 1e-12]: plain and controlled runs
    # both report the untouched state at t0.
    reports = []
    for stepper in (RungeKutta4(), ControlledStepper(DormandPrince5())):
        times = []
        reports.append(integrate_const(stepper, expgrow, [1.0], 0.0, 1e-12, 0.1,
                                       lambda x, t: times.append(t)))
        assert times == [0.0]
    for report in reports:
        assert report.final_time == 0.0
        assert report.final_state == [1.0]
        assert report.steps_attempted == report.system_evaluations == 0


def test_recording_observer():
    times, states = [], []

    def record(x, t):
        times.append(t)
        states.append(list(x))

    integrate_const(RungeKutta4(), expgrow, [1.0], 0.0, 1.0, 0.25, record)
    assert times == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [len(s) for s in states] == [1] * 5
    assert states[-1][0] == pytest.approx(math.e, rel=1e-4)


# --- integrate_const, the generated fixed-step loop -------------------------


class OverridingRK4(RungeKutta4):
    """Overrides ``do_step``: the loop calls it, through a counter."""

    def do_step(self, system, x, t, dt, out=None):
        self.seen.append(system)
        return super().do_step(system, x, t, dt, out)


def rk4_with_own_do_step():
    """An RK4 whose instance carries a ``do_step`` set by the user."""
    stepper = RungeKutta4()

    def do_step(system, x, t, dt, out=None):
        stepper.seen.append(system)
        return RungeKutta4.do_step(stepper, system, x, t, dt, out)

    stepper.do_step = do_step
    return stepper


FIXED_KINDS = {"euler": ExplicitEuler, "rk4": RungeKutta4, "implicit": ImplicitEuler,
               "override": OverridingRK4, "own": rk4_with_own_do_step}


def make_fixed(kind):
    stepper = FIXED_KINDS[kind]()
    stepper.seen = []
    return stepper


def failing_harmonic(at):
    """HARMONIC, with its Jacobian, raising :class:`SolverError` on
    call number ``at`` (never for 0), and the times of its calls."""
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t)
        if len(calls) == at:
            raise SolverError("the rhs gives up")
        HARMONIC(x, dxdt, t)

    return JacobianSystem(rhs, HARMONIC.jacobian), calls


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("kind", sorted(FIXED_KINDS))
def test_a_failing_rhs_leaves_the_report_of_the_steps_before(kind, box):
    # The rhs fails on the second call of the third step (Euler's
    # first): the state and time after two steps, two steps and the
    # evaluations so far, the failing call included.
    system, calls = failing_harmonic(0)
    clean = integrate_const(make_fixed(kind), system, box([1.0, 0.5]), 0.0, 0.25, 0.125)
    per_step = len(calls) // 2
    system, calls = failing_harmonic(2 * per_step + min(2, per_step))
    with pytest.raises(SolverError, match="the rhs gives up") as info:
        integrate_const(make_fixed(kind), system, box([1.0, 0.5]), 0.0, 1.0, 0.125)
    report = info.value.partial_report
    assert [v.hex() for v in report.final_state] == [v.hex() for v in clean.final_state]
    assert (report.final_time, report.steps_accepted, report.steps_rejected) == (0.25, 2, 0)
    assert report.system_evaluations == len(calls)


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("kind", sorted(FIXED_KINDS))
def test_a_fixed_width_that_cannot_move_t_raises_before_any_call(kind, box):
    system, calls = failing_harmonic(0)
    stepper = make_fixed(kind)
    with pytest.raises(StepSizeUnderflowError, match="at t=1e[+]16: dt=0.01") as info:
        integrate_const(stepper, system, box([1.0, 0.0]), 1e16, 1e16 + 64.0, 0.01)
    report = info.value.partial_report
    assert calls == [] and stepper.seen == []
    assert (report.final_time, list(report.final_state)) == (1e16, [1.0, 0.0])
    assert report.steps_attempted == report.system_evaluations == 0


def blowing_up(x, dxdt, t):
    """-x, with inf in element 0 from t = 0.25 on."""
    for i in range(len(x)):
        dxdt[i] = -x[i]
    if t >= 0.25:
        dxdt[0] = math.inf


@pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("kind", ["euler", "rk4", "override", "own"])
def test_a_state_that_is_not_finite_raises_at_the_first_observation_or_the_end(kind, box, observed):
    # Against a loop over do_step: the first observed state that is not
    # finite, else the final one, raises with the state, time and counts
    # of the steps taken to it, and the observer never sees it.
    reference, x, counter = make_fixed(kind), box([1.0, 0.5]), EvaluationCounter(blowing_up)
    for k in range(1, 11):
        reference.do_step(counter, x, (k - 1) * 0.1, 0.1)
        if observed and not np.isfinite(x).all():
            break
    seen = []
    observer = (lambda v, t: seen.append(t)) if observed else None
    with pytest.raises(SolverError, match=f"^the state is not finite at t={k * 0.1!r}$") as info:
        integrate_const(make_fixed(kind), blowing_up, box([1.0, 0.5]), 0.0, 1.0, 0.1, observer)
    report = info.value.partial_report
    assert [v.hex() for v in report.final_state] == [v.hex() for v in x] and math.isinf(x[0])
    assert (report.final_time, report.steps_accepted, report.steps_rejected) == (k * 0.1, k, 0)
    assert report.system_evaluations == counter.count
    assert seen == ([j * 0.1 for j in range(k)] if observed else [])
    assert k == ((4 if kind == "euler" else 3) if observed else 10)


@settings(max_examples=10, deadline=None, database=None)
@given(step=st.integers(1, 10))
@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("kind", ["euler", "rk4", "implicit"])
def test_an_observer_that_raises_leaves_the_report_of_the_steps_it_saw(kind, box, step):
    # The observer raises at step `step`, taken: against a loop over
    # do_step, the state, time, steps and evaluations after it.
    system, calls = failing_harmonic(0)
    reference, x, counter = make_fixed(kind), box([1.0, 0.5]), EvaluationCounter(system)
    for k in range(step):
        reference.do_step(counter, x, k * 0.1, 0.1)
    seen = []

    def observer(v, t):
        seen.append(t)
        if len(seen) > step:
            raise SolverError("the observer gives up")

    with pytest.raises(SolverError, match="^the observer gives up$") as info:
        integrate_const(make_fixed(kind), system, box([1.0, 0.5]), 0.0, 1.0, 0.1, observer)
    report = info.value.partial_report
    assert [v.hex() for v in report.final_state] == [v.hex() for v in x]
    assert (report.final_time, report.steps_accepted, report.steps_rejected) == (step * 0.1, step, 0)
    assert report.system_evaluations == counter.count == len(calls) - counter.count
    assert seen == [k * 0.1 for k in range(step + 1)]


START_RAISING = {
    "rk4 const": (RungeKutta4, integrate_const),
    "implicit const": (ImplicitEuler, integrate_const),
    "dp5 const": (lambda: ControlledStepper(DormandPrince5()), integrate_const),
    "dense const": (DenseOutputDopri5, integrate_const),
    "dp5 adaptive": (lambda: ControlledStepper(DormandPrince5()), integrate_adaptive),
    "dense adaptive": (DenseOutputDopri5, integrate_adaptive),
}


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("path", list(START_RAISING))
def test_an_observer_that_raises_at_the_start_leaves_an_empty_report(path, box):
    # The first observation, at t0, comes before any step or evaluation.
    make, run = START_RAISING[path]
    system, calls = failing_harmonic(0)

    def observer(v, t):
        raise SolverError("the observer gives up")

    with pytest.raises(SolverError, match="^the observer gives up$") as info:
        run(make(), system, box([1.0, 0.5]), 0.25, 1.0, 0.1, observer)
    report = info.value.partial_report
    assert [float(v) for v in report.final_state] == [1.0, 0.5]
    assert tuple(report)[1:] == (0.25, 0, 0, 0) and calls == []


# --- one failure contract over every driver path -----------------------------


# Each driver path on [0, 1] with width or first width 0.1: its stepper,
# its driver, and how the run meets the grid.
CONTRACT_PATHS = {
    "fixed explicit": (RungeKutta4, integrate_const, "fixed"),
    "fixed implicit": (ImplicitEuler, integrate_const, "fixed"),
    "controlled targets": (lambda: ControlledStepper(DormandPrince5()), integrate_const, "targets"),
    "dense samples": (DenseOutputDopri5, integrate_const, "samples"),
    "adaptive": (lambda: ControlledStepper(DormandPrince5()), integrate_adaptive, "steps"),
}
CONTRACT_WIDTH = 0.1


def contract_cases():
    """Every (path, observed, failure) the contract covers: the observer
    raises at its first call (t0) or its third, the rhs at its tenth, a
    Newton step does not converge, a fixed state stops being finite."""
    for path, (_, _, grid) in CONTRACT_PATHS.items():
        for observed in (False, True):
            failures = ["rhs 10", *(["observer 1", "observer 3"] if observed else []),
                        *(["not finite"] if grid == "fixed" else []), *(["newton"] if path == "fixed implicit" else [])]
            yield from ((path, observed, failure) for failure in failures)


def contract_system(failure):
    """HARMONIC with its Jacobian, failing as ``failure`` says, and the log of its calls' times."""
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t.hex())
        if failure == "rhs 10" and len(calls) == 10:
            raise SolverError("the rhs gives up")
        HARMONIC(x, dxdt, t)
        if failure == "not finite" and t >= 0.25:
            dxdt[0] = math.inf

    def jacobian(x, jac, t):
        HARMONIC.jacobian(x, jac, t)
        if failure == "newton" and t >= 0.35:  # a Jacobian of the wrong sign: each Newton update overshoots more
            for row in jac:
                row *= -30.0

    return JacobianSystem(rhs, jacobian), calls


def contract_observer(failure, seen):
    """An observer logging (t, state) in ``seen``, raising at the call ``failure`` names."""
    def observer(x, t):
        seen.append((t.hex(), [float(v).hex() for v in x]))
        if failure == f"observer {len(seen)}":
            raise SolverError("the observer gives up")

    return observer


def contract_outcome(error, report, calls, seen):
    return (type(error), str(error), [float(v).hex() for v in report.final_state], report.final_time.hex(),
            report.steps_accepted, report.steps_rejected, report.system_evaluations, calls, seen)


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("path, observed, failure", list(contract_cases()))
def test_every_driver_path_fails_as_a_loop_over_the_public_per_step_api(path, observed, failure, box):
    # The error's type and message, its partial report field by field
    # (the state by float.hex), the rhs calls and the observations,
    # against reference_run.  Pytest's default warning filters apply:
    # numpy's RuntimeWarnings on a non-finite numpy state are not this
    # test's subject.
    make, driver, _ = CONTRACT_PATHS[path]
    outcomes = []
    for run in ("driver", "reference"):
        (system, calls), seen = contract_system(failure), []
        observer = contract_observer(failure, seen) if observed else None
        if run == "reference":
            error, report, _ = reference_run(make(), system, box([1.0, 0.5]), 0.0, 1.0, CONTRACT_WIDTH, observer,
                                             adaptive=driver is integrate_adaptive)
        else:
            with pytest.raises(SolverError) as info:
                driver(make(), system, box([1.0, 0.5]), 0.0, 1.0, CONTRACT_WIDTH, observer)
            error, report = info.value, info.value.partial_report
        outcomes.append(contract_outcome(error, report, calls, seen))
    assert outcomes[0] == outcomes[1]
    newton = failure == "newton" or (path, failure) == ("fixed implicit", "not finite")
    assert outcomes[1][0] is (ConvergenceError if newton else SolverError)
    if failure == "observer 1":
        assert outcomes[1][3:7] == ((0.0).hex(), 0, 0, 0)


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("kind", ["euler", "rk4", "implicit"])
def test_a_width_that_stops_moving_t_midway_leaves_the_report_of_the_steps_before(kind, box):
    # From 1.0, 0.6 ulp moves t by one ulp on step 1, then 1.2 ulp rounds
    # onto the time reached: step 2 raises before any call, t_next == t.
    width = 0.6 * math.ulp(1.0)
    system, calls = failing_harmonic(0)
    reference, x, counter = make_fixed(kind), box([1.0, 0.5]), EvaluationCounter(system)
    reference.do_step(counter, x, 1.0, width)
    with pytest.raises(StepSizeUnderflowError) as info:
        integrate_const(make_fixed(kind), system, box([1.0, 0.5]), 1.0, 1.0 + 64 * math.ulp(1.0), width)
    report = info.value.partial_report
    assert [v.hex() for v in report.final_state] == [v.hex() for v in x]
    assert (report.final_time, report.steps_accepted) == (1.0 + width, 1)
    assert report.system_evaluations == counter.count == len(calls) - counter.count


@pytest.mark.parametrize("kind", ["override", "own"])
def test_a_do_step_of_the_users_is_called_once_per_step_through_a_counter(kind):
    stepper = make_fixed(kind)
    report = integrate_const(stepper, HARMONIC, [1.0, 0.0], 0.0, 1.0, 0.125)
    counter = stepper.seen[0]
    assert isinstance(counter, EvaluationCounter) and all(s is counter for s in stepper.seen)
    assert len(stepper.seen) == report.steps_accepted == 8
    assert report.system_evaluations == counter.count == 32


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
def test_implicit_euler_keeps_its_counts_on_the_loop(box):
    # As a loop over its public do_step: the same bits, steps and
    # evaluations, the loop's counted by a counter around the system.
    system, calls = failing_harmonic(0)
    stepper, reference = ImplicitEuler(), ImplicitEuler()
    report = integrate_const(stepper, system, box([1.0, 0.5]), 0.0, 1.0, 0.125)
    driven, counter = len(calls), EvaluationCounter(system)
    x = box([1.0, 0.5])
    for k in range(8):
        reference.do_step(counter, x, 0.125 * k, 0.125)
    assert [v.hex() for v in report.final_state] == [v.hex() for v in x]
    assert report.steps_accepted == 8 and report.steps_rejected == 0
    assert report.system_evaluations == driven == len(calls) - driven == counter.count


def test_the_loop_runs_a_shipped_step_inline_and_calls_any_other(monkeypatch):
    import odekit.integrate as integrate

    class Checked(SequenceAlgebra):
        def scale_sum(self, out, coeffs, terms):
            return super().scale_sum(out, coeffs, terms)

    forms, real = [], integrate._fixed_code
    monkeypatch.setattr(integrate, "_fixed_code", lambda step, observed: forms.append(step is not None)
                        or real(step, observed))
    warm = RungeKutta4()
    warm.do_step(HARMONIC, [1.0, 0.0], 0.0, 0.1)  # its do_step entry is installed
    shipped = (warm, ExplicitEuler(), CashKarp54(), DormandPrince5(), ImplicitEuler())
    runs = [(stepper, box, True) for stepper in shipped for box in (list, np.array)]
    runs += [(RungeKutta4(Checked()), list, True), (ImplicitEuler(Checked()), list, True)]
    runs += [(stepper, box, False) for stepper in [make_fixed(kind) for kind in ("override", "own")]
             + [DuckEuler()] for box in (list, np.array)]
    for stepper, box, _ in runs:
        integrate_const(stepper, HARMONIC, box([1.0, 0.0]), 0.0, 0.5, 0.125)
    assert forms == [inline for _, _, inline in runs]


class Forwarding:
    """A proxy shaped like a tracing one: each public method of the
    target's class is wrapped as an instance attribute, every other
    read is forwarded to the target, and every write lands here."""

    def __init__(self, target):
        self._target = target
        for name, _ in inspect.getmembers(type(target), inspect.isfunction):
            if not name.startswith("_"):
                setattr(self, name, self._wrap(getattr(target, name)))

    @staticmethod
    def _wrap(method):
        return lambda *args, **kwargs: method(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._target, name)


PROXIED = {
    "rk4": RungeKutta4,
    "implicit": ImplicitEuler,
    "controlled": lambda: ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-8, rtol=1e-8)),
    "dense": lambda: DenseOutputDopri5(ControllerParams(atol=1e-8, rtol=1e-8)),
}


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("kind", PROXIED)
def test_a_forwarding_proxy_takes_the_calling_form_with_the_same_bits(kind, box, monkeypatch):
    # An inline step on the proxy would keep the controller's state on
    # the proxy, where the target's reset never clears it, so the proxy
    # calls the target's stepping method: twice, each run as the bare
    # stepper's.  A dense proxy still samples the grid with the target's
    # sampler, on the states the target's trials fill.
    import odekit.integrate as integrate

    forms, walk, fixed = [], integrate._walk_code, integrate._fixed_code
    monkeypatch.setattr(integrate, "_walk_code", lambda trial, observe: forms.append((trial is not None, observe))
                        or walk(trial, observe))
    monkeypatch.setattr(integrate, "_fixed_code", lambda step, observed: forms.append((step is not None, observed))
                        or fixed(step, observed))
    for drive in (integrate_const, integrate_adaptive)[:1 if kind in ("rk4", "implicit") else 2]:
        runs, forms[:] = [], []
        for wrap in (lambda stepper: stepper, Forwarding):
            stepper = wrap(PROXIED[kind]())
            for _ in range(2):
                seen = []
                report = drive(stepper, HARMONIC, box([1.0, 0.5]), 0.0, 1.0, 0.125,
                               lambda x, t: seen.append((t.hex(), [float(v).hex() for v in x])))
                runs.append((seen, [float(v).hex() for v in report.final_state], report.final_time.hex(),
                             report.steps_accepted, report.steps_rejected, report.system_evaluations))
        assert runs[1:] == runs[:1] * 3
        assert [inline for inline, _ in forms] == [True, True, False, False]
        if kind == "dense" and drive is integrate_const:
            assert [observe for _, observe in forms] == ["samples"] * 4


# --- integrate_const with a controlled stepper ------------------------------


def test_controlled_stepper_observes_on_grid():
    ctl = ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-8, rtol=1e-8))
    times, values = [], []

    def obs(x, t):
        times.append(t)
        values.append(x[0])

    report = integrate_const(ctl, expgrow, np.array([1.0]), 0.0, 2.0, 0.5, obs)
    assert times == [0.0, 0.5, 1.0, 1.5, 2.0]
    for t, v in zip(times, values):
        assert v == pytest.approx(math.exp(t), rel=1e-7)
    assert report.steps_rejected + report.steps_accepted == report.steps_attempted


def test_controlled_grid_more_accurate_than_tolerance_scale():
    ctl = ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-10, rtol=1e-10))
    report = integrate_const(ctl, HARMONIC, np.array([1.0, 0.0]), 0.0, 10.0, 1.0)
    assert report.final_state[0] == pytest.approx(math.cos(10.0), abs=1e-7)


# --- integrate_adaptive -----------------------------------------------------


def test_adaptive_zero_rhs_takes_few_growing_steps():
    ctl = ControlledStepper(DormandPrince5())
    times = []
    report = integrate_adaptive(ctl, zero_rhs, [1.0], 0.0, 100.0, 0.1,
                                lambda x, t: times.append(t))
    assert report.steps_rejected == 0
    assert report.steps_accepted < 20
    assert times == sorted(times)
    assert times[-1] == 100.0


def test_adaptive_accuracy_and_rejection_fraction():
    ctl = ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-6, rtol=1e-6))
    report = integrate_adaptive(ctl, expgrow, np.array([1.0]), 0.0, 1.0, 0.1)
    assert abs(report.final_state[0] - math.e) < 1e-4
    assert report.steps_rejected / report.steps_attempted < 0.30
    assert report.final_time == 1.0


def test_adaptive_observer_strictly_increasing_ending_at_t1():
    ctl = ControlledStepper(DormandPrince5())
    times = []
    integrate_adaptive(ctl, HARMONIC, np.array([1.0, 0.0]), 0.0, 7.3, 0.05,
                       lambda x, t: times.append(t))
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[0] == 0.0
    assert times[-1] == 7.3


def test_adaptive_requires_controlled_stepper():
    with pytest.raises(TypeError):
        integrate_adaptive(RungeKutta4(), expgrow, [1.0], 0.0, 1.0, 0.1)


def test_adaptive_underflow_attaches_partial_report():
    def nasty(x, dxdt, t):
        # Finite at the start, NaN beyond it: the width keeps shrinking.
        dxdt[0] = -x[0] if t == 0.0 else float("nan")

    ctl = ControlledStepper(DormandPrince5())
    with pytest.raises(StepSizeUnderflowError) as info:
        integrate_adaptive(ctl, nasty, np.array([1.0]), 0.0, 1.0, 0.1)
    partial = info.value.partial_report
    assert partial is not None
    assert partial.final_time == 0.0
    assert partial.steps_rejected > 0


# --- integrate_const with a dense-output stepper ----------------------------


def test_dense_driver_observation_grid():
    d = DenseOutputDopri5(ControllerParams(atol=1e-6, rtol=1e-6))
    times, values = [], []

    def obs(x, t):
        times.append(t)
        values.append(x[0])

    report = integrate_const(d, expgrow, np.array([1.0]), 0.0, 10.0, 0.1, obs)
    assert len(times) == 101
    assert times[0] == 0.0
    assert times[-1] == 10.0
    # smooth exponential: far fewer internal steps than observations
    assert report.steps_accepted < 101
    worst = max(abs(v - math.exp(t)) / math.exp(t) for t, v in zip(times, values))
    assert worst < 1e-5


def test_dense_driver_degenerate_grid():
    d = DenseOutputDopri5()
    calls = []
    integrate_const(d, expgrow, np.array([1.0]), 0.0, 0.5, 2.0,
                    lambda x, t: calls.append(t))
    assert calls == [0.0, 0.5]


def test_dense_driver_grid_spacing():
    d = DenseOutputDopri5()
    times = []
    integrate_const(d, HARMONIC, np.array([1.0, 0.0]), 0.0, 3.0, 0.5,
                    lambda x, t: times.append(t))
    assert times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])


def test_dense_driver_counts_evaluations():
    d = DenseOutputDopri5()
    report = integrate_const(d, expgrow, np.array([1.0]), 0.0, 2.0, 0.25)
    # FSAL chaining inside the dense stepper: 6 per accepted step plus
    # the very first stage, plus 7 per rejected trial
    expected = 6 * report.steps_accepted + 1 + 7 * report.steps_rejected
    assert report.system_evaluations == expected


def test_integrate_const_dispatches_dense_stepper():
    d = DenseOutputDopri5()
    times = []
    report = integrate_const(d, expgrow, np.array([1.0]), 0.0, 1.0, 0.25,
                             lambda x, t: times.append(t))
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert report.final_state[0] == pytest.approx(math.e, rel=1e-5)


class OwnDense:
    """A dense-output stepper of the user's: the shipped one behind
    ``try_step``, ``calc_state`` and ``interval``, no grid sampler."""

    def __init__(self):
        self.inner = DenseOutputDopri5(ControllerParams(atol=1e-8, rtol=1e-8))

    def reset(self):
        self.inner.reset()

    def try_step(self, system, x, t, dt):
        return self.inner.try_step(system, x, t, dt)

    def calc_state(self, t, out=None):
        return self.inner.calc_state(t, out)

    @property
    def interval(self):
        return self.inner.interval


def test_a_dense_stepper_of_your_own_lands_on_the_grid():
    # Without the shipped grid sampler it runs as a controlled stepper.
    runs = []
    for stepper in (OwnDense(), ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-8, rtol=1e-8))):
        seen = []
        report = integrate_const(stepper, LORENZ, [10.0, 10.0, 10.0], 0.0, 0.1, 0.01,
                                 lambda x, t: seen.append((t, x)))
        runs.append((seen, report.final_state, report.steps_accepted, report.system_evaluations))
    assert runs[0] == runs[1]
    assert [t for t, _ in runs[0][0]] == pytest.approx([0.01 * k for k in range(11)])


# --- agreement with a tight reference ---------------------------------------


def test_drivers_track_reference_on_harmonic():
    # Per-step tolerances accumulate over [0,100]; the observed gap to
    # the closed form sits near 30x the requested tolerance, so the
    # asserted envelope is 100x.  See the decision ledger.
    tol = 1e-6
    ref = lambda t: (math.cos(t), -math.sin(t))

    ctl = ControlledStepper(DormandPrince5(), ControllerParams(atol=tol, rtol=tol))
    report = integrate_adaptive(ctl, HARMONIC, np.array([1.0, 0.0]), 0.0, 100.0, 0.01)
    exact = ref(100.0)
    gap_adaptive = max(abs(a - b) for a, b in zip(report.final_state, exact))
    assert gap_adaptive < 100 * tol

    d = DenseOutputDopri5(ControllerParams(atol=tol, rtol=tol))
    worst = 0.0

    def obs(x, t):
        nonlocal worst
        e = ref(t)
        worst = max(worst, max(abs(a - b) for a, b in zip(x, e)))

    integrate_const(d, HARMONIC, np.array([1.0, 0.0]), 0.0, 100.0, 0.5, obs)
    assert worst < 100 * tol


# --- EvaluationCounter ------------------------------------------------------


def test_evaluation_counter_reset():
    counter = EvaluationCounter(expgrow)
    out = [0.0]
    counter([1.0], out, 0.0)
    counter([1.0], out, 0.0)
    assert counter.count == 2
    counter.reset()
    assert counter.count == 0
