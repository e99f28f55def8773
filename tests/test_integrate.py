"""Integration drivers: observation grids, counters, capability dispatch."""

import math

import numpy as np
import pytest

from odekit import (
    ControlledStepper,
    ControllerParams,
    DenseOutputDopri5,
    DormandPrince5,
    EvaluationCounter,
    ExplicitEuler,
    HARMONIC,
    LORENZ,
    RungeKutta4,
    StepSizeUnderflowError,
    TrajectoryRecorder,
    integrate_adaptive,
    integrate_const,
)


def expgrow(x, dxdt, t):
    dxdt[0] = x[0]


def zero_rhs(x, dxdt, t):
    for i in range(len(x)):
        dxdt[i] = 0.0


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


def test_final_time_clamped_to_t1():
    # 0.1 is inexact in binary; the last grid point must still be t1
    times = []
    integrate_const(ExplicitEuler(), zero_rhs, [0.0], 0.0, 0.7, 0.1,
                    lambda x, t: times.append(t))
    assert times[-1] == 0.7
    assert len(times) == 8


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


def test_trajectory_recorder():
    rec = TrajectoryRecorder()
    integrate_const(RungeKutta4(), expgrow, [1.0], 0.0, 1.0, 0.25, rec)
    times, states = rec.as_arrays()
    assert times.shape == (5,)
    assert states.shape == (5, 1)
    assert states[-1, 0] == pytest.approx(math.e, rel=1e-4)


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
        dxdt[0] = float("nan")

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
