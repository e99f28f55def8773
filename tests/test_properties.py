"""Properties: list and numpy runs agree bit for bit through every
driver; rejected trials change nothing; drivers observe exactly their
grid, stop on it, and never evaluate past t1; the dense interpolant
reproduces both ends of its interval."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odekit import (
    CashKarp54,
    ControlledStepper,
    ControllerParams,
    DenseOutputDopri5,
    DormandPrince5,
    ExplicitEuler,
    RungeKutta4,
    integrate_adaptive,
    integrate_const,
    integrate_const_dense,
)
from odekit.integrate import GRID_SNAP


def ring(x, dxdt, t):
    # Elementwise so both containers run the same float operations.
    n = len(x)
    for i in range(n):
        dxdt[i] = x[(i + 1) % n] - x[i] * x[i] * x[i] + 0.5 * t


PLAIN = {"euler": ExplicitEuler, "rk4": RungeKutta4}
PAIRS = {"ck54": CashKarp54, "dopri5": DormandPrince5}


def run(driver, make, x0, t1, dt):
    seen = []
    report = driver(make(), ring, x0, 0.0, t1, dt, lambda x, t: seen.append((t, list(x))))
    counters = (
        report.final_time,
        report.steps_attempted,
        report.steps_accepted,
        report.steps_rejected,
        report.system_evaluations,
    )
    return [float(v) for v in report.final_state], counters, seen


@settings(max_examples=40, deadline=None, database=None)
@given(
    x0=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4),
    t1=st.floats(0.05, 1.5),
    dt=st.floats(0.01, 0.4),
    tol=st.floats(1e-9, 1e-3),
    stepper=st.sampled_from(sorted(PLAIN) + sorted(PAIRS)),
    adaptive=st.booleans(),
)
def test_list_and_numpy_runs_bit_identical(x0, t1, dt, tol, stepper, adaptive):
    if stepper in PLAIN:
        make, driver = PLAIN[stepper], integrate_const
    else:
        params = ControllerParams(atol=tol, rtol=tol)

        def make():
            return ControlledStepper(PAIRS[stepper](), params)

        driver = integrate_adaptive if adaptive else integrate_const
    as_list = run(driver, make, list(x0), t1, dt)
    as_numpy = run(driver, make, np.array(x0), t1, dt)
    assert as_list == as_numpy


# --- trials, grids and interval ends ---------------------------------------


def make_trial_stepper(kind, tol):
    params = ControllerParams(atol=tol, rtol=tol)
    if kind == "dense":
        return DenseOutputDopri5(params)
    return ControlledStepper(PAIRS[kind](), params)


@settings(max_examples=25, deadline=None, database=None)
@given(
    x0=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3),
    dt=st.floats(0.05, 4.0),
    tol=st.floats(1e-9, 1e-3),
    kind=st.sampled_from(["ck54", "dopri5", "dense"]),
    as_numpy=st.booleans(),
)
def test_rejected_trial_leaves_state_and_time(x0, dt, tol, kind, as_numpy):
    stepper = make_trial_stepper(kind, tol)
    x = np.array(x0) if as_numpy else list(x0)
    t = 0.0
    for _ in range(6):
        before = list(x)
        result = stepper.try_step(ring, x, t, dt)
        if result.accepted:
            assert result.t == t + dt
            t = result.t
        else:
            assert list(x) == before
            assert result.t == t
        dt = result.dt


def expected_grid(t0, t1, dt):
    count = int(np.floor((t1 - t0) / dt + GRID_SNAP))
    times = [t0 + k * dt for k in range(count + 1)]
    if abs(times[-1] - t1) <= GRID_SNAP * dt:
        times[-1] = t1
    return times


def record_run(driver, stepper, t0, t1, dt):
    evals, seen = [], []

    def rhs(x, dxdt, t):
        evals.append(t)
        ring(x, dxdt, t)

    report = driver(stepper, rhs, [0.3, -0.7], t0, t1, dt, lambda x, t: seen.append(t))
    return report, evals, seen


@settings(max_examples=40, deadline=None, database=None)
@given(
    t0=st.floats(-2.0, 2.0),
    span=st.floats(0.05, 1.5),
    dt=st.floats(0.01, 0.4),
    tol=st.floats(1e-9, 1e-3),
    case=st.sampled_from(["fixed", "controlled", "adaptive", "dense"]),
)
# The last grid point 0.3 is snapped onto t1 from above.
@example(t0=0.0, span=0.3 - 1e-12, dt=0.1, tol=1e-6, case="fixed")
def test_drivers_observe_the_grid_and_stop_at_t1(t0, span, dt, tol, case):
    t1 = t0 + span
    if case in ("fixed", "controlled"):
        stepper = RungeKutta4() if case == "fixed" else make_trial_stepper("dopri5", tol)
        report, evals, seen = record_run(integrate_const, stepper, t0, t1, dt)
        grid = expected_grid(t0, t1, dt)
        assert seen == grid and report.final_time == grid[-1]
    elif case == "adaptive":
        stepper = make_trial_stepper("ck54", tol)
        report, evals, seen = record_run(integrate_adaptive, stepper, t0, t1, dt)
        assert seen[0] == t0 and seen[-1] == t1 == report.final_time
        assert all(a < b for a, b in zip(seen, seen[1:]))
    else:
        stepper = make_trial_stepper("dense", tol)
        report, evals, seen = record_run(integrate_const_dense, stepper, t0, t1, dt)
        inner = [t for t in expected_grid(t0, t1, dt) if t < t1 - GRID_SNAP * dt]
        assert seen == inner + [t1] and report.final_time == t1
    assert max(evals, default=t0) <= math.nextafter(t1, math.inf)


@settings(max_examples=25, deadline=None, database=None)
@given(
    x0=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3),
    dt=st.floats(0.01, 1.0),
    tol=st.floats(1e-9, 1e-3),
)
def test_interpolant_reproduces_interval_ends(x0, dt, tol):
    dense = make_trial_stepper("dense", tol)
    dense.initialize(list(x0), 0.0, dt)
    before = dense.current_state
    for _ in range(4):
        lo, hi = dense.do_step(ring)
        after = dense.current_state
        for got, want, other in zip(dense.calc_state(lo), before, after):
            assert abs(got - want) <= 1e-12 * max(abs(want), abs(other), 1e-300)
        for got, want, other in zip(dense.calc_state(hi), after, before):
            assert abs(got - want) <= 1e-12 * max(abs(want), abs(other), 1e-300)
        before = after
