"""Property: list and numpy runs agree bit for bit through every driver."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from odekit import (
    CashKarp54,
    ControlledStepper,
    ControllerParams,
    DormandPrince5,
    ExplicitEuler,
    RungeKutta4,
    integrate_adaptive,
    integrate_const,
)


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
