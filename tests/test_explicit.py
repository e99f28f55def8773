"""Explicit Runge-Kutta steppers: hand examples, oracles, FSAL accounting.

Reference values for x'=x come from the truncated Taylor expansion of
e^dt, which is what a Runge-Kutta step computes exactly on this problem.
"""

import math

import numpy as np
import pytest

from odekit import (
    LORENZ,
    CashKarp54,
    DormandPrince5,
    EvaluationCounter,
    ExplicitEuler,
    RK4_CLASSIC,
    RungeKutta4,
)
from odekit.explicit import EmbeddedRungeKutta, StageRecord


def expgrow(x, dxdt, t):
    dxdt[0] = x[0]


def zero_rhs(x, dxdt, t):
    for i in range(len(x)):
        dxdt[i] = 0.0


def e_series(z, terms=30):
    # high-precision oracle for e^z, summed smallest-first
    parts = [z**k / math.factorial(k) for k in range(terms)]
    return sum(reversed(parts))


# --- explicit Euler ---------------------------------------------------------


def test_euler_exponential_one_step():
    out = ExplicitEuler().do_step(expgrow, [1.0], 0.0, 0.1)
    assert out[0] == pytest.approx(1.1, rel=1e-15)


def test_euler_fixed_point():
    out = ExplicitEuler().do_step(zero_rhs, np.array([5.0, 7.0]), 0.0, 1.0)
    assert list(out) == [5.0, 7.0]


def test_euler_lorenz_hand_value():
    # f(10,10,10) = (0, 170, 73.333...), then x + dt*f with dt=0.01
    out = ExplicitEuler().do_step(LORENZ, [10.0, 10.0, 10.0], 0.0, 0.01)
    assert out[0] == 10.0
    assert out[1] == pytest.approx(11.7, rel=1e-14)
    assert out[2] == pytest.approx(10.0 + 0.01 * (100.0 - 80.0 / 3.0), rel=1e-14)


def test_euler_order_info():
    stepper = ExplicitEuler()
    assert stepper.order == 1 and stepper.stage_count == 1


# --- classical RK4 ----------------------------------------------------------


def test_rk4_zero_rhs_unchanged():
    out = RungeKutta4().do_step(zero_rhs, [3.0], 0.0, 0.7)
    assert out == [3.0]


def test_rk4_constant_rhs():
    # exact for constants up to roundoff in the weight accumulation
    def one(x, dxdt, t):
        dxdt[0] = 1.0

    out = RungeKutta4().do_step(one, [0.0], 0.0, 0.5)
    assert out[0] == pytest.approx(0.5, abs=1e-15)


def test_rk4_matches_truncated_taylor():
    # one RK4 step on x'=x reproduces 1 + h + h^2/2 + h^3/6 + h^4/24 exactly
    h = 0.1
    taylor = sum(h**k / math.factorial(k) for k in range(4, -1, -1))
    out = RungeKutta4().do_step(expgrow, [1.0], 0.0, h)
    assert out[0] == pytest.approx(1.1051708333333333, rel=1e-15)
    assert out[0] == pytest.approx(taylor, rel=1e-15)
    # and differs from e^h only at the h^5/120 term
    assert abs(out[0] - e_series(h)) == pytest.approx(h**5 / 120, rel=0.05)


def test_rk4_order_info():
    stepper = RungeKutta4()
    assert stepper.order == 4 and stepper.stage_count == 4 and stepper.error_order is None


# --- Cash-Karp 5(4) ---------------------------------------------------------


def test_ck_zero_rhs():
    x, xerr = CashKarp54().do_step_with_error(zero_rhs, [2.0], 0.0, 0.3)
    assert x == [2.0]
    assert xerr[0] == 0.0


def test_ck_exact_on_quartic():
    # x' = t^4 integrates to 1/5; a 5th order method is exact here
    def quartic(x, dxdt, t):
        dxdt[0] = t**4

    x, _ = CashKarp54().do_step_with_error(quartic, [0.0], 0.0, 1.0)
    assert x[0] == pytest.approx(0.2, abs=1e-12)


def test_ck_exponential_accuracy():
    x, xerr = CashKarp54().do_step_with_error(expgrow, np.array([1.0]), 0.0, 0.1)
    assert abs(xerr[0]) < 1e-7
    assert abs(x[0] - e_series(0.1)) < 1e-9


def test_ck_do_step_discards_error():
    a = CashKarp54().do_step(expgrow, [1.0], 0.0, 0.1)
    b, _ = CashKarp54().do_step_with_error(expgrow, [1.0], 0.0, 0.1)
    assert a == b


# --- Dormand-Prince 5(4) ----------------------------------------------------


def test_dp5_zero_rhs_stages():
    x, xerr, record = DormandPrince5().do_step_with_error(zero_rhs, [4.0], 0.0, 0.2)
    assert x == [4.0]
    assert xerr[0] == 0.0
    assert isinstance(record, StageRecord)
    assert len(record.derivatives) == 7
    for stage in record.derivatives:
        assert stage[0] == 0.0


def test_dp5_exponential_accuracy():
    x, xerr, _ = DormandPrince5().do_step_with_error(expgrow, np.array([1.0]), 0.0, 0.1)
    assert abs(x[0] - e_series(0.1)) < 1e-9


def test_dp5_new_derivative_is_fsal_stage():
    # last stage derivative is f evaluated at the step result
    x, _, record = DormandPrince5().do_step_with_error(expgrow, [1.0], 0.0, 0.1)
    assert record.new_derivative[0] == pytest.approx(x[0], rel=1e-15)


def test_dp5_fsal_eval_economy():
    # 10 chained steps with derivative reuse: 7 + 6*9 = 61 evaluations
    counter = EvaluationCounter(expgrow)
    dp5 = DormandPrince5()
    x = [1.0]
    t = 0.0
    dxdt_in = None
    for _ in range(10):
        x, _, record = dp5.do_step_with_error(counter, x, t, 0.1, dxdt_in=dxdt_in)
        dxdt_in = record.new_derivative
        t += 0.1
    assert counter.count == 61


def test_dp5_without_reuse_costs_seven():
    counter = EvaluationCounter(expgrow)
    DormandPrince5().do_step_with_error(counter, [1.0], 0.0, 0.1)
    assert counter.count == 7


def test_embedded_pair_needs_embedded_weights():
    with pytest.raises(ValueError, match="rk4: embedded weights required"):
        EmbeddedRungeKutta(RK4_CLASSIC)


def test_dp5_order_info():
    stepper = DormandPrince5()
    assert stepper.order == 5 and stepper.error_order == 4 and stepper.stage_count == 7
    assert stepper.fsal


# --- shared stepper contracts ----------------------------------------------

STEPPERS = [ExplicitEuler, RungeKutta4, CashKarp54, DormandPrince5]


@pytest.mark.parametrize("cls", STEPPERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("container", [list, np.array], ids=["list", "numpy"])
def test_inplace_matches_out_of_place(cls, container):
    # out=None overwrites x; a separate out buffer leaves x alone.
    # Both routes must agree bit for bit.
    x_inplace = container([10.0, 10.0, 10.0])
    result = cls().do_step(LORENZ, x_inplace, 0.0, 0.01)
    assert result is x_inplace

    x_src = container([10.0, 10.0, 10.0])
    buf = container([0.0, 0.0, 0.0])
    out = cls().do_step(LORENZ, x_src, 0.0, 0.01, out=buf)
    assert out is buf
    assert [float(v) for v in x_src] == [10.0, 10.0, 10.0]
    assert [float(a) for a in result] == [float(b) for b in out]


@pytest.mark.parametrize("cls", STEPPERS, ids=lambda c: c.__name__)
def test_out_aliasing_input_is_permitted(cls):
    # writing the result over the input through out= matches in-place mode
    x = [10.0, 10.0, 10.0]
    r1 = cls().do_step(LORENZ, x, 0.0, 0.01, out=x)
    r2 = cls().do_step(LORENZ, [10.0, 10.0, 10.0], 0.0, 0.01)
    assert r1 == r2


@pytest.mark.parametrize("cls", STEPPERS, ids=lambda c: c.__name__)
def test_stage_evaluation_count(cls):
    # A first-same-as-last stage has zero weight: do_step skips it.
    stepper = cls()
    counter = EvaluationCounter(expgrow)
    stepper.do_step(counter, [1.0], 0.0, 0.1)
    assert counter.count == stepper.stage_count - stepper.fsal


@pytest.mark.parametrize("cls", STEPPERS, ids=lambda c: c.__name__)
def test_observed_order_on_exponential(cls):
    # log-log slope under dt halving against the series oracle
    expected = {"ExplicitEuler": 1.0, "RungeKutta4": 4.0, "CashKarp54": 5.0,
                "DormandPrince5": 5.0}[cls.__name__]
    band = {"ExplicitEuler": 0.1, "RungeKutta4": 0.2, "CashKarp54": 0.3,
            "DormandPrince5": 0.3}[cls.__name__]
    stepper = cls()
    errs = []
    dts = [0.1 / 2**k for k in range(4)]
    for dt in dts:
        n = round(1.0 / dt)
        x = [1.0]
        t = 0.0
        for _ in range(n):
            x = stepper.do_step(expgrow, x, t, dt, out=x)
            t += dt
        errs.append(abs(x[0] - e_series(1.0)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(expected, abs=band)
