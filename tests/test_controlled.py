"""Step size control: error ratios, dt proposals, the accept/reject loop."""

import math

import numpy as np
import pytest

from odekit import (
    CashKarp54,
    ControlledStepper,
    ControllerParams,
    DenseOutputDopri5,
    DormandPrince5,
    EvaluationCounter,
    ExplicitEuler,
    HARMONIC,
    ImplicitEuler,
    LORENZ,
    RungeKutta4,
    SolverError,
    StepSizeUnderflowError,
    SymplecticEuler,
    integrate_adaptive,
    integrate_const,
    next_step_size,
)
from odekit.algebra import SEQUENCE_ALGEBRA
from odekit.explicit import EmbeddedRungeKutta
from reference import expgrow, hexes, nan_after_start, zero_rhs
from test_explicit import RK4X2_FSAL


# --- ControllerParams -------------------------------------------------------


def test_params_defaults():
    p = ControllerParams()
    assert p.atol == 1e-6 and p.rtol == 1e-6
    assert p.dt_min == 1e-14


def test_params_validation():
    with pytest.raises(ValueError):
        ControllerParams(atol=0.0, rtol=0.0)
    with pytest.raises(ValueError):
        ControllerParams(atol=-1e-6)
    with pytest.raises(ValueError):
        ControllerParams(dt_min=0.0)


@pytest.mark.parametrize(
    "field, value",
    [(f, math.nan) for f in ("atol", "rtol", "dt_min")]
    + [(f, v) for f in ("atol", "rtol") for v in (math.inf, -math.inf)],
)
def test_params_reject_nan(field, value):
    # An infinite tolerance would accept every trial at ratio 0.
    with pytest.raises(ValueError):
        ControllerParams(**{field: value})


def test_params_are_the_three_settable_fields():
    assert ControllerParams._fields == ("atol", "rtol", "dt_min")


# --- error ratio (the algebra's error_ratio_max, as try_step calls it) -------


def error_ratio(xerr, x_old, dxdt_old, dt, p):
    return SEQUENCE_ALGEBRA.error_ratio_max(xerr, x_old, dxdt_old, p.atol, p.rtol, dt)


def test_error_ratio_zero_error():
    p = ControllerParams()
    assert error_ratio([0.0], [1.0], [1.0], 0.1, p) == 0.0


def test_error_ratio_atol_only():
    p = ControllerParams(atol=1e-6, rtol=0.0)
    assert error_ratio([1e-6], [0.0], [0.0], 0.1, p) == pytest.approx(1.0, rel=1e-13)


def test_error_ratio_rtol_only_max_over_components():
    p = ControllerParams(atol=0.0, rtol=1e-6)
    got = error_ratio([2e-6, 1e-6], [1.0, 1.0], [0.0, 0.0], 0.1, p)
    assert got == pytest.approx(2.0, rel=1e-13)


def test_error_ratio_derivative_term():
    # the |dt|*|dxdt| term enlarges the scale and lowers the ratio
    p = ControllerParams(atol=0.0, rtol=1e-6)
    base = error_ratio([1e-6], [1.0], [0.0], 0.1, p)
    widened = error_ratio([1e-6], [1.0], [10.0], 0.1, p)
    assert widened == pytest.approx(base / 2.0, rel=1e-13)


# --- next_step_size ---------------------------------------------------------


def test_next_step_size_at_tolerance():
    assert next_step_size(0.1, 1.0, 4) == pytest.approx(0.09, rel=1e-13)


def test_next_step_size_zero_error_hits_ceiling():
    assert next_step_size(0.1, 0.0, 4) == pytest.approx(0.5, rel=1e-13)


def test_next_step_size_large_error_hits_floor():
    assert next_step_size(0.1, 1e5, 4) == pytest.approx(0.02, rel=1e-13)


def test_next_step_size_growth_capped_after_rejection():
    grown = next_step_size(0.1, 1e-4, 4)
    assert grown > 0.1
    capped = next_step_size(0.1, 1e-4, 4, was_rejected=True)
    assert capped == 0.1


def test_next_step_size_shrink_unaffected_by_rejection_flag():
    a = next_step_size(0.1, 50.0, 4)
    b = next_step_size(0.1, 50.0, 4, was_rejected=True)
    assert a == b < 0.1


def test_next_step_size_underflow_raises():
    # The width itself never raises; a rejected trial whose shrunk
    # width falls below dt_min does.
    assert next_step_size(1e-14, 1e5, 4) == pytest.approx(2e-15, rel=1e-13)
    ctl = ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-300, rtol=0.0))
    x = [1.0]
    with pytest.raises(StepSizeUnderflowError) as info:
        ctl.try_step(expgrow, x, 0.0, 1e-14)
    assert info.value.dt == pytest.approx(2e-15, rel=1e-13)
    assert info.value.t == 0.0
    assert x == [1.0]


def test_next_step_size_nan_error_shrinks():
    # NaN must not freeze dt at its current value
    got = next_step_size(0.1, float("nan"), 4)
    assert got == pytest.approx(0.02, rel=1e-13)


# --- ControlledStepper ------------------------------------------------------


def test_requires_error_stepper():
    for cls in (ExplicitEuler, RungeKutta4, ImplicitEuler, SymplecticEuler):
        with pytest.raises(TypeError):
            ControlledStepper(cls())


class NoFsalPair:
    """A duck-typed pair that does not say whether it is first-same-as-last."""

    error_order = 4

    def do_step_with_error(self, system, x, t, dt, out=None, xerr=None, dxdt_in=None):
        raise AssertionError("never called")


def test_an_assigned_stepper_is_checked_as_a_given_one():
    # Assignment refuses what construction refuses, before any trial,
    # naming what is missing, and leaves the stepper in place.
    controller = ControlledStepper(DormandPrince5())
    kept = controller.stepper
    for bad, missing in ((RungeKutta4(), "error_order"), (NoFsalPair(), "fsal")):
        with pytest.raises(TypeError, match=missing):
            controller.stepper = bad
        with pytest.raises(TypeError, match=missing):
            ControlledStepper(bad)
    assert controller.stepper is kept
    assert controller.try_step(expgrow, [1.0], 0.0, 0.01).accepted


def test_zero_dt_rejected():
    ctl = ControlledStepper(CashKarp54())
    with pytest.raises(ValueError):
        ctl.try_step(expgrow, [1.0], 0.0, 0.0)


@pytest.mark.parametrize(
    "make", [lambda: ControlledStepper(DormandPrince5()), DenseOutputDopri5],
    ids=["controlled", "dense"],
)
@pytest.mark.parametrize("t, dt", [(1e16, 0.5), (1e16, -1.0), (1.0, 1e-17)])
def test_width_that_cannot_move_t_raises_before_any_call(make, t, dt):
    calls = []
    x = [1.0]
    with pytest.raises(StepSizeUnderflowError) as info:
        make().try_step(lambda x, d, t: calls.append(t), x, t, dt)
    assert (info.value.t, info.value.dt) == (t, dt)
    assert calls == [] and x == [1.0]


@pytest.mark.parametrize("base", [CashKarp54, DormandPrince5], ids=lambda c: c.__name__)
def test_zero_rhs_accepts_and_grows(base):
    ctl = ControlledStepper(base())
    x = [5.0, 7.0]
    res = ctl.try_step(zero_rhs, x, 0.0, 0.1)
    assert res.accepted
    assert res.dt > 0.1
    assert x == [5.0, 7.0]
    assert res.t == 0.1
    assert res.dt == pytest.approx(0.5, rel=1e-13)  # FAC_MAX growth
    assert res.error_ratio == 0.0


def test_accept_advances_state_and_time():
    ctl = ControlledStepper(DormandPrince5())
    x = np.array([1.0])
    res = ctl.try_step(expgrow, x, 0.0, 0.01)
    assert res.accepted
    assert res.t == 0.01
    assert x[0] == pytest.approx(math.exp(0.01), rel=1e-12)
    assert res.error_ratio <= 1.0


def test_reject_leaves_state_bitwise_unchanged():
    ctl = ControlledStepper(DormandPrince5())
    x = np.array([1.0])
    before = x.tobytes()
    res = ctl.try_step(expgrow, x, 0.0, 10.0)
    assert not res.accepted
    assert res.t == 0.0
    assert res.dt < 10.0
    assert x.tobytes() == before


def test_growth_capped_right_after_rejection():
    # accepted retry after a rejection must not propose a larger dt
    ctl = ControlledStepper(DormandPrince5())
    x = np.array([1.0])
    t, dt = 0.0, 10.0
    res = ctl.try_step(expgrow, x, t, dt)
    while not res.accepted:
        dt = res.dt
        res = ctl.try_step(expgrow, x, t, dt)
    assert res.dt <= dt


def test_accepted_error_ratios_bounded_on_harmonic():
    ctl = ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-6, rtol=1e-6))
    x = np.array([1.0, 0.0])
    t, dt = 0.0, 0.01
    accepted = 0
    while t < 20.0:
        res = ctl.try_step(HARMONIC, x, t, dt)
        if res.accepted:
            assert res.error_ratio <= 1.0
            t = res.t
            accepted += 1
        dt = res.dt
    assert accepted > 10


def test_rejections_shrink_dt_monotonically():
    ctl = ControlledStepper(CashKarp54())
    x = np.array([1.0])
    res = ctl.try_step(expgrow, x, 0.0, 100.0)
    seen = [100.0, res.dt]
    while not res.accepted:
        res = ctl.try_step(expgrow, x, 0.0, res.dt)
        seen.append(res.dt)
    assert all(b < a for a, b in zip(seen[:-2], seen[1:-1]))


def test_underflow_raises_with_location():
    ctl = ControlledStepper(DormandPrince5())
    x = np.array([1.0])
    dt = 0.1
    with pytest.raises(StepSizeUnderflowError) as info:
        for _ in range(200):
            res = ctl.try_step(nan_after_start, x, 0.0, dt)
            dt = res.dt
    assert info.value.dt < 0.1
    assert info.value.t == 0.0


def test_nan_error_counts_as_rejection():
    ctl = ControlledStepper(DormandPrince5())
    x = np.array([1.0])
    res = ctl.try_step(nan_after_start, x, 0.0, 0.1)
    assert not res.accepted
    assert res.dt < 0.1
    assert x[0] == 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
def test_non_finite_derivative_at_the_state_raises_at_once(box, value):
    # No width can help: the first rejected trial raises, naming t, and
    # blames the derivative, not the step size.
    def nasty(x, dxdt, t):
        dxdt[0] = value

    counter = EvaluationCounter(nasty)
    x = box([1.0])
    with pytest.raises(SolverError, match="the derivative at t=0.5 is not finite") as info, \
            np.errstate(invalid="ignore"):  # inf - inf in the stages
        ControlledStepper(DormandPrince5()).try_step(counter, x, 0.5, 0.1)
    assert not isinstance(info.value, StepSizeUnderflowError)
    assert counter.count == 7  # the cached derivative and six stages
    assert list(x) == [1.0]


def test_fsal_cache_survives_rejection():
    # derivative at (x, t) is reused across a rejection: the retry costs
    # six evaluations instead of seven
    counter = EvaluationCounter(expgrow)
    ctl = ControlledStepper(DormandPrince5())
    x = np.array([1.0])
    res = ctl.try_step(counter, x, 0.0, 10.0)
    assert not res.accepted
    first = counter.count
    assert first == 7
    res = ctl.try_step(counter, x, 0.0, res.dt)
    assert counter.count - first == 6


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
def test_a_replaced_stepper_runs_its_own_tableau(box):
    controller = ControlledStepper(DormandPrince5())
    controller.try_step(HARMONIC, box([1.0, 0.5]), 0.0, 0.1)
    controller.stepper = CashKarp54()
    controller.reset()
    x, fresh = box([1.0, 0.5]), box([1.0, 0.5])
    got = controller.try_step(HARMONIC, x, 0.0, 0.1)
    assert got == ControlledStepper(CashKarp54()).try_step(HARMONIC, fresh, 0.0, 0.1)
    assert list(x) == list(fresh)


def dense_on(pair, params):
    dense = DenseOutputDopri5(params)
    dense.stepper = pair
    return dense


@pytest.mark.parametrize("make", [ControlledStepper, dense_on], ids=["controlled", "dense"])
def test_a_nine_stage_pair_adapts_on_lists_and_numpy_bit_for_bit(make):
    # Two RK4 half steps with a first-same-as-last stage, the midpoint rule
    # on their middle stage the error estimate: a ten-term update.  Its run
    # on LORENZ is one on both backends and near a tight Dormand-Prince
    # run's; a dense stepper also samples a grid on its cubic Hermite fit.
    params, x0 = ControllerParams(atol=1e-8, rtol=1e-8), [10.0, 10.0, 10.0]
    tight = ControllerParams(atol=1e-12, rtol=1e-12)
    reference = integrate_adaptive(ControlledStepper(DormandPrince5(), tight), LORENZ, x0, 0.0, 2.0, 0.01)
    runs = []
    for box in (list, np.array):
        seen = []
        observe = lambda x, t: seen.append((hexes(x), t))
        report = integrate_adaptive(make(EmbeddedRungeKutta(RK4X2_FSAL), params), LORENZ, box(x0), 0.0, 2.0, 0.01,
                                    observe)
        assert max(map(abs, np.subtract(report.final_state, reference.final_state))) < 1e-9
        if make is dense_on:
            integrate_const(make(EmbeddedRungeKutta(RK4X2_FSAL), params), LORENZ, box(x0), 0.0, 2.0, 0.01, observe)
        runs.append((report._replace(final_state=hexes(report.final_state)), seen))
    assert runs[0] == runs[1]


def test_reset_clears_cached_derivative():
    counter = EvaluationCounter(expgrow)
    ctl = ControlledStepper(DormandPrince5())
    x = np.array([1.0])
    ctl.try_step(counter, x, 0.0, 0.01)
    ctl.reset()
    before = counter.count
    ctl.try_step(counter, x, 0.01, 0.01)
    assert counter.count - before == 7
