"""Dense output for Dormand-Prince: interval bookkeeping and the
continuous extension built from the stored stages."""

import math
import re

import numpy as np
import pytest

from odekit import (
    CashKarp54,
    ControllerParams,
    DenseOutputDopri5,
    DormandPrince5,
    EvaluationCounter,
    HARMONIC,
    integrate_adaptive,
)
from odekit.algebra import MAX_TERMS, UNROLL, NumpyAlgebra, SequenceAlgebra
from odekit.tableaus import DORMAND_PRINCE_54, ButcherTableau


def expgrow(x, dxdt, t):
    dxdt[0] = x[0]


def zero_rhs(x, dxdt, t):
    for i in range(len(x)):
        dxdt[i] = 0.0


def test_initialize_sets_time():
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0]), 0.0, 0.01)
    assert d.current_time == 0.0
    assert d.current_state[0] == 1.0


def test_tolerances_live_in_the_controller_only():
    # The dense stepper is the controller: one params, no inner one.
    params = ControllerParams(atol=1e-12)
    d = DenseOutputDopri5(params)
    assert d.params is params
    assert not hasattr(d, "controller")
    assert DenseOutputDopri5().params == ControllerParams()


class Delegating(DormandPrince5):
    # A pair of the user's: the controller runs its trial as called.
    def do_step_with_error(self, *args, **kwargs):
        return super().do_step_with_error(*args, **kwargs)


def test_only_a_fsal_pair_whose_tableau_carries_dense_weights_is_assigned():
    # The interpolant is fitted with the tableau's dense weights: a pair
    # without them is refused at assignment, before any trial, and the
    # old one stays.
    d = DenseOutputDopri5()
    pair = d.stepper
    weightless = DormandPrince5()
    weightless.tableau = weightless.tableau._replace(dense_weights=None)
    for refused in (CashKarp54(), weightless):
        with pytest.raises(TypeError, match="^dense output needs a first-same-as-last pair whose tableau carries"
                                            f" dense weights, not {type(refused).__name__}$"):
            d.stepper = refused
        assert d.stepper is pair
    for accepted in (DormandPrince5(), Delegating()):
        d.stepper = accepted
        assert d.stepper is accepted
        d.initialize([1.0], 0.0, 0.1)
        lo, hi = d.do_step(expgrow)
        assert d.calc_state(hi)[0] == d.current_state[0]


def test_dense_weights_the_fit_cannot_use_are_refused_at_assignment():
    # The quartic term is one update over the stages whose dense weight
    # is not zero: none, or more than MAX_TERMS, is refused before any
    # trial, naming the tableau and its weights, and the old pair stays.
    s = MAX_TERMS + 1
    even = (1 / (s - 1),) * (s - 1)
    wide = ButcherTableau("wide", [(0.0,) * i for i in range(1, s - 1)] + [even], even + (0.0,),
                          (0.0,) * (s - 1) + (1.0,), 2, even + (0.0,), 1, (1.0,) * s)
    d = DenseOutputDopri5()
    pair = d.stepper
    for tableau in (DORMAND_PRINCE_54._replace(dense_weights=(0.0,) * 7), wide):
        refused = DormandPrince5()
        refused.tableau = tableau
        assert tableau.is_fsal
        with pytest.raises(ValueError, match=f"^{tableau.name}: dense weights {re.escape(str(tableau.dense_weights))}"
                                             f" must have 1..{MAX_TERMS} nonzero entries"):
            d.stepper = refused
        assert d.stepper is pair


def test_initialize_rejects_bad_dt0():
    d = DenseOutputDopri5()
    with pytest.raises(ValueError):
        d.initialize(np.array([1.0]), 0.0, 0.0)
    with pytest.raises(ValueError):
        d.initialize(np.array([1.0]), 0.0, -0.1)


def test_no_interval_before_first_step():
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0]), 0.0, 0.01)
    with pytest.raises(RuntimeError):
        d.calc_state(0.0)
    with pytest.raises(RuntimeError):
        _ = d.interval


def test_calc_state_before_initialize():
    with pytest.raises(RuntimeError):
        DenseOutputDopri5().calc_state(0.0)


def test_current_state_copies_through_the_steppers_copy_kernel(monkeypatch):
    # On a list the generated copy for the length runs: no one-term
    # scale_sum is asked for, so none is compiled.
    import odekit.algebra as algebra

    asked, kernel = [], algebra.Algebra._kernel
    monkeypatch.setattr(algebra.Algebra, "_kernel", lambda self, k: asked.append(k) or kernel(self, k))
    d = DenseOutputDopri5()
    d.initialize([1.0, 2.0, 3.0], 0.0, 0.1)
    asked.clear()
    state = d.current_state
    assert state == [1.0, 2.0, 3.0] and state is not d._x and asked == []


@pytest.mark.parametrize("base", [SequenceAlgebra, NumpyAlgebra], ids=["list", "numpy"])
def test_a_replaced_copy_receives_current_states_copy(base):
    calls = []

    class Copying(base):
        def copy(self, out, src):
            calls.append(list(src))
            return super().copy(out, src)

    d = DenseOutputDopri5(algebra=Copying())
    d.initialize(np.array([1.0, 2.0]) if base is NumpyAlgebra else [1.0, 2.0], 0.0, 0.1)
    calls.clear()
    assert list(d.current_state) == [1.0, 2.0] and calls == [[1.0, 2.0]]


def test_current_state_before_initialize():
    with pytest.raises(RuntimeError):
        _ = DenseOutputDopri5().current_state


def test_reinitialize_discards_previous_interval():
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0]), 0.0, 0.1)
    d.do_step(expgrow)
    d.initialize(np.array([2.0]), 5.0, 0.1)
    assert d.current_time == 5.0
    with pytest.raises(RuntimeError):
        _ = d.interval


def test_zero_rhs_interval_is_proposed_dt():
    d = DenseOutputDopri5()
    d.initialize(np.array([3.0, 4.0]), 0.0, 0.25)
    t_prev, t_cur = d.do_step(zero_rhs)
    assert (t_prev, t_cur) == (0.0, 0.25)
    assert list(d.calc_state(0.125)) == [3.0, 4.0]


def test_step_reports_positive_interval_and_tolerated_error():
    d = DenseOutputDopri5(ControllerParams(atol=1e-6, rtol=1e-6))
    d.initialize(np.array([1.0, 0.0]), 0.0, 0.01)
    t_prev, t_cur = d.do_step(HARMONIC)
    assert t_cur > t_prev == 0.0
    # A trial's error ratio lives in its StepResult alone.
    result = d.try_step(HARMONIC, d.current_state, t_cur, 0.01)
    assert result.accepted and 0.0 <= result.error_ratio <= 1.0
    assert d.interval == (t_cur, result.t)


def test_consecutive_intervals_abut_exactly():
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0]), 0.0, 0.05)
    _, end1 = d.do_step(expgrow)
    start2, end2 = d.do_step(expgrow)
    assert start2 == end1
    assert end2 > start2
    assert d.interval == (start2, end2)


def test_endpoint_reproduction():
    # interpolant hits both interval ends to 1e-12 relative, every step
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0]), 0.0, 0.1)
    prev_state = [1.0]
    for _ in range(6):
        t_prev, t_cur = d.do_step(expgrow)
        left = d.calc_state(t_prev)
        right = d.calc_state(t_cur)
        cur = d.current_state
        assert left[0] == pytest.approx(prev_state[0], rel=1e-12)
        assert right[0] == pytest.approx(cur[0], rel=1e-12)
        prev_state = [cur[0]]


def test_continuity_across_shared_boundary():
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0, 0.0]), 0.0, 0.05)
    d.do_step(HARMONIC)
    _, boundary = d.interval
    from_left = list(d.calc_state(boundary))
    d.do_step(HARMONIC)
    start, _ = d.interval
    assert start == boundary
    from_right = list(d.calc_state(boundary))
    for a, b in zip(from_left, from_right):
        assert b == pytest.approx(a, rel=1e-12)


def test_midpoint_accuracy_against_series():
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0]), 0.0, 0.05)
    t_prev, t_cur = d.do_step(expgrow)
    tm = 0.5 * (t_prev + t_cur)
    assert d.calc_state(tm)[0] == pytest.approx(math.exp(tm), abs=1e-9)


def test_interior_interpolation_order():
    # single-interval midpoint error against e^t under width refinement.
    # The slope is expected near the 4th order continuous extension's
    # local accuracy; the gate is the one-sided bound 3.5.
    errs, widths = [], []
    for dt0 in (0.2, 0.1, 0.05, 0.025):
        d = DenseOutputDopri5()
        d.initialize(np.array([1.0]), 0.0, dt0)
        t_prev, t_cur = d.do_step(expgrow)
        tm = 0.5 * (t_prev + t_cur)
        errs.append(abs(d.calc_state(tm)[0] - math.exp(tm)))
        widths.append(t_cur - t_prev)
    slope = np.polyfit(np.log(widths), np.log(errs), 1)[0]
    assert slope >= 3.5


@pytest.mark.parametrize("n", [3, UNROLL + 1])
@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
def test_grid_samples_and_the_interpolant_take_the_quartic_term_by_term(box, n):
    # p0 + theta*p1 + theta*omt*p2 + theta*theta*omt*p3 + theta*theta*omt*omt*p4 with omt = 1 - theta, every
    # product and sum taken left to right, bit for bit (Hairer, Norsett, Wanner, Solving ODEs I, II.6).
    stepper = DenseOutputDopri5()
    stepper.initialize(box([1.0] * n), 0.0, 0.01)
    stepper.do_step(zero_rhs)
    _, buffers, _, bound = stepper._scratch[1]
    p = buffers[-5:]
    for k, state in enumerate(p):  # each state 1000 times the last, so a basis term rounded otherwise shows
        for i in range(n):
            state[i] = math.pi * (k + 1) / (i + 3) * 1e3 ** k
    at, sample = bound.dense()
    seen, thetas = [], [j * 0.03 for j in range(34)]  # the grid times t0 + j*dt on [0, 1]: theta is t
    assert sample(lambda s, t: seen.append([float(v).hex() for v in s]), 0.0, 1.0, 1.0, 0.0, 0.03, 0, 1.0, 1.0) == 34
    expected = [[(p[0][i] + th * p[1][i] + th * (1.0 - th) * p[2][i] + th * th * (1.0 - th) * p[3][i]
                  + th * th * (1.0 - th) * (1.0 - th) * p[4][i]).hex() for i in range(n)] for th in thetas]
    assert seen == expected
    assert [[float(v).hex() for v in at(th, box([0.0] * n))] for th in thetas] == expected


def test_calc_state_outside_interval_rejected():
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0]), 0.0, 0.1)
    t_prev, t_cur = d.do_step(expgrow)
    with pytest.raises(ValueError):
        d.calc_state(t_prev - 1e-6)
    with pytest.raises(ValueError):
        d.calc_state(t_cur + 1e-6)


def test_calc_state_is_free_of_system_calls():
    counter = EvaluationCounter(expgrow)
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0]), 0.0, 0.1)
    t_prev, t_cur = d.do_step(counter)
    frozen = counter.count
    for theta in np.linspace(0.0, 1.0, 17):
        d.calc_state(t_prev + theta * (t_cur - t_prev))
    assert counter.count == frozen


def test_calc_state_out_buffer():
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0]), 0.0, 0.1)
    t_prev, t_cur = d.do_step(expgrow)
    buf = np.zeros(1)
    got = d.calc_state(t_cur, out=buf)
    assert got is buf
    assert buf[0] == pytest.approx(d.current_state[0], rel=1e-12)


def test_trials_are_counted_by_the_walk_and_each_step_result_only():
    # One ledger: a run's trials in its IntegrationReport, a trial's
    # outcome and error ratio in its StepResult, none on the stepper.
    outcomes = []

    class Spy(DenseOutputDopri5):
        def try_step(self, system, x, t, dt):
            result = super().try_step(system, x, t, dt)
            outcomes.append(result.accepted)
            return result

    spy = Spy()
    report = integrate_adaptive(spy, expgrow, [1.0], 0.0, 1.0, 5.0)
    assert report.steps_accepted == outcomes.count(True)
    assert report.steps_rejected == outcomes.count(False) > 0
    for name in ("steps_attempted", "steps_accepted", "steps_rejected", "last_error_ratio"):
        assert not hasattr(spy, name)


def test_list_states_supported():
    d = DenseOutputDopri5()
    d.initialize([1.0], 0.0, 0.1)
    t_prev, t_cur = d.do_step(expgrow)
    mid = d.calc_state(0.5 * (t_prev + t_cur))
    assert isinstance(mid, list)
    assert mid[0] == pytest.approx(math.exp(0.5 * (t_prev + t_cur)), abs=1e-8)
