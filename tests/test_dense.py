"""Dense output: interval bookkeeping, Dormand-Prince's quartic
continuous extension built from the stored stages, and the cubic
Hermite fit of a first-same-as-last pair without dense weights."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odekit import (
    CashKarp54,
    ControllerParams,
    DenseOutputDopri5,
    DormandPrince5,
    EvaluationCounter,
    HARMONIC,
    SymplecticEuler,
    fit_order,
    integrate_adaptive,
    integrate_const,
)
from odekit.algebra import MAX_TERMS, UNROLL, NumpyAlgebra, SequenceAlgebra
from odekit.explicit import EmbeddedRungeKutta
from odekit.tableaus import DORMAND_PRINCE_54, ButcherTableau

# Bogacki and Shampine's 3(2) pair, first-same-as-last with no dense weights.
BOGACKI_SHAMPINE_32 = ButcherTableau("bogacki_shampine_32", [(1 / 2,), (0.0, 3 / 4), (2 / 9, 1 / 3, 4 / 9)],
                                     (2 / 9, 1 / 3, 4 / 9, 0.0), (0.0, 1 / 2, 3 / 4, 1.0), 3,
                                     (7 / 24, 1 / 4, 1 / 3, 1 / 8), 2)
# Named apart from the shipped pair, whose generated trials keep their own file names.
WEIGHTLESS = {"bs32": BOGACKI_SHAMPINE_32, "dp5": DORMAND_PRINCE_54._replace(name="dp5_hermite", dense_weights=None)}


def hermite(tableau, params=None):
    """A dense stepper on the first-same-as-last pair of ``tableau``."""
    dense = DenseOutputDopri5(params)
    dense.stepper = EmbeddedRungeKutta(tableau)
    return dense


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


def test_any_first_same_as_last_pair_is_assigned_with_or_without_dense_weights():
    # The interpolant is fitted from the tableau: quartic with dense
    # weights, cubic Hermite without.  A pair that is not first-same-as-last
    # or has no tableau is refused at assignment, before any trial, and the
    # old one stays.
    d = DenseOutputDopri5()
    pair = d.stepper
    for refused in (CashKarp54(), SymplecticEuler()):
        with pytest.raises(TypeError, match="^dense output needs a first-same-as-last tableau,"
                                            f" not {type(refused).__name__}$"):
            d.stepper = refused
        assert d.stepper is pair
    weightless = DormandPrince5()
    weightless.tableau = weightless.tableau._replace(dense_weights=None)
    for accepted in (DormandPrince5(), Delegating(), weightless):
        d.stepper = accepted
        assert d.stepper is accepted
        d.initialize([1.0], 0.0, 0.1)
        lo, hi = d.do_step(expgrow)
        assert d.calc_state(hi)[0] == d.current_state[0]


def test_dense_weights_the_fit_cannot_use_are_refused_at_assignment():
    # The quartic term is one update over the stages whose dense weight
    # is not zero: more than MAX_TERMS is refused before any trial, naming
    # the tableau and its weights, and the old pair stays.  None leaves
    # the quartic term out: all-zero weights give the cubic Hermite's bits.
    s = MAX_TERMS + 1
    even = (1 / (s - 1),) * (s - 1)
    wide = ButcherTableau("wide", [(0.0,) * i for i in range(1, s - 1)] + [even], even + (0.0,),
                          (0.0,) * (s - 1) + (1.0,), 2, even + (0.0,), 1, (1.0,) * s)
    d = DenseOutputDopri5()
    pair = d.stepper
    refused = DormandPrince5()
    refused.tableau = wide
    assert wide.is_fsal
    with pytest.raises(ValueError, match=f"^wide: dense weights {re.escape(str(wide.dense_weights))}"
                                         f" must have at most {MAX_TERMS} nonzero entries"):
        d.stepper = refused
    assert d.stepper is pair
    states = []
    for weights in (None, (0.0,) * 7):
        d = hermite(WEIGHTLESS["dp5"]._replace(dense_weights=weights))
        d.initialize([1.0, -0.5], 0.0, 0.1)
        lo, hi = d.do_step(HARMONIC)
        states.append([[v.hex() for v in d.calc_state(lo + theta * (hi - lo))] for theta in (0.25, 0.5, 0.75)])
    assert states[0] == states[1]


def test_the_hermite_fit_of_a_third_order_pair_is_third_order():
    # Bogacki-Shampine 3(2) without dense weights: the mid-step error of
    # one step against e^t falls as h^4, the local error of a third-order
    # continuous extension, over h = 0.1 / 2^k with no trial rejected.
    widths, errs = [0.1 * 2.0 ** -k for k in range(5)], []
    for h in widths:
        d = hermite(BOGACKI_SHAMPINE_32, ControllerParams(atol=1e-4, rtol=1e-4))
        d.initialize([1.0], 0.0, h)
        assert d.do_step(expgrow) == (0.0, h)
        errs.append(abs(d.calc_state(0.5 * h)[0] - math.exp(0.5 * h)))
    assert 3.8 < fit_order(widths, errs).slope < 4.2


def test_the_hermite_fit_samples_a_grid_within_tolerance():
    seen = []
    d = hermite(BOGACKI_SHAMPINE_32, ControllerParams(atol=1e-8, rtol=1e-8))
    integrate_const(d, HARMONIC, [1.0, 0.0], 0.0, 1.0, 0.01, lambda x, t: seen.append(abs(x[0] - math.cos(t))))
    assert len(seen) == 101 and max(seen) < 2e-8


def bend(x, dxdt, t):
    for i in range(len(x)):
        dxdt[i] = math.sin(x[i - 1]) - x[i] * x[i] + t


@settings(max_examples=40, deadline=None, database=None)
@given(
    x0=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3),
    t0=st.floats(-2.0, 2.0),
    dt=st.floats(0.01, 1.0),
    theta=st.floats(0.0, 1.0),
    pair=st.sampled_from(sorted(WEIGHTLESS)),
)
def test_a_pair_without_dense_weights_interpolates_by_the_textbook_hermite_cubic(x0, t0, dt, theta, pair):
    # On the step from x at t to u at t + h, with f0 = f(x, t) and f1 = f(u, t + h):
    # H(th) = (2th^3 - 3th^2 + 1) x + (th^3 - 2th^2 + th) h f0 + (3th^2 - 2th^3) u + (th^3 - th^2) h f1,
    # which is x at th = 0 and u at th = 1.
    d = hermite(WEIGHTLESS[pair])
    d.initialize(list(x0), t0, dt)
    x = d.current_state
    lo, hi = d.do_step(bend)
    u, h, f0, f1 = d.current_state, hi - lo, [0.0] * len(x), [0.0] * len(x)
    bend(x, f0, lo)
    bend(u, f1, hi)
    for th, t in ((theta, min(lo + theta * h, hi)), (0.0, lo), (1.0, hi)):
        want = [(2 * th ** 3 - 3 * th ** 2 + 1) * a + (th ** 3 - 2 * th ** 2 + th) * h * fa
                + (3 * th ** 2 - 2 * th ** 3) * b + (th ** 3 - th ** 2) * h * fb for a, fa, b, fb in zip(x, f0, u, f1)]
        for got, w, a, fa, b, fb in zip(d.calc_state(t), want, x, f0, u, f1):
            assert abs(got - w) <= 1e-12 * max(abs(a), abs(h * fa), abs(b), abs(h * fb), 1e-300)


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
