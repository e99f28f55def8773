"""Properties: list and numpy runs agree bit for bit through every
driver; rejected trials change nothing; drivers observe exactly their
grid, stop on it, and never evaluate past t1; the dense interpolant
reproduces both ends of its interval; the step size controller stays
inside its growth window; the generated step code of any explicit
tableau matches a stage loop on the checked ``scale_sum`` bit for
bit, unrolled or looped, and the generated fixed-step loop a loop
over the class ``do_step``; a controlled trial, a dense state and a
symplectic step have the same bits on lists, numpy and the general
path, and a controlled run with a pair's own ``do_step_with_error``
has them too; the generated walk runs the trials, observations (a
dense stepper's grid samples as its public ``calc_state`` gives them),
failures and controller state of a loop over the public ``try_step``
and ``next_step_size``, bit for bit, and both drivers and ``try_step``
those of a loop over the pair's ``do_step_with_error``, the algebra's
``error_ratio_max`` and ``next_step_size``; every driver reports the
evaluations a counting closure sees; the controller's in-place error
ratio equals the checked one, the textbook formula and the list
backend bit for bit; the numpy kernel's exact ±1 coefficients give
the bits of a product per term and of the sequence kernel; a warm
implicit Euler steps as a fresh one does, bit for bit, and the max-norms
its Newton step emits and the numpy error ratio's maximum give the bits
of numpy's reduction."""

import array
import functools
import math
import re

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from odekit import (
    CashKarp54,
    ControlledStepper,
    ControllerParams,
    DenseOutputDopri5,
    DormandPrince5,
    EvaluationCounter,
    ExplicitEuler,
    ImplicitEuler,
    IntegrationReport,
    JacobianSystem,
    PairState,
    RungeKutta4,
    SeparableHamiltonian,
    SolverError,
    StepSizeUnderflowError,
    SymplecticEuler,
    integrate_adaptive,
    integrate_const,
    next_step_size,
)
from odekit.algebra import (
    MAX_TERMS,
    NUMPY_ALGEBRA,
    SEQUENCE_ALGEBRA,
    UNROLL,
    NumpyAlgebra,
    SequenceAlgebra,
    _numpy_copy,
    _numpy_error_ratio,
    _numpy_scale_sum,
    _sequence_scale_sum,
)
from odekit.controlled import StepResult
from odekit.explicit import EmbeddedRungeKutta, ExplicitRungeKutta
from odekit.integrate import GRID_SNAP
from odekit.tableaus import ButcherTableau
from test_integrate import DuckEuler


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
# The clamped last step's width target - t rounds up: t + width would pass t1 by 2 ulps.
@example(t0=-0.15625, span=0.1875, dt=0.05389669397121018, tol=0.00024040634050784984, case="adaptive")
@example(t0=-0.15625, span=0.1875, dt=0.05389669397121018, tol=0.00024040634050784984, case="dense")
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
        report, evals, seen = record_run(integrate_const, stepper, t0, t1, dt)
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


@settings(max_examples=200, deadline=None, database=None)
@given(
    dt=st.floats(1e-300, 1e300),
    errs=st.lists(st.floats(0.0, math.inf), min_size=2, max_size=2),
    error_order=st.integers(1, 8),
)
def test_next_step_size_stays_in_its_window(dt, errs, error_order):
    lo, hi = sorted(errs)
    for was_rejected in (False, True):
        widths = [
            next_step_size(dt, err, error_order, was_rejected)
            for err in (0.0, lo, hi, math.nan)
        ]
        assert all(0.2 * dt <= w <= 5.0 * dt for w in widths)
        # A larger error never proposes a wider step; NaN counts as the
        # largest error of all.
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] == 0.2 * dt
        assert widths[0] == (dt if was_rejected else 5.0 * dt)
        if was_rejected:
            assert max(widths) <= dt


# --- power-of-two time rescaling ----------------------------------------------


def rescaled_ring(scale):
    """``ring`` on the time axis stretched by ``scale``, a power of two:
    the derivative shrinks by ``scale``, with its Jacobian."""

    def rhs(x, dxdt, t):
        ring(x, dxdt, t / scale)
        for i in range(len(x)):
            dxdt[i] = dxdt[i] / scale

    def jacobian(x, jac, t):
        n = len(x)
        jac[:] = 0.0
        for i in range(n):
            jac[i, (i + 1) % n] += 1.0 / scale
            jac[i, i] -= 3.0 * x[i] * x[i] / scale

    return JacobianSystem(rhs, jacobian)


def rescaled_run(case, scale, x0, t0, t1, dt, tol):
    params = ControllerParams(atol=tol, rtol=tol, dt_min=1e-14 * scale)
    driver = integrate_adaptive if case in PAIRS else integrate_const
    stepper = {
        "ck54": lambda: ControlledStepper(CashKarp54(), params),
        "dopri5": lambda: ControlledStepper(DormandPrince5(), params),
        "dense": lambda: DenseOutputDopri5(params),
        "rk4": RungeKutta4,
        "implicit": ImplicitEuler,
    }[case]()
    seen = []
    report = driver(stepper, rescaled_ring(scale), list(x0), t0 * scale, t1 * scale, dt * scale,
                    lambda x, t: seen.append(hexes([t / scale, *x])))
    counters = (report.steps_accepted, report.steps_rejected, report.system_evaluations)
    return seen, hexes([report.final_time / scale, *report.final_state]), counters


def clear_of_subnormals(bound):
    # 0, or at least 1e-3 in magnitude: times and derivatives divided
    # by 2**60 stay normal numbers.
    return st.just(0.0) | st.floats(1e-3, bound).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=40, deadline=None, database=None)
@given(
    m=st.integers(-60, 60),
    x0=st.lists(clear_of_subnormals(1.5), min_size=1, max_size=3),
    t0=clear_of_subnormals(2.0),
    span=st.floats(0.05, 1.5),
    dt=st.floats(0.01, 0.4),
    tol=st.floats(1e-9, 1e-3),
    case=st.sampled_from(["ck54", "dopri5", "dense", "rk4", "implicit"]),
)
@example(m=-60, x0=[0.3, -0.7], t0=0.0, span=1.0, dt=0.1, tol=1e-6, case="dopri5")
@example(m=-40, x0=[0.3, -0.7], t0=0.0, span=1.0, dt=0.1, tol=1e-6, case="dense")
@example(m=30, x0=[0.3, -0.7], t0=0.0, span=1.0, dt=0.1, tol=1e-6, case="implicit")
def test_power_of_two_time_rescaling_is_bit_exact(m, x0, t0, span, dt, tol, case):
    # Stretching time by 2**m scales every width, node and derivative
    # by the same power of two, so each rounding is the same: no rule
    # of the solvers may depend on absolute time.
    assert rescaled_run(case, 2.0**m, x0, t0, t0 + span, dt, tol) == rescaled_run(
        case, 1.0, x0, t0, t0 + span, dt, tol
    )


# --- generated step code against a stage loop ---------------------------------


def weights(count):
    # Zeros are common, so updates with dropped terms are too.
    return st.lists(st.sampled_from([0.0, 0.0, 1.0]) | st.floats(-2.0, 2.0),
                    min_size=count, max_size=count)


def summing_to_one(draw, count):
    w = draw(weights(count - 1))
    return (*w, 1.0 - sum(w))


@st.composite
def tableaus(draw):
    fsal = draw(st.booleans())
    s = draw(st.integers(2 if fsal else 1, 7 if fsal else 6))
    a = [tuple(draw(weights(i))) for i in range(1, s)]
    if fsal:  # the last row repeats b, and b[-1] == 0
        b = (*summing_to_one(draw, s - 1), 0.0)
        a[-1] = b[:-1]
    else:
        b = summing_to_one(draw, s)
    c = (0.0, *(sum(row) for row in a))
    if fsal:
        c = (*c[:-1], 1.0)
    embedded = summing_to_one(draw, s) if draw(st.booleans()) else None
    tableau = ButcherTableau(name="drawn", a=tuple(a), b=b, c=c, order=2,
                             b_embedded=embedded, error_order=None if embedded is None else 1)
    assert tableau.is_fsal or not fsal  # zeros can make a drawn tableau FSAL too
    return tableau


def stage_loop(tableau, system, x, t, dt, algebra):
    """The stage loop on the public, checked ``scale_sum``: returns the
    new state, the error estimate (or None) and the stage derivatives."""

    def combine(out, lead, w, k):
        idx = [j for j, wj in enumerate(w) if wj != 0.0]
        algebra.scale_sum(out, [1.0] * lead + [dt * w[j] for j in idx],
                          [x] * lead + [k[j] for j in idx])
        return out

    s = tableau.stage_count
    k = [algebra.clone_shape(x) for _ in range(s)]
    u, new = algebra.clone_shape(x), algebra.clone_shape(x)
    system(x, k[0], t)
    for i, row in enumerate(tableau.a[:-1] if tableau.is_fsal else tableau.a, start=1):
        system(combine(u, 1, row, k), k[i], t + tableau.c[i] * dt)
    combine(new, 1, tableau.b, k)
    if tableau.b_embedded is None:
        return new, None, k
    if tableau.is_fsal:
        system(new, k[s - 1], t + dt)
    return new, combine(algebra.clone_shape(x), 0, tableau.error_weights, k), k


def hexes(v):
    return None if v is None else [float(e).hex() for e in v]


class ArrayAlgebra(SequenceAlgebra):
    """The sequence arithmetic on ``array.array('d')`` states."""

    def clone_shape(self, src):
        return array.array("d", bytes(8 * len(src)))


class GeneralAlgebra(SequenceAlgebra):
    """A replaced ``scale_sum``: every update is a call of it."""

    def scale_sum(self, out, coeffs, terms):
        return super().scale_sum(out, coeffs, terms)


# A container and the backend to step it with (None: the default).
BOXES = {
    "list": (list, None),
    "numpy": (np.array, None),
    "array": (lambda v: array.array("d", v), ArrayAlgebra()),
}
# Lengths on both sides of the unroll bound.
STATES = st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=UNROLL + 2)


@settings(max_examples=80, deadline=None, database=None)
@given(
    tableau=tableaus(),
    x0=STATES,
    t=st.floats(-1.0, 1.0),
    dt=st.floats(0.001, 0.5),
    box=st.sampled_from(sorted(BOXES)),
)
def test_generated_step_matches_the_stage_loop(tableau, x0, t, dt, box):
    box, chosen = BOXES[box]
    algebra = chosen or (NUMPY_ALGEBRA if box is np.array else SEQUENCE_ALGEBRA)
    error_terms = sum(w != 0.0 for w in tableau.error_weights or (1.0,))
    assume(error_terms > 0)  # an error update needs at least one term
    reference = EvaluationCounter(ring)
    new, err, k = stage_loop(tableau, reference, box(x0), t, dt, algebra)

    stepper, counter = ExplicitRungeKutta(tableau, chosen), EvaluationCounter(ring)
    x, out = box(x0), algebra.clone_shape(box(x0))
    assert hexes(stepper.do_step(counter, x, t, dt, out=out)) == hexes(new)
    assert hexes(x) == hexes(x0)
    assert hexes(stepper.do_step(counter, x, t, dt)) == hexes(new)
    fsal_stage = err is not None and tableau.is_fsal
    assert counter.count == 2 * (reference.count - fsal_stage)
    if err is None:
        return
    pair = EmbeddedRungeKutta(tableau, chosen)
    for dxdt_in in (None, k[0]):
        x, counter = box(x0), EvaluationCounter(ring)
        got = pair.do_step_with_error(counter, x, t, dt, dxdt_in=dxdt_in)
        assert (hexes(got[0]), hexes(got[1])) == (hexes(new), hexes(err))
        assert counter.count == reference.count - (dxdt_in is not None)
        if tableau.is_fsal:
            record = got[2].derivatives
            assert [hexes(d) for d in record] == [hexes(d) for d in k]


# The shipped explicit steppers as fixed steppers, and the containers
# the generated fixed-step loop runs them on: inline, on numpy kernels
# and on a replaced scale_sum.
FIXED_STEPPERS = {"euler": ExplicitEuler, "rk4": RungeKutta4, "ck54": CashKarp54, "dopri5": DormandPrince5}
FIXED_BOXES = {"list": (list, None), "numpy": (np.array, None), "general": (list, GeneralAlgebra())}
# Where t1 lies: on a grid point, within GRID_SNAP widths of one (the
# last grid point is snapped onto it), or between two.
ENDS = {"whole": 0.0, "snapped-below": -0.3 * GRID_SNAP, "snapped-above": 0.3 * GRID_SNAP, "between": 0.5}


def class_do_step_loop(stepper, system, x, t0, t1, dt, observer):
    """``integrate_const``'s fixed steps as a loop over the class
    ``ExplicitRungeKutta.do_step``, called unbound, which the generated
    loop does not call: its counters in an :class:`IntegrationReport`,
    the evaluations counted by an :class:`EvaluationCounter`."""
    counter = EvaluationCounter(system)
    steps = int(math.floor((t1 - t0) / dt + GRID_SNAP))
    t_last = t0 + steps * dt
    if steps and abs(t_last - t1) <= GRID_SNAP * dt:
        t_last = t1
    dt_last = dt if t_last == t0 + steps * dt else t_last - (t0 + (steps - 1) * dt)
    t = t0
    observer(x, t)
    for k in range(1, steps + 1):
        ExplicitRungeKutta.do_step(stepper, counter, x, t, dt_last if k == steps else dt)
        t = t_last if k == steps else t0 + k * dt
        observer(x, t)
    return IntegrationReport(x, t_last, steps, 0, counter.count)


@settings(max_examples=150, deadline=None, database=None)
@given(
    x0=STATES,
    t0=st.floats(-2.0, 2.0),
    steps=st.integers(1, 20),
    dt=st.floats(0.001, 0.2),
    end=st.sampled_from(sorted(ENDS)),
    stepper=st.sampled_from(sorted(FIXED_STEPPERS)),
    box=st.sampled_from(sorted(FIXED_BOXES)),
    observed=st.booleans(),
)
@example(x0=[0.3, -0.7, 1.1], t0=0.0, steps=3, dt=0.1, end="snapped-below", stepper="rk4", box="list",
         observed=True)
@example(x0=[0.3] * (UNROLL + 2), t0=1.0, steps=4, dt=0.125, end="snapped-above", stepper="dopri5",
         box="general", observed=False)
@example(x0=[0.125 * i for i in range(UNROLL + 1)], t0=0.0, steps=5, dt=0.1, end="snapped-below", stepper="rk4",
         box="list", observed=False)
def test_generated_fixed_loop_matches_a_loop_over_the_class_do_step(x0, t0, steps, dt, end, stepper, box,
                                                                    observed):
    # The final state, every observation and the counters, bit for bit;
    # the reference observes always, and unobserved runs compare the
    # final state alone.
    t1 = t0 + steps * dt + ENDS[end] * dt
    container, algebra = FIXED_BOXES[box]
    runs = []
    for drive in (integrate_const, class_do_step_loop):
        calls, seen = [], []

        def rhs(x, dxdt, t):
            calls.append(t.hex())
            ring(x, dxdt, t)

        observer = lambda x, t: seen.append((hexes(x), t.hex()))  # noqa: E731
        if drive is integrate_const and not observed:
            observer = None
        report = drive(FIXED_STEPPERS[stepper](algebra), rhs, container(x0), t0, t1, dt, observer)
        counters = (report.final_time.hex(), report.steps_accepted, report.steps_rejected,
                    report.system_evaluations)
        runs.append((hexes(report.final_state), counters, calls, seen if observed else []))
    assert runs[0] == runs[1]
    assert runs[0][1][3] == len(runs[0][2]) and runs[0][1][1] >= 1
    if end.startswith("snapped"):
        assert report.final_time == t1


def controlled_trials(algebra, box, x0, t, dt, tol):
    """State and error ratio of three chained trials (the generated
    trial stores no error estimate; its ratio is compared instead)."""
    controller = ControlledStepper(DormandPrince5(algebra), ControllerParams(atol=tol, rtol=tol))
    x, seen = box(x0), []
    for _ in range(3):
        result = controller.try_step(ring, x, t, dt)
        seen.append((hexes(x), result.error_ratio.hex()))
        t, dt = result.t, result.dt
    return seen


def dense_state(algebra, box, x0, t, dt, tol):
    dense = DenseOutputDopri5(ControllerParams(atol=tol, rtol=tol), algebra)
    dense.initialize(box(x0), t, dt)
    lo, hi = dense.do_step(ring)
    return [hexes(dense.calc_state(lo + theta * (hi - lo))) for theta in (0.0, 0.3, 1.0)]


def kick(q, out):
    n = len(q)
    for i in range(n):
        out[i] = -q[i] * q[i] * q[i] - 0.5 * q[(i + 1) % n]


def drift(p, out):
    for i in range(len(p)):
        out[i] = p[i] * (1.0 + 0.25 * p[i])


def symplectic_steps(algebra, box, x0, t, dt, tol):
    system = SeparableHamiltonian(dqdt=drift, dpdt=kick)
    stepper = SymplecticEuler(algebra)
    pair = PairState(box(x0), box(x0[::-1]))
    stepper.do_step(system, pair, t, dt)
    out = PairState(box(x0), box(x0))
    stepper.do_step(system, pair, t + dt, dt, out=out)
    return [hexes(v) for v in (pair.q, pair.p, out.q, out.p)]


@settings(max_examples=60, deadline=None, database=None)
@given(
    x0=STATES,
    t=st.floats(-1.0, 1.0),
    dt=st.floats(0.001, 0.5),
    tol=st.floats(1e-9, 1e-3),
    run=st.sampled_from([controlled_trials, dense_state, symplectic_steps]),
)
def test_fused_sequence_path_matches_numpy_and_the_general_path(x0, t, dt, tol, run):
    # The list run writes its updates inline, numpy calls its kernels
    # and the replaced scale_sum receives every update: same bits.
    as_list = run(None, list, x0, t, dt, tol)
    assert run(None, np.array, x0, t, dt, tol) == as_list
    assert run(GeneralAlgebra(), list, x0, t, dt, tol) == as_list


# Every driver path of a generated trial: the drivers, and dense output
# on both of them.
TRIAL_RUNS = {
    "adaptive": (integrate_adaptive, False),
    "const": (integrate_const, False),
    "dense-adaptive": (integrate_adaptive, True),
    "dense-const": (integrate_const, True),
}


def hex_run(driver, stepper, x0, t1, dt0):
    seen = []
    report = driver(stepper, ring, x0, 0.0, t1, dt0, lambda x, t: seen.append((t.hex(), hexes(x))))
    counters = (report.steps_accepted, report.steps_rejected, report.system_evaluations)
    return seen, hexes(report.final_state), report.final_time.hex(), counters


def delegating(pair):
    """``pair`` with a ``do_step_with_error`` of the user's, one that
    only delegates to ``super()``: the controller runs it as it is."""

    class Delegating(pair):
        def do_step_with_error(self, *args, **kwargs):
            return super().do_step_with_error(*args, **kwargs)

    return Delegating


@settings(max_examples=80, deadline=None, database=None)
@given(
    x0=STATES,
    t1=st.floats(0.5, 2.0),
    dt0=st.floats(0.5, 4.0),
    tol=st.floats(1e-9, 1e-4),
    pair=st.sampled_from(sorted(PAIRS)),
    path=st.sampled_from(sorted(TRIAL_RUNS)),
)
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=4.0, tol=1e-8, pair="ck54", path="const")
def test_generated_trial_matches_its_numpy_twin(x0, t1, dt0, tol, pair, path):
    # Lists run the trial and the dense sampler generated for their
    # length (one loop past UNROLL), numpy their kernel calls, and a
    # replaced scale_sum receives every update; none of them calls the
    # pair's do_step_with_error, which would bind the pair's scratch.
    # A pair whose do_step_with_error is the user's runs through it
    # and gives the same bits.  Wide first widths are rejected.  On a
    # grid the first width is the grid's: three to the interval, and
    # forty for dense output, so several grid points fall inside one
    # step.
    driver, dense = TRIAL_RUNS[path]
    if driver is integrate_const:
        dt0 = t1 / 40 if dense else t1 / 3
    params = ControllerParams(atol=tol, rtol=tol)

    def make(algebra=None, foreign=False):
        made = DenseOutputDopri5(params, algebra) if dense else ControlledStepper(PAIRS[pair](algebra), params)
        if foreign:
            made.stepper = delegating(type(made.stepper))(algebra)
        return made

    runs = []
    for box, algebra in ((list, None), (np.array, None), (list, GeneralAlgebra())):
        stepper = make(algebra)
        runs.append(hex_run(driver, stepper, box(x0), t1, dt0))
        assert stepper.stepper._scratch is None
    foreign = make(foreign=True)
    runs.append(hex_run(driver, foreign, list(x0), t1, dt0))
    assert foreign.stepper._scratch is not None
    assert runs[1:] == runs[:1] * 3
    if x0 == [1.0, -0.5, 0.25]:
        assert runs[0][3][1] > 0  # the explicit example rejects trials


# --- the generated walk against the public try_step -----------------------


def walk_system(kind):
    """``ring`` with NaN in the first element after t = 0.5 (a run of
    rejections that ends below ``dt_min``), past |x[0]| = 1.2 (the
    derivative at an accepted state may be the one not finite), at
    t = 0 (a non-finite derivative at once) or never, or raising
    :class:`SolverError` on its tenth call, inside a trial; and the
    log of the time and the state of every call."""
    calls = []

    def rhs(x, dxdt, t):
        calls.append((t.hex(), hexes(x)))
        if kind == "raises" and len(calls) == 10:
            raise SolverError("the rhs gives up")
        ring(x, dxdt, t)
        if {"after": t > 0.5, "beyond": abs(x[0]) > 1.2, "start": t == 0.0}.get(kind, False):
            dxdt[0] = math.nan

    return rhs, calls


def recording_controller(pair, params):
    """A controller whose ``try_step`` is overridden on the class: the
    walk calls it, and it records each trial's (t, dt, accepted)."""

    class Recording(ControlledStepper):
        def try_step(self, system, x, t, dt):
            result = super().try_step(system, x, t, dt)
            self.trials.append((t.hex(), dt.hex(), result.accepted))
            return result

    made = Recording(pair, params)
    made.trials = []
    return made


def patched_controller(pair, params):
    """A controller whose ``try_step`` is replaced on the instance, recording as above."""
    made = ControlledStepper(pair, params)
    inner, made.trials = made.try_step, []

    def try_step(system, x, t, dt):
        result = inner(system, x, t, dt)
        made.trials.append((t.hex(), dt.hex(), result.accepted))
        return result

    made.try_step = try_step
    return made


def dense_around_users_pair(algebra, params):
    """Dense output whose pair's ``do_step_with_error`` is the user's."""
    made = DenseOutputDopri5(params, algebra)
    made.stepper = delegating(DormandPrince5)(algebra)
    return made


WALK_FORMS = {
    "inline-ck54": lambda algebra, params: ControlledStepper(CashKarp54(algebra), params),
    "inline-dopri5": lambda algebra, params: ControlledStepper(DormandPrince5(algebra), params),
    "override": lambda algebra, params: recording_controller(DormandPrince5(algebra), params),
    "patched": lambda algebra, params: patched_controller(CashKarp54(algebra), params),
    "dense": lambda algebra, params: DenseOutputDopri5(params, algebra),
    "user-pair": lambda algebra, params: ControlledStepper(delegating(DormandPrince5)(algebra), params),
    "dense-user-pair": lambda algebra, params: dense_around_users_pair(algebra, params),
}
WALK_BOXES = {"list": (list, None), "numpy": (np.array, None), "general": (list, GeneralAlgebra())}


def public_samples(stepper, observe, j, h, t_end, limit):
    """The grid points ``j*h``, ``j`` counting up, below ``t_end`` and
    up to ``limit``, observed through the public ``calc_state`` at that
    time or the end of the step if earlier: the next ``j``."""
    hi = stepper.interval[1]
    while j * h < t_end and j * h <= limit:
        observe(stepper.calc_state(min(j * h, hi)), j * h)
        j += 1
    return j


def public_walk(stepper, rhs, x, t1, dt, targets, observe, observe_steps, sampled=False):
    """The drivers' walk from t = 0 as a loop over the public
    ``try_step``, each width taken from ``next_step_size`` and checked
    against the one ``try_step`` proposed, and, ``sampled``, the grid
    of the first width observed after each accepted step as
    ``integrate_const`` samples it: the trials and the outcome."""
    order, trials, t, accepted, rejected, again = stepper.stepper.error_order, [], 0.0, 0, 0, False
    h, j = dt, 1
    observe(x, t)
    try:
        for target in targets:
            if target <= t:
                raise StepSizeUnderflowError(dt, t)
            while t < target:
                clamped = dt >= target - t
                width = target - t if clamped else dt
                if clamped and t + width > target:  # the largest width that ends on or before target
                    width = math.nextafter(width, 0.0)
                result = stepper.try_step(rhs, x, t, width)
                trials.append((t.hex(), width.hex(), result.accepted))
                dt = next_step_size(width, result.error_ratio, order, again)
                assert dt.hex() == result.dt.hex()
                again = not result.accepted
                if result.accepted:
                    accepted += 1
                    lo, t = t, target if clamped else result.t
                    if clamped and isinstance(stepper, DenseOutputDopri5):  # the step covers [lo, target]
                        stepper._span = lo, t, width
                    if observe_steps:
                        observe(x, t)
                    elif sampled:
                        j = public_samples(stepper, observe, j, h, t1 - GRID_SNAP * h, t + GRID_SNAP * h)
                else:
                    rejected += 1
            t = target
            if not observe_steps:
                observe(x, t)
    except SolverError as exc:
        return trials, (type(exc), str(exc)), IntegrationReport(x, t, accepted, rejected, None)
    return trials, None, IntegrationReport(x, t, accepted, rejected, None)


def controller_state(stepper):
    """What a run leaves on the controller: its rejection flag, which
    buffer holds the cached derivative, a dense stepper's last step if
    accepted (whether any other holds one), and the buffers' bits (a
    dense stepper's interpolant among them)."""
    k = stepper._scratch[1][1]
    where = next((i for i, b in enumerate(k) if b is stepper._dxdt), stepper._dxdt)
    span = stepper._span and [t.hex() for t in stepper._span] if isinstance(stepper, DenseOutputDopri5) \
        else "_span" in vars(stepper)
    return stepper._rejected, where, span, [hexes(b) for b in k]


def interpolant(stepper):
    """A dense stepper's last step and its states at the midpoint and
    the end, or the error that says there is none."""
    try:
        lo, hi = stepper.interval
    except RuntimeError as exc:
        return str(exc)
    return lo.hex(), hi.hex(), hexes(stepper.calc_state(lo + 0.5 * (hi - lo))), hexes(stepper.calc_state(hi))


def outcome(report, evaluations):
    return hexes(report.final_state), report.final_time.hex(), report.steps_accepted, \
        report.steps_rejected, evaluations


@settings(max_examples=250, deadline=None, database=None)
@given(
    x0=STATES,
    t1=st.floats(0.3, 2.0),
    dt0=st.floats(0.01, 4.0),
    tol=st.floats(1e-9, 1e-3),
    form=st.sampled_from(sorted(WALK_FORMS)),
    box=st.sampled_from(sorted(WALK_BOXES)),
    grid=st.booleans(),
    kind=st.sampled_from(["after", "beyond", "start", "none", "raises"]),
)
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=4.0, tol=1e-8, form="inline-dopri5", box="list",
         grid=False, kind="none")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.5, tol=1e-8, form="inline-ck54", box="numpy",
         grid=True, kind="after")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.5, tol=1e-8, form="inline-dopri5", box="general",
         grid=False, kind="after")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.5, tol=1e-8, form="override", box="general",
         grid=True, kind="start")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.05, tol=1e-8, form="dense", box="list",
         grid=True, kind="none")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.05, tol=1e-8, form="dense", box="numpy",
         grid=True, kind="after")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=4.0, tol=1e-8, form="user-pair", box="list",
         grid=False, kind="none")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.5, tol=1e-8, form="user-pair", box="numpy",
         grid=True, kind="after")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.05, tol=1e-8, form="dense-user-pair", box="general",
         grid=True, kind="beyond")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.5, tol=1e-8, form="inline-dopri5", box="list",
         grid=False, kind="raises")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.05, tol=1e-8, form="dense", box="numpy",
         grid=True, kind="raises")
def test_generated_walk_matches_a_loop_over_the_public_try_step(x0, t1, dt0, tol, form, box, grid, kind):
    # The system sees the time and the state of every stage of every
    # trial, rejected ones included, so equal call logs mean equal
    # trials; the calling forms' (t, dt, accepted) are recorded too.
    # Failing runs compare their errors and partial reports, and every
    # run what it leaves on the controller.  Dense output samples a
    # grid instead of landing on it: the reference observes the grid
    # points through calc_state after each accepted step, and the
    # interpolant left after the run is compared too.
    box, algebra = WALK_BOXES[box]
    sampled = grid and form.startswith("dense")
    if grid:
        dt0 = min(dt0, t1)
    params = ControllerParams(atol=tol, rtol=tol, dt_min=1e-6)
    targets = expected_grid(0.0, t1, dt0)[1:] if grid and not sampled else [t1]

    rhs, calls = walk_system(kind)
    walked, seen = WALK_FORMS[form](algebra, params), []
    try:
        report, failure = (integrate_const if grid else integrate_adaptive)(
            walked, rhs, box(x0), 0.0, t1, dt0, lambda x, t: seen.append((t.hex(), hexes(x)))), None
    except SolverError as exc:
        report, failure = exc.partial_report, (type(exc), str(exc))

    ref_rhs, ref_calls = walk_system(kind)
    reference, ref_seen = WALK_FORMS[form](algebra, params), []
    trials, ref_failure, ref_report = public_walk(
        reference, ref_rhs, box(x0), t1, dt0, targets,
        lambda x, t: ref_seen.append((t.hex(), hexes(x))), not grid, sampled)

    assert calls == ref_calls and seen == ref_seen and failure == ref_failure
    assert outcome(report, report.system_evaluations) == outcome(ref_report, len(ref_calls))
    assert controller_state(walked) == controller_state(reference)
    if form in ("override", "patched"):
        assert walked.trials == trials
    if form.startswith("dense"):
        assert interpolant(walked) == interpolant(reference)
    if x0 == [1.0, -0.5, 0.25] and kind == "none":
        assert not all(accepted for _, _, accepted in trials)  # the explicit example rejects


# --- the controller against a loop over the public pieces -----------------


class ReferenceController:
    """A controller written over the public pieces only, with no
    generated controller code: the pair's ``do_step_with_error``, the
    algebra's ``error_ratio_max`` and ``next_step_size``.  It keeps
    ``f(x, t)`` through a rejection and hands over a
    first-same-as-last pair's ``new_derivative`` on acceptance."""

    def __init__(self, pair, algebra, params):
        self.stepper, self.algebra, self.params = pair, algebra, params
        self.dxdt, self.again = None, False

    def try_step(self, system, x, t, dt):
        if t + dt == t:
            raise StepSizeUnderflowError(dt, t)
        pair, algebra = self.stepper, self.algebra
        if self.dxdt is None:
            self.dxdt = algebra.clone_shape(x)
            system(x, self.dxdt, t)
        out, xerr = algebra.clone_shape(x), algebra.clone_shape(x)
        made = pair.do_step_with_error(system, x, t, dt, out=out, xerr=xerr, dxdt_in=self.dxdt)
        err = algebra.error_ratio_max(xerr, x, self.dxdt, self.params.atol, self.params.rtol, dt)
        if err <= 1.0:
            algebra.copy(x, out)
            dt_next = next_step_size(dt, err, pair.error_order, self.again)
            self.dxdt, self.again = None, False
            if pair.fsal:
                self.dxdt = algebra.clone_shape(x)
                algebra.copy(self.dxdt, made[2].new_derivative)
            return StepResult(True, t + dt, dt_next, err)
        if not math.isfinite(err) and not np.isfinite(np.asarray(self.dxdt, dtype=float)).all():
            raise SolverError(f"the derivative at t={t!r} is not finite")
        self.again = True
        dt_next = next_step_size(dt, err, pair.error_order, True)
        if abs(dt_next) < self.params.dt_min:
            raise StepSizeUnderflowError(dt_next, t, err)
        return StepResult(False, t, dt_next, err)


@settings(max_examples=150, deadline=None, database=None)
@given(
    x0=STATES,
    t1=st.floats(0.3, 2.0),
    dt0=st.floats(0.01, 4.0),
    tol=st.floats(1e-9, 1e-3),
    pair=st.sampled_from(sorted(PAIRS)),
    box=st.sampled_from(sorted(WALK_BOXES)),
    grid=st.booleans(),
    kind=st.sampled_from(["after", "beyond", "start", "none", "raises"]),
)
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=4.0, tol=1e-8, pair="dopri5", box="list", grid=False,
         kind="none")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.5, tol=1e-8, pair="ck54", box="numpy", grid=True,
         kind="after")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.5, tol=1e-8, pair="dopri5", box="general", grid=True,
         kind="start")
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt0=0.5, tol=1e-8, pair="ck54", box="list", grid=False,
         kind="raises")
def test_controller_matches_a_loop_over_the_public_pair_ratio_and_controller(
        x0, t1, dt0, tol, pair, box, grid, kind):
    # try_step and the drivers' walk are generated from the same
    # pieces; the reference shares none of them.  Both drivers and a
    # loop of try_step calls give the reference's call log (every
    # stage of every trial), observations, trials, error and final or
    # partial report, bit for bit; the drivers report as many
    # evaluations as the reference made calls.
    box, algebra = WALK_BOXES[box]
    if grid:
        dt0 = min(dt0, t1)
    params = ControllerParams(atol=tol, rtol=tol, dt_min=1e-6)
    targets = expected_grid(0.0, t1, dt0)[1:] if grid else [t1]
    backend = algebra or (NUMPY_ALGEBRA if box is np.array else SEQUENCE_ALGEBRA)

    def looped(stepper):
        rhs, calls = walk_system(kind)
        seen = []
        trials, failure, report = public_walk(stepper, rhs, box(x0), t1, dt0, targets,
                                              lambda x, t: seen.append((t.hex(), hexes(x))), not grid)
        return trials, (calls, seen, failure, outcome(report, len(calls)))

    reference = ReferenceController(PAIRS[pair](algebra), backend, params)
    trials, expected = looped(reference)
    assert looped(ControlledStepper(PAIRS[pair](algebra), params)) == (trials, expected)

    rhs, calls = walk_system(kind)
    seen = []
    try:
        report, failure = (integrate_const if grid else integrate_adaptive)(
            ControlledStepper(PAIRS[pair](algebra), params), rhs, box(x0), 0.0, t1, dt0,
            lambda x, t: seen.append((t.hex(), hexes(x)))), None
    except SolverError as exc:
        report, failure = exc.partial_report, (type(exc), str(exc))
    assert (calls, seen, failure, outcome(report, report.system_evaluations)) == expected
    if x0 == [1.0, -0.5, 0.25] and kind == "none":
        assert not all(accepted for _, _, accepted in trials)  # the explicit example rejects


# --- evaluation counts ----------------------------------------------------


class FreshStartDP5(DormandPrince5):
    """Ignores the derivative it is handed, so each trial evaluates all
    seven stages: a count from the tableau would miss one per trial."""

    def do_step_with_error(self, system, x, t, dt, out=None, xerr=None, dxdt_in=None):
        return super().do_step_with_error(system, x, t, dt, out, xerr)


class GivingUpDP5(DormandPrince5):
    """Evaluates the system twice on its third trial, then raises: the
    evaluations made before the failure are counted too."""

    trials = 0

    def do_step_with_error(self, system, x, t, dt, out=None, xerr=None, dxdt_in=None):
        self.trials += 1
        if self.trials == 3:
            system(x, out, t)
            system(x, out, t)
            raise SolverError("the pair gives up")
        return super().do_step_with_error(system, x, t, dt, out, xerr, dxdt_in)


# Steppers by the drivers that run them: inline, or called with the
# system in an EvaluationCounter.
FIXED = {
    "euler": lambda params: ExplicitEuler(),
    "rk4": lambda params: RungeKutta4(),
    "ck54": lambda params: CashKarp54(),
    "dopri5": lambda params: DormandPrince5(),
    "implicit": lambda params: ImplicitEuler(),
    "duck": lambda params: DuckEuler(),
}
TRYING = {
    "controlled-ck54": lambda params: ControlledStepper(CashKarp54(), params),
    "controlled-dopri5": lambda params: ControlledStepper(DormandPrince5(), params),
    "dense": DenseOutputDopri5,
    "controlled-duck": lambda params: ControlledStepper(DuckEuler(), params),
    "controlled-fresh-start": lambda params: ControlledStepper(FreshStartDP5(), params),
    "controlled-giving-up": lambda params: ControlledStepper(GivingUpDP5(), params),
}
COUNTED_RUNS = sorted([(name, "const") for name in FIXED]
                      + [(name, drive) for name in TRYING for drive in ("const", "adaptive")])


@settings(max_examples=120, deadline=None, database=None)
@given(
    x0=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=UNROLL + 2),
    t1=st.floats(0.05, 2.0),
    dt=st.floats(0.01, 4.0),
    tol=st.floats(1e-9, 1e-3),
    case=st.sampled_from(COUNTED_RUNS),
    as_numpy=st.booleans(),
)
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt=4.0, tol=1e-8, case=("controlled-dopri5", "adaptive"),
         as_numpy=False)
@example(x0=[1.0, -0.5, 0.25], t1=2.0, dt=0.5, tol=1e-8, case=("controlled-fresh-start", "const"),
         as_numpy=True)
@example(x0=[0.5], t1=1.0, dt=0.1, tol=1e-6, case=("implicit", "const"), as_numpy=False)
@example(x0=[0.5, 0.25], t1=2.0, dt=0.5, tol=1e-6, case=("controlled-giving-up", "adaptive"), as_numpy=False)
@example(x0=[0.5, 0.25], t1=2.0, dt=0.5, tol=1e-6, case=("controlled-giving-up", "const"), as_numpy=True)
def test_reported_evaluations_equal_a_counting_closure(x0, t1, dt, tol, case, as_numpy):
    # Rejected trials and failing runs' partial reports included.  A
    # grid keeps at least one point past t0.
    name, drive = case
    if drive == "const":
        dt = min(dt, t1)
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t)
        ring(x, dxdt, t)

    params = ControllerParams(atol=tol, rtol=tol)
    stepper = (FIXED.get(name) or TRYING[name])(params)
    system = JacobianSystem(rhs, rescaled_ring(1.0).jacobian) if name == "implicit" else rhs
    driver = {"adaptive": integrate_adaptive, "const": integrate_const}[drive]
    try:
        report = driver(stepper, system, np.array(x0) if as_numpy else list(x0), 0.0, t1, dt)
    except SolverError as exc:
        report = exc.partial_report
    assert report.system_evaluations == len(calls)
    if name == "controlled-giving-up" and x0 == [0.5, 0.25]:
        assert stepper.stepper.trials >= 3  # the explicit examples give up
    if x0 == [1.0, -0.5, 0.25]:
        assert report.steps_rejected > 0  # the explicit examples reject trials


# --- the numpy kernel's exact ±1 coefficients --------------------------------


def multiply_then_add(out, coeffs, terms):
    """The numpy kernel with every coefficient multiplied: one product
    per term, added left to right."""
    np.multiply(terms[0], coeffs[0], out=out)
    for c, term in zip(coeffs[1:], terms[1:]):
        out += np.multiply(term, c)
    return out


TERM_VALUES = {
    "float64": st.one_of(st.sampled_from([-0.0, math.inf, -math.inf, math.nan]), st.floats()),
    "float32": st.one_of(st.sampled_from([-0.0, math.inf, math.nan]), st.floats(width=32)),
    "int64": st.integers(-2**63, 2**63 - 1),
}


@st.composite
def scale_sum_inputs(draw):
    # 1..MAX_TERMS terms, each coefficient 1.0, -1.0 or any other float
    # at any position; each term float64, float32 or int64 elements.
    k, n = draw(st.integers(1, MAX_TERMS)), draw(st.sampled_from([1, 3]))
    coeffs = tuple(draw(st.one_of(st.just(1.0), st.just(-1.0), st.floats())) for _ in range(k))
    kinds = [draw(st.sampled_from(sorted(TERM_VALUES))) for _ in range(k)]
    terms = [draw(st.lists(TERM_VALUES[kind], min_size=n, max_size=n)) for kind in kinds]
    return coeffs, kinds, terms, draw(st.sampled_from([np.float64, np.float32])), draw(st.booleans())


@settings(max_examples=400, deadline=None, database=None)
@given(case=scale_sum_inputs())
@example(case=((1.0,), ["int64"], [[2**60 + 2**36 + 1]], np.float32, False))
@example(case=((1.0, -1.0, 1.0), ["float64"] * 3, [[-0.0], [0.0], [-0.0]], np.float64, True))
# The fused head, one add or subtract of the first two terms: promoted
# through an int64 second term, into out aliasing the first, on zeros.
@example(case=((1.0, -1.0), ["float32", "int64"], [[3.0], [2**60 + 2**36 + 1]], np.float32, False))
@example(case=((1.0, 1.0, 0.1), ["float64"] * 3, [[0.5], [0.25], [3.0]], np.float64, True))
@example(case=((1.0, -1.0), ["float64"] * 2, [[-0.0], [0.0]], np.float64, False))
def test_the_numpy_kernel_skips_exact_unit_products_bit_for_bit(case):
    # An exact 1.0 or -1.0 is a copy, an add or a subtract instead of a
    # product, a leading 1.0 and a second 1.0 or -1.0 one add or
    # subtract: the same bits as multiplying every term, and on float64
    # as the sequence kernel, signed zeros, inf, NaN and ints included,
    # with out aliasing the first term or not.
    # The numpy copy kernel is the one-term update 1.0 * src.
    coeffs, kinds, terms, dtype, alias = case
    got, copying = [], [lambda out, _, terms: _numpy_copy(out, terms[0])] if coeffs == (1.0,) else []
    for kernel in (_numpy_scale_sum, multiply_then_add, *copying):
        arrays_ = [np.array(term, dtype=kind) for kind, term in zip(kinds, terms)]
        out = np.full(len(terms[0]), np.nan, dtype)
        with np.errstate(all="ignore"):
            if alias:
                out[...] = arrays_[0]
                arrays_[0] = out
            got.append(hexes(kernel(out, coeffs, arrays_)))
    assert all(bits == got[0] for bits in got)
    if dtype is np.float64 and "float32" not in kinds:
        lists = [list(term) for term in terms]
        out = [0.0] * len(terms[0])
        if alias:
            out = lists[0] = [float(v) for v in terms[0]]
        assert hexes(_sequence_scale_sum(len(coeffs))(out, coeffs, lists)) == got[0]


# --- the controller's error ratio -------------------------------------------


def same_ratio(a, b):
    return a == b or (a != a and b != b)  # NaN matches NaN


@st.composite
def ratio_inputs(draw):
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    shape = draw(st.sampled_from([(1,), (5,), (3, 4)]))
    width = 32 if dtype is np.float32 else 64
    values = st.one_of(
        st.just(0.0), st.just(math.nan), st.floats(-1e6, 1e6, width=width)
    )
    xerr, x, dxdt = (draw(arrays(dtype, shape, elements=values)) for _ in range(3))
    atol = draw(st.floats(1e-12, 1.0))
    rtol = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)))
    dt = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    return xerr, x, dxdt, atol, rtol, dt


@settings(max_examples=150, deadline=None, database=None)
@given(args=ratio_inputs())
def test_bound_error_ratio_matches_every_other_form(args):
    xerr, x, dxdt, atol, rtol, dt = args
    work = [NUMPY_ALGEBRA.clone_shape(x) for _ in range(2)]
    bound = NUMPY_ALGEBRA._error_kernel(work)
    got = bound(*args)
    assert type(got) is float
    assert same_ratio(bound(*args), got)  # reusing the buffers
    assert same_ratio(NUMPY_ALGEBRA.error_ratio_max(*args), got)
    with np.errstate(all="ignore"):
        textbook = float(np.max(np.abs(xerr) / (atol + rtol * (np.abs(x) + abs(dt) * np.abs(dxdt)))))
    assert same_ratio(textbook, got)
    if x.dtype == np.float64:
        lists = [v.ravel().tolist() for v in (xerr, x, dxdt)]
        assert same_ratio(SEQUENCE_ALGEBRA.error_ratio_max(*lists, atol, rtol, dt), got)
        list_work = [SEQUENCE_ALGEBRA.clone_shape(lists[1]) for _ in range(2)]
        assert same_ratio(SEQUENCE_ALGEBRA._error_kernel(list_work)(*lists, atol, rtol, dt), got)


# --- implicit Euler's held Newton matrix -------------------------------------


def linear_system(a):
    # Elementwise, so list states keep Python floats; the Jacobian reads
    # ``a`` through the closure, so mutating it in place changes both.
    def rhs(x, dxdt, t):
        for i in range(len(x)):
            dxdt[i] = sum(float(a[i, k]) * x[k] for k in range(len(x)))

    def jacobian(x, jac, t):
        np.copyto(jac, a)

    return JacobianSystem(rhs, jacobian)


HELD_DTS = [0.01, 0.1, 0.5]
HELD_BOXES = {
    "list": list,
    "float64": lambda v: np.array(v, dtype=np.float64),
    "float32": lambda v: np.array(v, dtype=np.float32),
}


@settings(max_examples=60, deadline=None, database=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(["linear", "mutated", "cubic"]),
            st.sampled_from(HELD_DTS),
            st.sampled_from(sorted(HELD_BOXES)),
            st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
            st.sampled_from([-30.0, -3.0, -3e4]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_a_warm_implicit_euler_steps_as_a_fresh_one(steps):
    # The held inverse is keyed on dt and the Jacobian's bytes: keying
    # on the system or on dt alone would answer a warm stepper with
    # another matrix's inverse, and a fresh one would differ.
    a = np.array([[-2.0, 1.0, 0.0], [0.5, -30.0, 2.0], [0.0, 1.0, -400.0]])
    mutable = a.copy()
    systems = {"linear": linear_system(a), "mutated": linear_system(mutable),
               "cubic": rescaled_ring(1.0)}
    warm = ImplicitEuler()
    for i, (kind, dt, box, x0, entry) in enumerate(steps):
        if kind == "mutated":
            mutable[1, 1] = entry
        answers = []
        for stepper in (warm, ImplicitEuler()):
            x = HELD_BOXES[box](x0)
            try:
                stepper.do_step(systems[kind], x, 0.1 * i, dt)
                answers.append((hexes(x), stepper.last_iteration_count))
            except SolverError as exc:
                answers.append((type(exc), str(exc)))
        assert answers[0] == answers[1]


class DelegatingNumpy(NumpyAlgebra):
    """numpy's own kernels behind a replaced ``scale_sum`` and ``copy``,
    which a stepper calls as it calls any replaced method."""

    def scale_sum(self, out, coeffs, terms):
        return super().scale_sum(out, coeffs, terms)

    def copy(self, out, src):
        return super().copy(out, src)


def coupled_decay(cubic):
    """``dx_i/dt = -(i + 1) x_i + 0.5 x_{i+1}``, indices modulo the
    length, minus ``x_i**3`` when ``cubic``, with its Jacobian:
    elementwise, so a list state keeps Python floats."""

    def rhs(x, dxdt, t):
        n = len(x)
        for i in range(n):
            dxdt[i] = -(i + 1.0) * x[i] + 0.5 * x[(i + 1) % n]
            if cubic:
                dxdt[i] = dxdt[i] - x[i] * x[i] * x[i]

    def jacobian(x, jac, t):
        n = len(x)
        for i in range(n):
            jac[i, i] += -(i + 1.0) - (3.0 * x[i] * x[i] if cubic else 0.0)
            jac[i, (i + 1) % n] += 0.5

    return JacobianSystem(rhs, jacobian)


@settings(max_examples=120, deadline=None, database=None)
@given(
    x0=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40),
    dtype=st.sampled_from(["float64", "float32"]),
    cubic=st.booleans(),
    dt=st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    call=st.sampled_from(["in place", "into out", "const", "const observed"]),
)
def test_the_numpy_newton_step_matches_its_kernel_form_and_a_list(x0, dtype, cubic, dt, call):
    # The default numpy backend's Newton step calls numpy's ufuncs; with
    # scale_sum and copy replaced it calls the kernels, and a list state
    # runs the sequence step (float64 only).  A dt of 1.0 makes the
    # residual's -dt a kernel's exact -1.0.
    system = coupled_decay(cubic)
    runs = [(None, np.array(x0, dtype=dtype)), (DelegatingNumpy(), np.array(x0, dtype=dtype))]
    if dtype == "float64":
        runs.append((None, list(x0)))
    answers = []
    for algebra, x in runs:
        stepper, seen = ImplicitEuler(algebra), []
        try:
            if call == "in place":
                answer = hexes(stepper.do_step(system, x, 0.0, dt))
            elif call == "into out":
                out = stepper.do_step(system, x, 0.0, dt, [7.0] * len(x) if isinstance(x, list) else x * 0 + 7)
                answer = (hexes(x), hexes(out))
            else:
                observer = (lambda v, t: seen.append((t.hex(), hexes(v)))) if call == "const observed" else None
                report = integrate_const(stepper, system, x, 0.0, 3 * dt, dt, observer)
                answer = (hexes(report.final_state), report[1:], seen)
        except SolverError as exc:
            answer = (type(exc), str(exc), hexes(x), exc.partial_report and exc.partial_report[1:])
        answers.append((answer, stepper.last_iteration_count, stepper._factorizations))
    assert [ImplicitEuler(algebra)._record(x).pieces[0] for algebra, x in runs] == \
        ["implicit_euler numpy", "implicit_euler numpy kernels", "implicit_euler sequence"][:len(runs)]
    assert all(answer == answers[0] for answer in answers[1:])


@functools.lru_cache(maxsize=None)
def emitted_norms(form, integer):
    """The Newton step's max-norms as ``_newton_code(form)`` emits them,
    run in the names its head unpacks from the ``k`` of a step bound on
    a 2-element state (of ints when ``integer``): ``tol(v)``, the stop
    for a start state ``v``, and ``residual(v)`` and ``update(v)``."""
    algebra, box = {"numpy": (None, np.array), "numpy kernels": (DelegatingNumpy(), np.array),
                    "sequence": (None, list)}[form]
    bound = ImplicitEuler(algebra)._record(box([1, 2] if integer else [1.0, 2.0]))
    key, head, step = bound.pieces
    assert key == f"implicit_euler {form}"
    names = {"k": bound.args[1]}
    exec(next(line for line in head if line.endswith(" = k")), names)
    scale = "\n".join(step[:next(i for i, line in enumerate(step) if line.startswith("tol = ")) + 1])
    (residual,) = [m[1] for m in map(re.compile(r" *if applied and (.+) <= tol:").fullmatch, step) if m]
    (update,) = [line.split(" = ", 1)[1] for line in step if line.lstrip().startswith("size = ")]

    def tol(v):
        local = {"x": v, "t": 0.0, "dt": 0.1}
        exec(scale, names, local)
        return local["tol"]

    return (tol, lambda v: eval(residual, names, {"g": v}), lambda v: eval(update, names, {"delta": v}),
            names["floor"])


def special_values(dtype):
    if dtype is np.int64:
        return st.one_of(st.sampled_from([0, 1, -1, 2**53 + 1, 2**63 - 1, -2**63]), st.integers(-2**63, 2**63 - 1))
    tiny = float(np.finfo(dtype).smallest_subnormal)
    return st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, tiny, -tiny]),
                     st.floats(width=np.finfo(dtype).bits))


@st.composite
def norm_inputs(draw):
    """float64, float32 or int64 arrays of 1 to 40 elements, 1-D or 2-D."""
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    rows = draw(st.integers(1, 40))
    shape = draw(st.sampled_from([(rows,), (rows, draw(st.integers(1, 40 // rows)))]))
    return draw(arrays(dtype, shape, elements=special_values(dtype)))


@settings(max_examples=300, deadline=None, database=None)
@given(v=norm_inputs())
@example(v=np.array([1.0, -math.nan, math.inf]))
@example(v=np.array([[-0.0], [-0.0]], dtype=np.float32))
@example(v=np.array([-2**63, 3]))
def test_the_emitted_newton_norms_select_numpys_maximum_bit_for_bit(v):
    # The stop's scale, the residual check and the update size take
    # a max-norm; each form's emitted text gives, for every value,
    # the bits of numpy's reduction: NaN wherever it sits, +0.0 for
    # -0.0, a subnormal as it is.  The scale of an integer state is an
    # int, which must give the same tol as its float did.  So does the
    # numpy error ratio's maximum, here over |v| / 1.0 (atol 1, rtol 0).
    reference, integer = float(np.maximum.reduce(np.abs(v), None)), v.dtype == np.int64
    if not integer:
        zero = np.zeros_like(v)
        ratio = _numpy_error_ratio(np.zeros_like(v), np.zeros_like(v))(v, zero, zero, 1.0, 0.0, 0.0)
        assert type(ratio) is float and ratio.hex() == reference.hex()
    for form in ("numpy", "numpy kernels", "sequence"):
        tol, residual, update, floor = emitted_norms(form, integer)
        state = v.ravel().tolist() if form == "sequence" else v
        assert tol(state).hex() == (floor * max(1.0, reference)).hex()
        for norm in () if integer else (residual, update):
            got = norm(state)
            assert type(got) is float and got.hex() == reference.hex()
