"""Clean state per run, accepted steps that never raise, named failure
causes, partial reports from every controlled run, integer states,
initial states checked at every run entry (0-d arrays included),
numpy scalar bounds and manual step times run as Python floats, empty
states and bounds checked at the manual stepping entry points, zero
error scales that fail as on numpy, and errors and used steppers that
survive pickling."""

import copy
import math
import pickle

import numpy as np
import pytest

from odekit import (
    CashKarp54,
    ControlledStepper,
    ControllerParams,
    ConvergenceError,
    DenseOutputDopri5,
    DimensionError,
    DormandPrince5,
    ExplicitEuler,
    HARMONIC,
    ImplicitEuler,
    IntegrationReport,
    JacobianSystem,
    LORENZ,
    PairState,
    RungeKutta4,
    SeparableHamiltonian,
    SingularMatrixError,
    SolverError,
    StepSizeUnderflowError,
    SymplecticEuler,
    harmonic_separable,
    integrate_adaptive,
    integrate_const,
)
from odekit.algebra import SequenceAlgebra
from reference import hexes, nan_after_start


def decay(x, dxdt, t):
    dxdt[0] = -x[0]


def nan_rhs(x, dxdt, t):
    dxdt[0] = float("nan")


def tight():
    return ControllerParams(atol=1e-8, rtol=1e-8)


def test_reused_controlled_stepper_matches_fresh_one():
    reused = ControlledStepper(DormandPrince5(), tight())
    integrate_adaptive(reused, LORENZ, [10.0, 10.0, 10.0], 0.0, 1.0, 0.01)
    again = integrate_adaptive(reused, LORENZ, [-5.0, 3.0, 20.0], 0.0, 1.0, 0.01)
    fresh = integrate_adaptive(
        ControlledStepper(DormandPrince5(), tight()), LORENZ, [-5.0, 3.0, 20.0], 0.0, 1.0, 0.01
    )
    assert again.final_state == fresh.final_state
    assert again.system_evaluations == fresh.system_evaluations


def test_accepted_step_below_dt_min_does_not_raise():
    ctl = ControlledStepper(DormandPrince5(), ControllerParams(dt_min=1e-6))
    x = [1.0]
    result = ctl.try_step(decay, x, 0.0, 1e-7)
    assert result.accepted
    assert result.t == 1e-7
    assert x[0] == pytest.approx(np.exp(-1e-7), abs=1e-15)
    assert result.dt > 1e-7


def test_rejection_below_dt_min_still_raises():
    ctl = ControlledStepper(DormandPrince5(), ControllerParams(dt_min=1e-6))
    x = [1.0]
    with pytest.raises(StepSizeUnderflowError):
        ctl.try_step(nan_after_start, x, 0.0, 1e-6)
    assert x == [1.0]


def test_non_finite_error_named_in_underflow():
    with pytest.raises(StepSizeUnderflowError, match="not finite") as info:
        integrate_adaptive(ControlledStepper(DormandPrince5()), nan_after_start, [1.0], 0.0, 1.0, 0.1)
    report = info.value.partial_report
    assert report.steps_accepted == 0 and report.steps_rejected > 0


def test_finite_underflow_does_not_blame_non_finite():
    # A first trial 1000 wide on x' = -x misses the tolerance by far:
    # its error is finite, and the width it proposes is below 500.
    params = ControllerParams(dt_min=500.0)
    with pytest.raises(StepSizeUnderflowError) as info:
        integrate_adaptive(ControlledStepper(DormandPrince5(), params), decay,
                           [1.0], 0.0, 1000.0, 1000.0)
    assert "finite" not in str(info.value)
    assert info.value.partial_report.steps_attempted == 0


def zero_scale(x, dxdt, t):
    # x[0] stays exactly 0 with a zero derivative: with atol 0 its
    # error scale is 0.
    dxdt[0] = 0.0
    dxdt[1] = -x[1]


class OwnPair(DormandPrince5):
    """A pair of the user's: the controller's trial calls its do_step_with_error."""

    def do_step_with_error(self, system, x, t, dt, out=None, xerr=None, dxdt_in=None):
        return super().do_step_with_error(system, x, t, dt, out, xerr, dxdt_in)


class CopyingAlgebra(SequenceAlgebra):
    """A sequence backend that replaces ``copy``: the trial calls kernels."""

    def copy(self, out, src):
        return super().copy(out, src)


ZERO_SCALE_RUNS = {
    "inline": (list, lambda params: ControlledStepper(DormandPrince5(), params)),
    "kernels": (list, lambda params: ControlledStepper(DormandPrince5(), params, CopyingAlgebra())),
    "general": (list, lambda params: ControlledStepper(OwnPair(), params)),
    "numpy": (np.array, lambda params: ControlledStepper(DormandPrince5(), params)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("path", ["inline", "kernels", "general"])
def test_a_zero_error_scale_divides_as_numpy_does(path):
    # 0/0 in the error ratio is NaN on every path, as on numpy: the
    # trials are rejected down to dt_min, and the run fails with a
    # partial report, not a bare ZeroDivisionError.
    params = ControllerParams(atol=0.0, rtol=1e-6)
    outcomes = []
    for box, make in (ZERO_SCALE_RUNS[path], ZERO_SCALE_RUNS["numpy"]):
        result = make(params).try_step(zero_scale, box([0.0, 1.0]), 0.0, 0.1)
        with pytest.raises(StepSizeUnderflowError) as info:
            integrate_adaptive(make(params), zero_scale, box([0.0, 1.0]), 0.0, 1.0, 0.1)
        report = info.value.partial_report
        outcomes.append((
            result.accepted, result.dt.hex(), repr(result.error_ratio), type(info.value), str(info.value),
            report.final_time.hex(), [float(v).hex() for v in report.final_state],
            report.steps_accepted, report.steps_rejected, report.system_evaluations,
        ))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] == "nan" and "nan, not finite" in outcomes[0][4]


def bounded(kind, calls, inner, limit=1000):
    # A run that makes no progress fails here instead of hanging.
    def call(*args):
        calls[kind] += 1
        assert calls[kind] <= limit, f"{kind} called {limit} times"
        return inner(*args)

    return call


def controlled():
    return ControlledStepper(DormandPrince5())


@pytest.mark.parametrize("make, drive", [
    pytest.param(make, drive, id=f"{name}-{drive.__name__.split('_')[1]}")
    for name, make in (("controlled", controlled), ("dense", DenseOutputDopri5),
                       ("rk4", RungeKutta4), ("euler", ExplicitEuler))
    for drive in (integrate_adaptive, integrate_const)
    if drive is integrate_const or name in ("controlled", "dense")
])
def test_a_width_that_cannot_move_t_ends_the_run(drive, make):
    # Floats near 1e16 are 2 apart: a width of 0.01 passes the error
    # test, yet t + dt == t, so accepted steps would never reach t1,
    # and grid points 0.01 apart all round onto t0: the observer sees
    # t0 alone.
    calls = {"rhs": 0, "observer": 0}
    rhs = bounded("rhs", calls, HARMONIC)
    observer = bounded("observer", calls, lambda x, t: None)
    with pytest.raises(StepSizeUnderflowError, match="at t=1e[+]16: dt=0.01") as info:
        drive(make(), rhs, [1.0, 0.0], 1e16, 1e16 + 64.0, 0.01, observer)
    report = info.value.partial_report
    assert report.final_time == 1e16 and report.final_state == [1.0, 0.0]
    assert report.system_evaluations == calls["rhs"] == 0
    assert report.steps_attempted == 0
    assert calls["observer"] == 1


def test_fixed_steps_end_where_t_stops_moving():
    # Floats are 1 apart below 2**53 and 2 apart above: widths of 0.75
    # move t at first, then a grid point rounds onto the one before.
    t0, calls = 2.0**53 - 8.0, []
    seen = []

    def rhs(x, dxdt, t):
        calls.append(t)
        HARMONIC(x, dxdt, t)

    with pytest.raises(StepSizeUnderflowError) as info:
        integrate_const(RungeKutta4(), rhs, [1.0, 0.0], t0, t0 + 64.0, 0.75,
                        lambda x, t: seen.append(t))
    report = info.value.partial_report
    assert seen == sorted(set(seen)) and len(seen) > 2
    assert report.final_time == seen[-1] == info.value.t
    assert report.steps_accepted == len(seen) - 1
    assert report.system_evaluations == len(calls) == 4 * report.steps_accepted


def test_integrate_const_controlled_failure_carries_partial_report():
    steps, calls = [], {"rhs": 0}
    rhs = bounded("rhs", calls, nan_after_start)
    with pytest.raises(StepSizeUnderflowError) as info:
        integrate_const(ControlledStepper(DormandPrince5()), rhs, [1.0], 0.0, 1.0, 0.1,
                        lambda x, t: steps.append(t))
    report = info.value.partial_report
    assert report is not None
    assert report.final_time == 0.0 and report.final_state == [1.0]
    assert report.steps_attempted == report.steps_rejected > 0
    # The cached derivative, then six stages per rejected trial and
    # the raising one.
    assert report.system_evaluations == calls["rhs"] == 1 + 6 * (report.steps_rejected + 1)
    assert steps == [0.0]


@pytest.mark.parametrize(
    "drive, make",
    [(integrate_adaptive, lambda: ControlledStepper(DormandPrince5())),
     (integrate_const, lambda: ControlledStepper(DormandPrince5())),
     (integrate_adaptive, DenseOutputDopri5),
     (integrate_const, DenseOutputDopri5)],
    ids=["adaptive-controlled", "const-controlled", "adaptive-dense", "const-dense"],
)
def test_non_finite_derivative_fails_fast_in_every_driver(drive, make):
    # The derivative at the start is NaN: the first trial raises a
    # SolverError that blames it, after 7 evaluations, not an underflow
    # after 18 rejections.
    seen = []
    with pytest.raises(SolverError, match="the derivative at t=0.0 is not finite") as info:
        drive(make(), nan_rhs, [1.0], 0.0, 1.0, 0.1, lambda x, t: seen.append(t))
    assert not isinstance(info.value, StepSizeUnderflowError)
    report = info.value.partial_report
    assert report.final_time == 0.0 and report.final_state == [1.0]
    assert report.steps_attempted == 0  # the raising trial is not counted
    assert report.system_evaluations == 7
    assert seen == [0.0]


@pytest.mark.parametrize(
    "make",
    [RungeKutta4, lambda: ControlledStepper(CashKarp54()), DenseOutputDopri5],
    ids=["plain", "controlled", "dense"],
)
def test_integer_numpy_state_runs_as_float64(make):
    ints = integrate_const(make(), HARMONIC, np.array([1, 0]), 0, 1, 0.1)
    floats = integrate_const(make(), HARMONIC, [1.0, 0.0], 0, 1, 0.1)
    assert ints.final_state.dtype == np.float64
    assert list(ints.final_state) == floats.final_state


@pytest.mark.parametrize(
    "make",
    [RungeKutta4, lambda: ControlledStepper(CashKarp54()), DenseOutputDopri5],
    ids=["plain", "controlled", "dense"],
)
def test_float32_state_stays_float32(make):
    report = integrate_const(make(), HARMONIC, np.array([1.0, 0.0], dtype=np.float32), 0, 1, 0.1)
    assert report.final_state.dtype == np.float32


def test_integer_state_through_integrate_adaptive():
    x0 = np.array([True])
    report = integrate_adaptive(ControlledStepper(DormandPrince5()), decay, x0, 0.0, 1.0, 0.1)
    assert report.final_state.dtype == np.float64
    assert report.final_state[0] == pytest.approx(np.exp(-1.0), rel=1e-5)
    assert x0[0]


BAD_INITIAL_STATES = [
    ([], DimensionError),
    ([math.nan], ValueError),
    ([1.0, math.inf], ValueError),
]


def _start_dense(stepper, system, x0, t0, t1, dt, observer):
    stepper.initialize(x0, t0, dt)


# Every run entry: the drivers with each kind of stepper, and dense
# output's initialize.
RUN_ENTRIES = pytest.mark.parametrize(
    "drive, make",
    [(integrate_const, RungeKutta4),
     (integrate_const, ImplicitEuler),
     (integrate_const, lambda: ControlledStepper(DormandPrince5())),
     (integrate_const, DenseOutputDopri5),
     (integrate_adaptive, lambda: ControlledStepper(DormandPrince5())),
     (integrate_adaptive, DenseOutputDopri5),
     (_start_dense, DenseOutputDopri5)],
    ids=["const-rk4", "const-implicit", "const-controlled", "const-dense",
         "adaptive-controlled", "adaptive-dense", "initialize"],
)


def refused_entry(drive, make, x0, error):
    """Run ``drive`` from ``x0``, expecting ``error`` about the initial
    state before the rhs or the observer sees anything."""
    calls, seen = [], []

    def rhs(x, dxdt, t):
        calls.append(t)
        for i in range(len(x)):
            dxdt[i] = -x[i]

    def jacobian(x, jac, t):
        jac[...] = -np.eye(len(x))

    system = JacobianSystem(rhs, jacobian)
    with pytest.raises(error, match="initial state") as info:
        drive(make(), system, x0, 0.0, 1.0, 0.1, lambda x, t: seen.append(t))
    assert isinstance(info.value, DimensionError) == (error is DimensionError)
    assert calls == [] and seen == []
    return info.value


@pytest.mark.parametrize("container", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("x0, error", BAD_INITIAL_STATES, ids=["empty", "nan", "inf"])
@RUN_ENTRIES
def test_bad_initial_state_is_refused_before_any_call(drive, make, x0, error, container):
    # An empty state has no error ratio and a non-finite one no
    # trajectory: every run entry refuses both before the rhs or the
    # observer sees anything, for lists and numpy alike.
    refused_entry(drive, make, container(x0), error)


@RUN_ENTRIES
def test_zero_dimensional_state_is_refused_before_any_call(drive, make):
    # np.array(1.0) is neither empty nor non-finite, but it has no
    # length: the stepper would fail on it with a TypeError.
    assert "0-d array" in str(refused_entry(drive, make, np.array(1.0), DimensionError))


MANUAL_STEPS = {
    "rk4": lambda sys, x: RungeKutta4().do_step(sys, x, 0.0, 0.1),
    "with-error": lambda sys, x: CashKarp54().do_step_with_error(sys, x, 0.0, 0.1),
    "implicit": lambda sys, x: ImplicitEuler().do_step(sys, x, 0.0, 0.1),
    "controlled": lambda sys, x: ControlledStepper(DormandPrince5()).try_step(sys, x, 0.0, 0.1),
    "dense": lambda sys, x: DenseOutputDopri5().try_step(sys, x, 0.0, 0.1),
    "symplectic": lambda sys, x: SymplecticEuler().do_step(
        SeparableHamiltonian(sys, sys), PairState(x, x), 0.0, 0.1),
}


@pytest.mark.parametrize("container", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("step", MANUAL_STEPS.values(), ids=MANUAL_STEPS.keys())
def test_manual_step_on_an_empty_state_is_refused_before_any_call(step, container):
    # The stepper's scratch refuses an empty state when it binds, so
    # lists and numpy fail alike and the rhs never runs.
    calls = []

    def rhs(*args):
        calls.append(args)

    system = JacobianSystem(rhs, rhs)
    with pytest.raises(DimensionError, match="empty"):
        step(system, container([]))
    assert calls == []


@pytest.mark.parametrize("x0", [[], [math.nan]], ids=["empty", "nan"])
def test_refused_initialize_keeps_the_session(x0):
    dense = DenseOutputDopri5()
    dense.initialize([2.0], 1.0, 0.1)
    with pytest.raises(ValueError, match="initial state"):
        dense.initialize(x0, 0.0, 0.1)
    assert dense.current_state == [2.0] and dense.current_time == 1.0


NON_FINITE = [(0.0, math.nan), (0.0, math.inf), (0.0, -math.inf), (math.nan, 0.1), (math.inf, 0.1)]


@pytest.mark.parametrize("t, dt", NON_FINITE)
def test_try_step_rejects_non_finite_time_or_width(t, dt):
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t)
        dxdt[0] = -x[0]

    for stepper in (ControlledStepper(DormandPrince5()), DenseOutputDopri5()):
        x = [1.0]
        with pytest.raises(ValueError, match="finite"):
            stepper.try_step(rhs, x, t, dt)
        assert x == [1.0]
    assert calls == []


@pytest.mark.parametrize("t0, dt0", NON_FINITE)
def test_dense_initialize_rejects_non_finite_start_or_width(t0, dt0):
    with pytest.raises(ValueError, match="finite"):
        DenseOutputDopri5().initialize([1.0], t0, dt0)


@pytest.mark.parametrize(
    "error, attributes",
    [
        (SolverError("diverged"), {}),
        (SingularMatrixError("singular Newton matrix at t=0.5"), {}),
        (StepSizeUnderflowError(1e-15, 2.0, math.nan), {"dt": 1e-15, "t": 2.0}),
        (StepSizeUnderflowError(1e-15), {"dt": 1e-15, "t": None}),
        (ConvergenceError(7, "Newton stalled"), {"iterations": 7}),
        (ConvergenceError(7), {"iterations": 7}),
    ],
    ids=["base", "singular", "underflow", "underflow-bare", "convergence", "convergence-bare"],
)
def test_solver_errors_survive_pickling(error, attributes):
    # As multiprocessing hands a worker's exception back.
    error.partial_report = IntegrationReport([1.0, 2.0], 0.5, 3, 1, 20)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert {k: getattr(back, k) for k in attributes} == attributes
    assert back.partial_report == error.partial_report


def test_pickling_test_covers_every_solver_error():
    covered = {SolverError, SingularMatrixError, StepSizeUnderflowError, ConvergenceError}
    assert set(SolverError.__subclasses__()) | {SolverError} == covered


# --- pickling and copying used steppers ---------------------------------------


def run_fixed(stepper, box):
    report = integrate_const(stepper, HARMONIC, box([1.0, 0.5]), 0.0, 1.0, 0.125)
    return hexes(report.final_state), report.steps_attempted, report.system_evaluations


def run_adaptive(stepper, box):
    seen, rhs = [], bounded("rhs", {"rhs": 0}, LORENZ, limit=5000)  # a broken copy may crawl
    report = integrate_adaptive(stepper, rhs, box([10.0, 10.0, 10.0]), 0.0, 0.5, 0.05,
                                lambda x, t: seen.append((hexes(x), t.hex())))
    counters = (report.steps_accepted, report.steps_rejected, report.system_evaluations)
    return seen, hexes(report.final_state), counters


def run_grid(stepper, box):
    # Dense output observed on a grid finer than its steps.
    seen, rhs = [], bounded("rhs", {"rhs": 0}, LORENZ, limit=5000)
    report = integrate_const(stepper, rhs, box([10.0, 10.0, 10.0]), 0.0, 0.1, 0.001,
                             lambda x, t: seen.append((hexes(x), t.hex())))
    counters = (report.steps_accepted, report.steps_rejected, report.system_evaluations)
    return seen, hexes(report.final_state), counters


def run_symplectic(stepper, box):
    state = PairState(box([1.0, 0.5]), box([0.0, -0.25]))
    for k in range(8):
        stepper.do_step(harmonic_separable(), state, 0.125 * k, 0.125)
    return hexes(state.q) + hexes(state.p)


USED_STEPPERS = {
    "euler": (ExplicitEuler, run_fixed),
    "rk4": (RungeKutta4, run_fixed),
    "dopri5": (DormandPrince5, run_fixed),
    "implicit": (ImplicitEuler, run_fixed),
    "controlled-ck54": (lambda: ControlledStepper(CashKarp54(), tight()), run_adaptive),
    "controlled-dopri5": (lambda: ControlledStepper(DormandPrince5(), tight()), run_adaptive),
    "dense": (lambda: DenseOutputDopri5(tight()), run_adaptive),
    "dense-const": (lambda: DenseOutputDopri5(tight()), run_grid),
    "symplectic": (SymplecticEuler, run_symplectic),
}


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("kind", sorted(USED_STEPPERS))
def test_used_steppers_pickle_and_copy(kind, box):
    # A stepper's scratch and generated code are left out of a pickle
    # or a copy; the copy binds its own and runs as the original does
    # after reset(), bit for bit, and leaves the original untouched.
    # A controller's copy, taken after a rejected trial, proposes the
    # width of its first manual trial as the original does after reset().
    make, run = USED_STEPPERS[kind]
    stepper = make()
    run(stepper, box)
    trial = getattr(stepper, "try_step", None) and (lambda s, dt: s.try_step(LORENZ, box([10.0, 10.0, 10.0]), 0.0, dt))
    assert not trial or not trial(stepper, 1.0).accepted
    copies = [pickle.loads(pickle.dumps(stepper)), copy.deepcopy(stepper)]
    getattr(stepper, "reset", lambda: None)()
    expected = trial and trial(stepper, 0.001), run(stepper, box)
    for twin in copies:
        assert (trial and trial(twin, 0.001), run(twin, box)) == expected
    assert run(stepper, box) == expected[1]


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
def test_dense_stepping_resumes_from_a_pickle(box):
    dense = DenseOutputDopri5(tight())
    dense.initialize(box([10.0, 10.0, 10.0]), 0.0, 0.05)
    for _ in range(3):
        dense.do_step(LORENZ)
    resumed = pickle.loads(pickle.dumps(dense))
    dense.reset()
    runs = []
    for stepper in (dense, resumed):
        intervals = [stepper.do_step(LORENZ) for _ in range(3)]
        mid = sum(stepper.interval) / 2
        runs.append((intervals, hexes(stepper.current_state), hexes(stepper.calc_state(mid))))
    assert runs[0] == runs[1]


def harmonic_params():
    return ControllerParams(atol=1e-10, rtol=1e-10)


# Every driver with each kind of stepper, on the harmonic oscillator.
BOUNDED_RUNS = {
    "const-rk4": (integrate_const, RungeKutta4),
    "const-implicit": (integrate_const, ImplicitEuler),
    "const-controlled": (integrate_const, lambda: ControlledStepper(DormandPrince5(), harmonic_params())),
    "const-dense": (integrate_const, lambda: DenseOutputDopri5(harmonic_params())),
    "adaptive-controlled": (integrate_adaptive, lambda: ControlledStepper(DormandPrince5(), harmonic_params())),
    "adaptive-dense": (integrate_adaptive, lambda: DenseOutputDopri5(harmonic_params())),
}


def typed_hexes(values):
    return [(type(v), float(v).hex()) for v in values]


@pytest.mark.parametrize("scalar", [np.float32, np.float64])
@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("name", sorted(BOUNDED_RUNS))
def test_numpy_scalar_bounds_run_as_python_floats(name, box, scalar):
    # Under NumPy 2's promotion rules a float32 time or width kept every
    # time and stage coefficient in float32: the list state's elements,
    # the observed times and the final time came back as float32, and
    # the adaptive error was 8e-7, not 3e-10.  The bounds are taken as
    # the Python floats of their values, bit for bit.
    drive, make = BOUNDED_RUNS[name]

    def run(t0, t1, dt):
        seen = []
        report = drive(make(), HARMONIC, box([1.0, 0.0]), t0, t1, dt,
                       lambda x, t: seen.append(typed_hexes([t, *x])))
        return seen, typed_hexes([report.final_time, *report.final_state]), report.steps_attempted

    bounds = (scalar(0.0), scalar(10.0), scalar(0.1))
    got = run(*bounds)
    assert got == run(*map(float, bounds))
    final_time, *state = got[1]
    assert final_time[0] is float and (box is np.array or {kind for kind, _ in state} == {float})


def driven(x, dxdt, t):
    # A harmonic oscillator forced by t, so the stage times show.
    dxdt[0] = x[1] + t
    dxdt[1] = -x[0]


DRIVEN = JacobianSystem(driven, HARMONIC.jacobian)


def dense_at(x, t, dt):
    dense = DenseOutputDopri5()
    dense.initialize(x, 0.0, dt)
    dense.do_step(DRIVEN)
    return dense.calc_state(t)


MANUAL_ENTRIES = {
    "try_step": lambda x, t, dt: [*ControlledStepper(DormandPrince5()).try_step(DRIVEN, x, t, dt)[1:], *x],
    "do_step_with_error": lambda x, t, dt: [v for part in DormandPrince5().do_step_with_error(DRIVEN, x, t, dt)[:2]
                                            for v in part],
    "calc_state": dense_at,
    "implicit_do_step": lambda x, t, dt: ImplicitEuler().do_step(DRIVEN, x, t, dt),
}


@pytest.mark.parametrize("scalar", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(MANUAL_ENTRIES))
def test_manual_entries_take_numpy_scalars_as_python_floats(name, scalar):
    # A float32 time or width kept a manual step on a list in single
    # precision, as it kept the drivers (above): try_step wrote float32
    # elements into the list, and calc_state interpolated in float32.
    entry, t, dt = MANUAL_ENTRIES[name], scalar(0.05), scalar(0.1)
    got = typed_hexes(entry([1.0, 0.0], t, dt))
    assert {kind for kind, _ in got} == {float}
    assert got == typed_hexes(entry([1.0, 0.0], float(t), float(dt)))
    assert [value for _, value in got] == [float(v).hex() for v in entry(np.array([1.0, 0.0]), t, dt)]
