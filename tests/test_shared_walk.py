"""Dense output as a controlled stepper on the shared walk, one trial
call form for every embedded pair, scratch keyed on shape and dtype,
partial reports from the fixed-step driver, and every controller,
dense output and a pair of the user's included, walked with no call
of its try_step, and no call of next_step_size in the library; a
pair of the user's handed the system of a manual try_step, and the
run's one counter on the walk."""

import ast
import functools
import math
import pathlib

import numpy as np
import pytest

from odekit import (
    CashKarp54,
    ControlledStepper,
    ConvergenceError,
    DenseOutputDopri5,
    DormandPrince5,
    EvaluationCounter,
    ImplicitEuler,
    HARMONIC,
    JacobianSystem,
    RungeKutta4,
    SolverError,
    StepSizeUnderflowError,
    integrate_adaptive,
    integrate_const,
)
from test_integrate import failing_harmonic
from test_properties import delegating


def expgrow(x, dxdt, t):
    dxdt[0] = x[0]


def nan_after_start(x, dxdt, t):
    # Finite at the start state, NaN at every later stage.
    dxdt[0] = -x[0] if t == 0.0 else float("nan")


def test_dense_driver_never_evaluates_past_t1():
    times = []

    def rhs(x, dxdt, t):
        times.append(t)
        dxdt[0] = x[0]

    report = integrate_const(DenseOutputDopri5(), rhs, [1.0], 0.0, 1.05, 0.1)
    assert max(times) <= math.nextafter(1.05, math.inf)
    assert report.final_time == 1.05
    assert report.final_state[0] == pytest.approx(math.exp(1.05), rel=1e-6)


def test_dense_driver_final_state_is_the_stepped_state():
    ref = integrate_adaptive(DenseOutputDopri5(), expgrow, [1.0], 0.0, 1.05, 0.1)
    seen = []
    report = integrate_const(DenseOutputDopri5(), expgrow, [1.0], 0.0, 1.05, 0.1,
                             lambda x, t: seen.append((t, list(x))))
    assert report.final_state == ref.final_state
    assert seen[-1] == (1.05, ref.final_state)
    assert report.system_evaluations == ref.system_evaluations


def test_dense_failure_carries_partial_report():
    seen, calls = [], []

    def rhs(x, dxdt, t):
        calls.append(t)
        nan_after_start(x, dxdt, t)

    with pytest.raises(StepSizeUnderflowError) as info:
        integrate_const(DenseOutputDopri5(), rhs, [1.0], 0.0, 1.0, 0.1,
                        lambda x, t: seen.append(t))
    report = info.value.partial_report
    assert report is not None
    assert report.final_time == 0.0 and report.final_state == [1.0]
    assert report.steps_accepted == 0
    assert report.steps_attempted == report.steps_rejected > 0
    assert report.system_evaluations == len(calls) == 1 + 6 * (report.steps_rejected + 1)
    assert seen == [0.0]


def test_integrate_adaptive_runs_dense_stepper():
    dense = DenseOutputDopri5()
    times = []
    report = integrate_adaptive(dense, expgrow, np.array([1.0]), 0.0, 1.0, 0.1,
                                lambda x, t: times.append(t))
    assert times[0] == 0.0 and times[-1] == 1.0
    assert report.steps_accepted == len(times) - 1
    lo, hi = dense.interval
    assert lo == times[-2]
    assert dense.calc_state(hi)[0] == pytest.approx(report.final_state[0], rel=1e-12)
    mid = 0.5 * (lo + hi)
    assert dense.calc_state(mid)[0] == pytest.approx(math.exp(mid), rel=1e-6)


def test_dense_try_step_contract():
    dense = DenseOutputDopri5()
    x = [1.0]
    rejected = dense.try_step(expgrow, x, 0.0, 5.0)
    assert not rejected.accepted and rejected.t == 0.0 and x == [1.0]
    assert rejected.error_ratio > 1.0
    with pytest.raises(RuntimeError):
        dense.calc_state(0.0)
    accepted = dense.try_step(expgrow, x, 0.0, 0.01)
    assert accepted.accepted and accepted.error_ratio <= 1.0
    assert dense.interval == (0.0, accepted.t)
    assert dense.calc_state(0.0) == [1.0]
    dense.reset()
    with pytest.raises(RuntimeError):
        dense.calc_state(0.0)


def test_ck54_trial_reuses_cached_derivative():
    counter = EvaluationCounter(expgrow)
    ctl = ControlledStepper(CashKarp54())
    x = [1.0]
    first = ctl.try_step(counter, x, 0.0, 5.0)
    assert not first.accepted
    assert counter.count == 6
    counter.reset()
    ctl.try_step(counter, x, 0.0, first.dt)
    assert counter.count == 5


def decay_all(x, dxdt, t):
    dxdt[...] = -x


def test_scratch_follows_numpy_shape():
    rk4 = RungeKutta4()
    rk4.do_step(decay_all, np.ones((3, 4)), 0.0, 0.1)
    out = rk4.do_step(decay_all, np.ones((3, 5)), 0.0, 0.1)
    assert out.shape == (3, 5)
    assert np.all(out == RungeKutta4().do_step(decay_all, np.ones((3, 5)), 0.0, 0.1))


def test_scratch_follows_numpy_dtype():
    rk4 = RungeKutta4()
    rk4.do_step(decay_all, np.ones(1), 0.0, 0.1)
    reused = rk4.do_step(decay_all, np.ones(1, dtype=np.float32), 0.0, 0.1)
    fresh = RungeKutta4().do_step(decay_all, np.ones(1, dtype=np.float32), 0.0, 0.1)
    assert reused.dtype == np.float32
    assert reused[0] == fresh[0]


def test_integrate_const_fixed_failure_carries_partial_report():
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t)
        dxdt[0] = -x[0]

    def jac(x, out, t):
        # Lies once t passes 0.25: with dt = 0.1 the Newton matrix is
        # 1 - 0.1*30 = -2, and the error grows 1.55-fold per update.
        out[0, 0] = -1.0 if t < 0.25 else 30.0

    seen = []
    stepper = ImplicitEuler()
    with pytest.raises(ConvergenceError) as info:
        integrate_const(stepper, JacobianSystem(rhs, jac), np.array([1.0]), 0.0, 1.0, 0.1,
                        lambda x, t: seen.append(t))
    report = info.value.partial_report
    assert report is not None
    assert report.final_time == seen[-1] == pytest.approx(0.2)
    assert report.steps_attempted == report.steps_accepted == len(seen) - 1
    assert report.steps_rejected == 0
    # Every Newton pass evaluates once, the stalled step's 51 passes too.
    assert report.system_evaluations == len(calls) > 51
    assert report.final_state[0] == pytest.approx(1.0 / 1.1 ** 2)


def test_shipped_controller_walks_with_no_try_step_or_controller_call(monkeypatch):
    # The generated walk runs the trial and the step size control of
    # every controller inline, around a shipped pair or one whose
    # do_step_with_error is the user's, the dense stepper's fit and
    # grid samples included.  Manual stepping calls try_step, and
    # nothing in the library calls next_step_size, the reference.
    import odekit.controlled as controlled

    calls, trials = [], []
    real = controlled.next_step_size
    monkeypatch.setattr(controlled, "next_step_size", lambda *args: calls.append(args) or real(*args))
    real_try = ControlledStepper.try_step

    @functools.wraps(real_try)  # keeps the marks the drivers read
    def try_step(self, *args):
        trials.append(args)
        return real_try(self, *args)

    monkeypatch.setattr(ControlledStepper, "try_step", try_step)
    for box in (list, np.array):
        for pair in (CashKarp54, DormandPrince5, delegating(DormandPrince5)):
            report = integrate_adaptive(ControlledStepper(pair()), expgrow, box([1.0]), 0.0, 1.0, 0.1)
            assert report.steps_accepted > 0
        for driver in (integrate_adaptive, integrate_const):
            seen = []
            report = driver(DenseOutputDopri5(), expgrow, box([1.0]), 0.0, 1.0, 0.01,
                            lambda x, t: seen.append(t))
            assert report.steps_accepted > 0 and len(seen) > report.steps_accepted
    assert calls == [] and trials == []
    for stepper in (ControlledStepper(DormandPrince5()), ControlledStepper(delegating(CashKarp54)()),
                    DenseOutputDopri5()):
        stepper.try_step(expgrow, [1.0], 0.0, 0.1)
    assert len(trials) == 3 and calls == []
    source = pathlib.Path(controlled.__file__).parent
    callers = [path.name for path in source.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and "next_step_size" in (getattr(node.func, "id", None),
                                                                       getattr(node.func, "attr", None))]
    assert callers == []


def spying_pair(seen):
    """The ``delegating`` DP5, a pair of the user's, appending the
    system each of its calls receives to ``seen``."""

    class Spying(delegating(DormandPrince5)):
        def do_step_with_error(self, system, *args, **kwargs):
            seen.append(system)
            return super().do_step_with_error(system, *args, **kwargs)

    return Spying()


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
def test_a_manual_try_step_hands_a_users_pair_the_system_given(box):
    # try_step keeps no count, so it wraps nothing: the pair receives
    # the very object passed in, under a controller and dense output.
    seen = []
    dense = DenseOutputDopri5()
    dense.stepper = spying_pair(seen)
    for stepper in (ControlledStepper(spying_pair(seen)), dense):
        x = box([1.0, 0.5])
        for _ in range(2):
            stepper.try_step(HARMONIC, x, 0.0, 0.125)
    assert len(seen) == 4 and all(system is HARMONIC for system in seen)


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("drive", [integrate_adaptive, integrate_const])
def test_a_users_pair_is_counted_exactly_when_the_rhs_raises(drive, box):
    # The rhs fails on its 10th call, inside the pair's second trial:
    # the run counts the derivative refresh inline and the pair's nine
    # calls on the one counter it hands every trial.
    system, calls = failing_harmonic(10)
    seen = []
    with pytest.raises(SolverError, match="the rhs gives up") as info:
        drive(ControlledStepper(spying_pair(seen)), system, box([1.0, 0.5]), 0.0, 1.0, 0.125)
    assert info.value.partial_report.system_evaluations == len(calls) == 10
    counter = seen[0]
    assert len(seen) == 2 and isinstance(counter, EvaluationCounter) and seen[1] is counter
    assert counter.system is system and counter.count == 9
