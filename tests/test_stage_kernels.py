"""Stage kernels: lengths checked once per buffer set and per call on
caller-supplied buffers, and custom algebras kept on the general path."""

import numpy as np
import pytest

from odekit import (
    LORENZ,
    CashKarp54,
    ControlledStepper,
    ControllerParams,
    DenseOutputDopri5,
    DimensionError,
    DormandPrince5,
    EvaluationCounter,
    ExplicitEuler,
    PairState,
    RungeKutta4,
    SeparableHamiltonian,
    SymplecticEuler,
    harmonic_separable,
)
from odekit.algebra import MAX_TERMS, SequenceAlgebra
from odekit.explicit import ExplicitRungeKutta
from odekit.tableaus import ButcherTableau

X0 = [10.0, 10.0, 10.0]


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("make", [ExplicitEuler, RungeKutta4, DormandPrince5])
def test_do_step_rejects_mismatched_out_before_any_call(make, box):
    counter = EvaluationCounter(LORENZ)
    with pytest.raises(DimensionError):
        make().do_step(counter, box(X0), 0.0, 0.01, out=box([0.0, 0.0]))
    assert counter.count == 0


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("arg", ["out", "xerr", "dxdt_in"])
@pytest.mark.parametrize("make", [CashKarp54, DormandPrince5])
def test_do_step_with_error_rejects_mismatched_buffers_before_any_call(make, arg, box):
    counter = EvaluationCounter(LORENZ)
    with pytest.raises(DimensionError):
        make().do_step_with_error(counter, box(X0), 0.0, 0.01, **{arg: box([0.0, 0.0])})
    assert counter.count == 0


def counted_harmonic():
    ham = harmonic_separable()
    calls = []

    def dpdt(q, out):
        calls.append("dpdt")
        ham.dpdt(q, out)

    return SeparableHamiltonian(ham.dqdt, dpdt), calls


@pytest.mark.parametrize("which", ["out.q", "out.p", "state.p"])
def test_symplectic_rejects_mismatched_pair_before_any_call(which):
    system, calls = counted_harmonic()
    state, out = PairState([1.0], [0.0]), PairState([0.0], [0.0])
    owner, half = which.split(".")
    setattr(state if owner == "state" else out, half, [0.0, 0.0])
    with pytest.raises(DimensionError):
        SymplecticEuler().do_step(system, state, 0.0, 0.01, out=out)
    assert calls == []


def test_calc_state_rejects_mismatched_out():
    dense = DenseOutputDopri5()
    dense.initialize(list(X0), 0.0, 0.01)
    lo, hi = dense.do_step(LORENZ)
    with pytest.raises(DimensionError):
        dense.calc_state(0.5 * (lo + hi), out=[0.0, 0.0])


def test_tableau_beyond_max_terms_rejected_before_any_call():
    s = MAX_TERMS + 1  # the solution update needs s + 1 terms
    c = tuple(i / s for i in range(s))
    a = tuple((c[i] / i,) * i for i in range(1, s))
    wide = ButcherTableau(name="wide", a=a, b=(1.0 / s,) * s, c=c, order=1)
    counter = EvaluationCounter(LORENZ)
    with pytest.raises(ValueError):
        ExplicitRungeKutta(wide).do_step(counter, list(X0), 0.0, 0.01)
    assert counter.count == 0


class LoggingAlgebra(SequenceAlgebra):
    """A backend that overrides ``scale_sum`` and ``copy``."""

    def __init__(self):
        self.log = []

    def scale_sum(self, out, coeffs, terms):
        self.log.append(f"s{len(coeffs)}")
        return super().scale_sum(out, coeffs, terms)

    def copy(self, out, src):
        self.log.append("c")
        return super().copy(out, src)


def run_controlled(algebra):
    params = ControllerParams(atol=1e-8, rtol=1e-8)
    stepper = ControlledStepper(DormandPrince5(algebra), params, algebra)
    x, t, dt = list(X0), 0.0, 0.05  # the first trial is rejected
    for _ in range(3):
        result = stepper.try_step(LORENZ, x, t, dt)
        t, dt = result.t, result.dt
    return x


def run_rk4(algebra):
    x, out = list(X0), [0.0, 0.0, 0.0]
    stepper = RungeKutta4(algebra)
    stepper.do_step(LORENZ, x, 0.0, 0.01)
    stepper.do_step(LORENZ, x, 0.01, 0.01, out=out)
    return x + out


def run_symplectic(algebra):
    state = PairState([1.0, 0.5], [0.0, 0.25])
    stepper = SymplecticEuler(algebra)
    stepper.do_step(harmonic_separable(), state, 0.0, 0.1)
    out = stepper.do_step(harmonic_separable(), state, 0.1, 0.1, out=PairState([0.0] * 2, [0.0] * 2))
    return state.q + state.p + out.q + out.p


def run_dense(algebra):
    dense = DenseOutputDopri5(ControllerParams(atol=1e-8, rtol=1e-8), algebra)
    dense.initialize(list(X0), 0.0, 0.01)
    dense.do_step(LORENZ)
    dense.do_step(LORENZ)
    mid = dense.calc_state(sum(dense.interval) / 2)
    return mid + dense.current_state


# Recorded with the general path, before the stage kernels existed:
# every scale_sum and copy the steppers make, with its term count.
GENERAL_PATH = {
    run_controlled: (
        "c s1 s2 s3 s4 s5 s6 s6 s6 c s1 s2 s3 s4 s5 s6 s6 s6 "
        "c s1 s2 s3 s4 s5 s6 s6 s6 c s1 c s1",
        [10.029402025965702, 10.999487677366988, 10.464863175985172],
    ),
    run_rk4: (
        "s2 s2 s2 s5 s2 s2 s2 s5",
        [10.080835298402777, 11.657189097893054, 10.809500194615374,
         10.307788209925864, 13.235113805429283, 11.777050519618472],
    ),
    run_symplectic: (
        "s2 s2 s2 s2",
        [0.99, 0.52, -0.1, 0.2, 0.9701, 0.5348, -0.199, 0.14800000000000002],
    ),
    run_dense: (
        "c s1 c s1 c s1 s2 s3 s4 s5 s6 s6 s6 c s1 c s1 s2 s3 s4 s5 s6 s6 s6 c s1 "
        "c s1 s2 s2 s3 s6 c s1 c s1 s2 s3 s4 s5 s6 s6 s6 c s1 c s1 s2 s2 s3 s6 "
        "s5 c s1",
        [10.065174305983417, 11.488077404262361, 10.717802352991256,
         10.114160429565636, 11.969595398675146, 10.984707083930815],
    ),
}


@pytest.mark.parametrize("run", GENERAL_PATH, ids=lambda run: run.__name__)
def test_custom_algebra_keeps_the_general_path(run):
    algebra = LoggingAlgebra()
    states = run(algebra)
    log, expected_states = GENERAL_PATH[run]
    assert " ".join(algebra.log) == log
    assert states == expected_states
    # The shipped backend runs the same arithmetic through its kernels.
    assert run(None) == expected_states
