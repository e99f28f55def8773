"""Stage kernels: shapes checked once per buffer set and at entry on
caller-supplied buffers, custom algebras (replaced on the class or on
the instance) receiving every update, and the controller's error
ratio computed in place on its own scratch."""

import array
import tracemalloc

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
    ImplicitEuler,
    JacobianSystem,
    PairState,
    RungeKutta4,
    SeparableHamiltonian,
    SolverError,
    SymplecticEuler,
    harmonic_separable,
    integrate_adaptive,
    integrate_const,
)
from odekit.algebra import MAX_TERMS, NUMPY_ALGEBRA, UNROLL, NumpyAlgebra, SequenceAlgebra
from odekit.controlled import _trial_code
from odekit.explicit import ExplicitRungeKutta, _step_code
from odekit.tableaus import ButcherTableau
from test_properties import delegating, hexes

X0 = [10.0, 10.0, 10.0]


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("make", [ExplicitEuler, RungeKutta4, DormandPrince5])
def test_do_step_rejects_mismatched_out_before_any_call(make, box):
    counter = EvaluationCounter(LORENZ)
    with pytest.raises(DimensionError):
        make().do_step(counter, box(X0), 0.0, 0.01, out=box([0.0, 0.0]))
    assert counter.count == 0


# A state and a buffer of another shape: a (3, 1) buffer has the
# length of a (3, 4) state, only the shape tells them apart.
MISFITS = {
    "list": lambda: (list(X0), [0.0, 0.0]),
    "numpy": lambda: (np.array(X0), np.zeros(2)),
    "numpy-3x4": lambda: (np.tile(np.array(X0)[:, None], 4), np.zeros((3, 1))),
}
# Every entry point that takes a caller's buffer, and the keyword it
# takes it as.
ENTRIES = [(make, arg) for make in (CashKarp54, DormandPrince5) for arg in ("out", "xerr", "dxdt_in")]
ENTRIES += [(RungeKutta4, "out"), (ImplicitEuler, "out"), (SymplecticEuler, "out"),
            (DenseOutputDopri5, "out")]


def entry_call(make, arg, x, buffer):
    """``make``'s entry point on ``x`` with ``buffer`` as ``arg``, and
    the counter of the system evaluations it makes."""
    counter = EvaluationCounter(LORENZ)
    if make is SymplecticEuler:
        ham = harmonic_separable()
        counter = EvaluationCounter(lambda q, out, t: ham.dpdt(q, out))
        system = SeparableHamiltonian(ham.dqdt, lambda q, out: counter(q, out, 0.0))
        pair, out = PairState(x, x.copy()), PairState(buffer, buffer.copy())
        return lambda: make().do_step(system, pair, 0.0, 0.01, out=out), counter
    if make is DenseOutputDopri5:
        dense = make()
        dense.initialize(x, 0.0, 0.01)
        lo, hi = dense.do_step(counter)
        counter.reset()
        return lambda: dense.calc_state(0.5 * (lo + hi), out=buffer), counter
    if make in (CashKarp54, DormandPrince5):
        return lambda: make().do_step_with_error(counter, x, 0.0, 0.01, **{arg: buffer}), counter
    return lambda: make().do_step(counter, x, 0.0, 0.01, out=buffer), counter


@pytest.mark.parametrize("box", MISFITS)
@pytest.mark.parametrize("make, arg", ENTRIES, ids=lambda v: getattr(v, "__name__", v))
def test_do_step_with_error_rejects_mismatched_buffers_before_any_call(make, arg, box):
    call, counter = entry_call(make, arg, *MISFITS[box]())
    with pytest.raises(DimensionError):
        call()
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


class Logging:
    """Overrides ``scale_sum`` and ``copy`` of the backend it is mixed into, logging each call."""

    def __init__(self):
        self.log = []

    def scale_sum(self, out, coeffs, terms):
        self.log.append(f"s{len(coeffs)}")
        return super().scale_sum(out, coeffs, terms)

    def copy(self, out, src):
        self.log.append("c")
        return super().copy(out, src)


class LoggingAlgebra(Logging, SequenceAlgebra):
    """A sequence backend that overrides ``scale_sum`` and ``copy``."""


class LoggingNumpy(Logging, NumpyAlgebra):
    """A numpy backend that overrides ``scale_sum`` and ``copy``."""


def logging_instance(base=SequenceAlgebra):
    """A shipped backend with ``scale_sum`` and ``copy`` replaced on
    the instance, logging as :class:`LoggingAlgebra` does."""
    algebra = base()
    algebra.log = []
    scale_sum, copy = algebra.scale_sum, algebra.copy

    def logged_scale_sum(out, coeffs, terms):
        algebra.log.append(f"s{len(coeffs)}")
        return scale_sum(out, coeffs, terms)

    def logged_copy(out, src):
        algebra.log.append("c")
        return copy(out, src)

    algebra.scale_sum, algebra.copy = logged_scale_sum, logged_copy
    return algebra


def run_controlled(algebra, pair=None):
    params = ControllerParams(atol=1e-8, rtol=1e-8)
    return walk_controlled(ControlledStepper(DormandPrince5(algebra) if pair is None else pair, params, algebra))


def walk_controlled(stepper):
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


def run_dense_grid(algebra):
    # A grid finer than the steps: up to five points inside one step.
    seen = []
    dense = DenseOutputDopri5(ControllerParams(atol=1e-8, rtol=1e-8), algebra)
    integrate_const(dense, LORENZ, list(X0), 0.0, 0.01, 0.001, lambda x, t: seen.extend(x))
    return seen


# Recorded with the general path, before the stage kernels existed
# (run_dense_grid before the generated grid sampler): every scale_sum
# and copy the steppers make, with its term count.  The controlled
# logs are the generated trial's, which copies neither the cached
# derivative into the stepper nor the last stage back, and the dense
# ones copy only on acceptance: the state into the interpolant's start
# before the fit, then the solution into the state.  The states are
# the first recording's.
GENERAL_PATH = {
    run_controlled: (
        "s2 s3 s4 s5 s6 s6 s6 s2 s3 s4 s5 s6 s6 s6 "
        "s2 s3 s4 s5 s6 s6 s6 c s1",
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
        "c s1 s2 s3 s4 s5 s6 s6 s6 s2 s3 s4 s5 s6 s6 s6 c s1 s2 s2 s3 s6 c s1 "
        "s2 s3 s4 s5 s6 s6 s6 c s1 s2 s2 s3 s6 c s1 "
        "s5 c s1",
        [10.065174305983417, 11.488077404262361, 10.717802352991256,
         10.114160429565636, 11.969595398675146, 10.984707083930815],
    ),
    run_dense_grid: (
        "c s1 s2 s3 s4 s5 s6 s6 s6 c s1 s2 s2 s3 s6 c s1 s5 "
        "s2 s3 s4 s5 s6 s6 s6 c s1 s2 s2 s3 s6 c s1 s5 s5 s5 s5 s5 "
        "s2 s3 s4 s5 s6 s6 s6 c s1 s2 s2 s3 s6 c s1 s5 s5 s5",
        [10.0, 10.0, 10.0,
         10.000845678706051, 10.16955103898345, 10.074086246107935,
         10.003365562359026, 10.338214680787644, 10.14968131953614,
         10.007534247235373, 10.506006027511932, 10.226790289557595,
         10.01332672505298, 10.672939263721576, 10.305418906903503,
         10.020718360907612, 10.839027659858164, 10.385573568181096,
         10.029684893272918, 11.00428357223964, 10.467261315873643,
         10.040202426615448, 11.168718428257352, 10.550489805542576,
         10.052247417415417, 11.33234270626768, 10.635267254650447,
         10.06579665021156, 11.495165947559633, 10.72160241605043,
         10.080827226890827, 11.657196752243935, 10.809504553410669],
    ),
}


@pytest.mark.parametrize("run, make", [
    pytest.param(run, make, id=run.__name__ + suffix)
    for make, suffix in ((LoggingAlgebra, ""), (logging_instance, "-instance"))
    for run in GENERAL_PATH
])
def test_custom_algebra_keeps_the_general_path(run, make):
    algebra = make()
    states = run(algebra)
    log, expected_states = GENERAL_PATH[run]
    assert " ".join(algebra.log) == log
    assert states == expected_states
    # The shipped backend runs the same arithmetic through its kernels.
    assert run(None) == expected_states


@pytest.mark.parametrize("make", [LoggingAlgebra, logging_instance], ids=["class", "instance"])
def test_the_controller_algebra_runs_the_whole_trial(make):
    # One backend per controller: an algebra given to the controller
    # over a pair on the default backend receives the stage updates,
    # not only the copies.
    algebra = make()
    states = run_controlled(algebra, DormandPrince5())
    log, expected_states = GENERAL_PATH[run_controlled]
    assert " ".join(algebra.log) == log
    assert states == expected_states


@pytest.mark.parametrize("make", [LoggingAlgebra, logging_instance], ids=["class", "instance"])
def test_a_pair_assigned_later_brings_its_algebra(make):
    # A controller given no algebra runs on its current pair's: a pair
    # assigned after a trial on the default backend binds anew, and
    # its algebra receives the stage updates.
    controller = ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-8, rtol=1e-8))
    assert controller.try_step(LORENZ, list(X0), 0.0, 0.001).accepted
    algebra = make()
    controller.stepper = DormandPrince5(algebra)
    states = walk_controlled(controller)
    log, expected_states = GENERAL_PATH[run_controlled]
    assert " ".join(algebra.log) == log
    assert states == expected_states


# --- generated step code and scratch rebinding -------------------------------


def test_step_code_is_generated_once_per_tableau():
    # The cache key is (tableau, generated length): None for numpy,
    # which keeps its kernel calls, and the length of a sequence state.
    # Dense output runs the controller's generated trial instead, on
    # either container, and never binds its stepper.
    _step_code.cache_clear()
    advances = []
    for box in (list, np.array):
        for _ in range(25):
            for make in (DormandPrince5, RungeKutta4):
                stepper, x = make(), box(X0)
                stepper.do_step(LORENZ, x, 0.0, 0.01)
                advances.append((make, box, stepper._record(x).step))
            dense = DenseOutputDopri5()
            dense.initialize(box(X0), 0.0, 0.01)
            dense.do_step(LORENZ)
            assert dense.stepper._scratch is None
    info = _step_code.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    # Every stepper of a tableau runs one compiled step per length.
    for make in (DormandPrince5, RungeKutta4):
        for box in (list, np.array):
            codes = {id(advance.__code__) for owner, b, advance in advances if (owner, b) == (make, box)}
            assert len(codes) == 1
    # Lengths past UNROLL share one looped step, so the cache stays
    # bounded however many lengths are stepped.
    _step_code.cache_clear()
    for n in range(1, 41):
        for make in (DormandPrince5, RungeKutta4):
            make().do_step(decay_rows, [1.0] * n, 0.0, 0.01)
    info = _step_code.cache_info()
    assert info.misses == info.currsize == 2 * (UNROLL + 1) <= info.maxsize


def test_trial_code_is_generated_once_per_tableau_and_length():
    # The controller's generated trial is keyed on (tableau, length,
    # fit): the length None for numpy, which calls its kernels, and the
    # fit a dense stepper's, so a dense stepper adds one entry per
    # length, shared by every dense stepper.  Each entry is (pieces,
    # make): try_step runs one code object per entry, which make()
    # compiles on the first try_step and a bind's entry keeps, the walk
    # the entry's pieces.
    _trial_code.cache_clear()
    trials = []
    for box in (list, np.array):
        for _ in range(25):
            for make in (DormandPrince5, CashKarp54):
                controller, x = ControlledStepper(make()), box(X0)
                controller.try_step(LORENZ, x, 0.0, 0.01)
                trials.append((make, box, controller._record(x).step()))
            dense = DenseOutputDopri5()
            dense.initialize(box(X0), 0.0, 0.01)
            dense.do_step(LORENZ)
            trials.append((DenseOutputDopri5, box, dense._record(box(X0)).step()))
    info = _trial_code.cache_info()
    assert (info.misses, info.currsize) == (6, 6)
    for make in (DormandPrince5, CashKarp54, DenseOutputDopri5):
        for box in (list, np.array):
            assert len({id(trial.__code__) for owner, b, trial in trials if (owner, b) == (make, box)}) == 1
    for make in (DormandPrince5, CashKarp54):
        for box, n in ((list, len(X0)), (np.array, None)):
            controller, x = ControlledStepper(make()), box(X0)
            pair = controller.stepper
            assert controller._record(x).pieces is \
                _trial_code(pair.fsal, pair.error_order, pair.tableau, n, ((), ()))[0]
    assert _trial_code.cache_info().misses == 6
    # Lengths past UNROLL share one looped trial.
    _trial_code.cache_clear()
    for n in range(1, 41):
        for make in (DormandPrince5, CashKarp54):
            ControlledStepper(make()).try_step(decay_rows, [1.0] * n, 0.0, 0.01)
    info = _trial_code.cache_info()
    assert info.misses == info.currsize == 2 * (UNROLL + 1) <= info.maxsize
    # Pairs whose do_step_with_error is the user's are keyed on
    # (fsal, error_order, length, fit) with no tableau: DP5, CK54 and
    # dense output around DP5 make one entry each per generated length,
    # UNROLL + 1 of them on lists and None on numpy, whatever the pair's
    # class.
    _trial_code.cache_clear()
    for n in range(1, 13):
        for box, length in ((list, min(n, UNROLL + 1)), (np.array, None)):
            for make in (DormandPrince5, CashKarp54):
                controller, x = ControlledStepper(delegating(make)()), box([1.0] * n)
                controller.try_step(decay_rows, x, 0.0, 0.01)
                pair = controller.stepper
                assert controller._record(x).pieces is \
                    _trial_code(pair.fsal, pair.error_order, None, length, ((), ()))[0]
            pieces = []
            for _ in range(2):
                dense = DenseOutputDopri5()
                dense.stepper = delegating(DormandPrince5)()
                dense.try_step(decay_rows, box([1.0] * n), 0.0, 0.01)
                pieces.append(dense._record(box([1.0] * n)).pieces)
            assert pieces[0] is pieces[1]
    info = _trial_code.cache_info()
    assert info.misses == info.currsize == 3 * (UNROLL + 2) <= info.maxsize


@pytest.mark.parametrize("make", [LoggingAlgebra, logging_instance], ids=["class", "instance"])
def test_a_rejected_dense_trial_makes_no_copy(make):
    # The state is copied on acceptance only: into the interpolant's
    # start before the fit, then from the solution.
    algebra = make()
    dense, x = DenseOutputDopri5(ControllerParams(atol=1e-8, rtol=1e-8), algebra), list(X0)
    rejected = dense.try_step(LORENZ, x, 0.0, 0.05)
    assert not rejected.accepted and x == list(X0)
    assert " ".join(algebra.log) == "s2 s3 s4 s5 s6 s6 s6"
    algebra.log.clear()
    assert dense.try_step(LORENZ, x, 0.0, 0.001).accepted
    assert " ".join(algebra.log) == "s2 s3 s4 s5 s6 s6 s6 c s1 s2 s2 s3 s6 c s1"


@pytest.mark.parametrize("make", [LoggingAlgebra, logging_instance], ids=["class", "instance"])
def test_implicit_euler_hands_a_replaced_scale_sum_every_newton_update(make):
    # A linear step: the copy in, the residual of three terms, the
    # update of two, the residual again, which stops Newton, and the
    # copy out, a replaced copy running a one-term scale_sum; with the
    # bits of the shipped kernels.
    algebra, system = make(), JacobianSystem(decay_rows, decay_rows_jacobian)
    x, plain = [1.0, -2.0, 3.0], [1.0, -2.0, 3.0]
    ImplicitEuler(algebra).do_step(system, x, 0.0, 0.1)
    assert " ".join(algebra.log) == "c s1 s3 s2 s3 c s1"
    assert x == ImplicitEuler().do_step(system, plain, 0.0, 0.1)


@pytest.mark.parametrize("make", [LoggingNumpy, lambda: logging_instance(NumpyAlgebra)], ids=["class", "instance"])
def test_implicit_euler_on_numpy_hands_a_replaced_scale_sum_every_newton_update(make):
    # The default numpy backend's step calls ufuncs, not kernels; a
    # replaced method still receives the same calls as on a sequence,
    # manual and driven, with the default backend's bits.
    algebra, system = make(), JacobianSystem(decay_rows, decay_rows_jacobian)
    x, plain = np.array([1.0, -2.0, 3.0]), np.array([1.0, -2.0, 3.0])
    ImplicitEuler(algebra).do_step(system, x, 0.0, 0.1)
    assert " ".join(algebra.log) == "c s1 s3 s2 s3 c s1"
    assert hexes(x) == hexes(ImplicitEuler().do_step(system, plain, 0.0, 0.1))
    driven = make()
    report = integrate_const(ImplicitEuler(driven), system, np.array([1.0, -2.0, 3.0]), 0.0, 0.1, 0.1)
    assert driven.log == ["c", "s1", *algebra.log]
    assert hexes(report.final_state) == hexes(x)


def decay_rows(x, dxdt, t):
    for i in range(len(x)):
        dxdt[i] = -(i + 1.0) * x[i] + 0.25 * t


def decay_rows_jacobian(x, jac, t):
    jac[...] = np.diag([-(i + 1.0) for i in range(len(x))])


def step_explicit(owner, x):
    return owner.do_step(LORENZ, x, 0.0, 0.01)


def step_controlled(owner, x):
    owner.reset()
    owner.try_step(LORENZ, x, 0.0, 0.01)
    return x


def step_dense(owner, x):
    owner.reset()
    result = owner.try_step(LORENZ, x, 0.0, 0.01)
    assert result.accepted
    return owner.calc_state(0.005)


def step_implicit(owner, x):
    return owner.do_step(JacobianSystem(decay_rows, decay_rows_jacobian), x, 0.0, 0.1)


def step_symplectic(owner, x):
    half = len(x) // 2
    state = PairState(x[:half], x[half:])
    owner.do_step(harmonic_separable(), state, 0.0, 0.1)
    return state.q, state.p


OWNERS = {
    "explicit": (DormandPrince5, step_explicit),
    "controlled": (lambda: ControlledStepper(DormandPrince5()), step_controlled),
    "dense": (DenseOutputDopri5, step_dense),
    "implicit": (ImplicitEuler, step_implicit),
    "symplectic": (SymplecticEuler, step_symplectic),
}
STATES = [
    lambda: [1.0, 2.0, 3.0, 4.0],
    lambda: np.array([1.0, 2.0, 3.0, 4.0]),
    lambda: np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32),
    lambda: np.array([[1.0, -1.0], [2.0, 0.5], [3.0, 0.0], [4.0, 2.0]]),
    lambda: [0.5, -1.5, 2.5, 4.0],
]


def parts(result):
    return result if isinstance(result, tuple) else (result,)


def outcome(step, owner, x):
    # The container, dtype, shape and bits of each result, or the error:
    # implicit Euler's Newton stop is out of float32's reach, for a
    # fresh stepper as much as for a reused one.
    try:
        return [(type(v), np.asarray(v).dtype, np.asarray(v).shape, np.asarray(v).tobytes())
                for v in parts(step(owner, x))]
    except SolverError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", OWNERS)
def test_scratch_rebinds_when_the_state_changes(kind):
    make, step = OWNERS[kind]
    rows = 3 if kind in ("explicit", "controlled", "dense") else 4  # Lorenz has 3
    owner = make()
    for make_state in STATES:
        reused = outcome(step, owner, make_state()[:rows])
        assert reused == outcome(step, make(), make_state()[:rows])


@pytest.mark.parametrize("kind", OWNERS)
def test_a_warmed_stepper_answers_an_array_as_a_fresh_one(kind):
    # The default backend cannot build an array.array('d') (its
    # constructor wants a type code).  A stepper that stepped a list of
    # the same length answers it as a fresh stepper does: one cache key.
    make, step = OWNERS[kind]
    x0 = [1.0, 2.0, 3.0, 4.0][: 3 if kind in ("explicit", "controlled", "dense") else 4]
    owner = make()
    step(owner, list(x0))
    outcomes = []
    for stepper in (owner, make()):
        try:
            outcomes.append(outcome(step, stepper, array.array("d", x0)))
        except TypeError as exc:
            outcomes.append((TypeError, str(exc)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is TypeError


class ArrayAlgebra(SequenceAlgebra):
    """The sequence arithmetic on ``array.array('d')`` states, which
    the default backend cannot build."""

    def clone_shape(self, src):
        return array.array("d", bytes(8 * len(src)))


TIGHT = ControllerParams(atol=1e-8, rtol=1e-8)
DRIVERS = {
    "const-rk4": lambda a: (integrate_const, RungeKutta4(a)),
    "const-controlled": lambda a: (integrate_const, ControlledStepper(DormandPrince5(a), TIGHT)),
    "const-dense": lambda a: (integrate_const, DenseOutputDopri5(TIGHT, a)),
    "adaptive-controlled": lambda a: (integrate_adaptive, ControlledStepper(DormandPrince5(a), TIGHT)),
    "adaptive-dense": lambda a: (integrate_adaptive, DenseOutputDopri5(TIGHT, a)),
}


def pair_scratch(stepper):
    """The scratch of the pair a controller or a dense stepper steps
    with: None while the pair's own ``do_step_with_error`` never ran."""
    return getattr(stepper, "controller", stepper).stepper._scratch


@pytest.mark.parametrize("run", DRIVERS)
def test_every_driver_runs_on_the_steppers_algebra(run):
    # The stepper's backend makes the run's working copy and every
    # buffer of the stack, the controller's included; the array run is
    # the list run, bit for bit, and a controller runs its own trial.
    runs = []
    for algebra, box in ((ArrayAlgebra(), lambda v: array.array("d", v)), (None, list)):
        drive, stepper = DRIVERS[run](algebra)
        seen = []
        report = drive(stepper, LORENZ, box(X0), 0.0, 0.5, 0.05, lambda x, t: seen.append((t, x)))
        runs.append((type(report.final_state), array.array("d", report.final_state).tobytes(),
                     seen, report.steps_accepted, report.steps_rejected, report.system_evaluations))
        assert run == "const-rk4" or pair_scratch(stepper) is None
    assert (runs[0][0], runs[1][0]) == (array.array, list)
    assert runs[0][1:] == runs[1][1:]


def test_a_tuple_is_refused_after_a_list_of_its_length():
    # A new container type is checked again, even when the buffers fit.
    stepper = RungeKutta4()
    stepper.do_step(LORENZ, list(X0), 0.0, 0.01)
    with pytest.raises(TypeError):
        stepper.do_step(LORENZ, tuple(X0), 0.0, 0.01, out=list(X0))


# --- the controller's error ratio -------------------------------------------


def counted_ratio(base, on_instance):
    """A ``base`` backend counting its ``error_ratio_max`` calls, the
    method replaced on the instance or overridden by the class."""

    class Counting(base):
        def __init__(self):
            self.calls = 0
            if on_instance:
                inner = self.error_ratio_max

                def counted(*args):
                    self.calls += 1
                    return inner(*args)

                self.error_ratio_max = counted

        if not on_instance:
            def error_ratio_max(self, *args):
                self.calls += 1
                return super().error_ratio_max(*args)

    return Counting()


@pytest.mark.parametrize("on_instance", [False, True], ids=["class", "instance"])
@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("kind", ["controlled", "stepper", "dense"])
def test_custom_error_ratio_receives_one_call_per_trial(kind, box, on_instance):
    algebra = counted_ratio(NumpyAlgebra if box is np.array else SequenceAlgebra, on_instance)
    params = ControllerParams(atol=1e-8, rtol=1e-8)
    runs = []
    for chosen in (algebra, None):
        if kind == "dense":
            stepper = DenseOutputDopri5(params, chosen)
        elif kind == "stepper":  # the controller takes its stepper's algebra
            stepper = ControlledStepper(DormandPrince5(chosen), params)
        else:
            stepper = ControlledStepper(DormandPrince5(chosen), params, chosen)
        x, t, dt, ratios = box(X0), 0.0, 0.05, []  # the first trial is rejected
        for _ in range(6):
            result = stepper.try_step(LORENZ, x, t, dt)
            t, dt = result.t, result.dt
            ratios.append(result.error_ratio)
        runs.append((list(x), ratios))
        assert pair_scratch(stepper) is None  # the controller's own trial ran
    assert algebra.calls == 6
    assert runs[0] == runs[1]  # the custom path computes the same bits


def test_the_controllers_own_algebra_wins_over_its_steppers():
    algebra = counted_ratio(SequenceAlgebra, on_instance=False)
    controller = ControlledStepper(DormandPrince5(SequenceAlgebra()), algebra=algebra)
    controller.try_step(LORENZ, list(X0), 0.0, 0.01)
    assert algebra.calls == 1


def test_controlled_trial_ratio_allocates_no_state_sized_array():
    # The (3, 10000) ensemble state: the formula's temporaries took
    # about 229 page faults per call.
    rng = np.random.default_rng(4)
    x = np.vstack([rng.uniform(-10, 10, 10_000) for _ in range(3)])
    controller = ControlledStepper(DormandPrince5())
    controller.try_step(LORENZ, x, 0.0, 1e-3)  # warm-up binds the scratch
    # The stages, the solution, the error and the two ratio states.
    _, (dxdt, *_, xerr, _, _), _, bound = controller._scratch[1]
    _, ratio, _, _ = bound.args  # the trial's make(kernel, ratio, copy, k)
    ratio(xerr, x, dxdt, 1e-6, 1e-6, 1e-3)
    peaks = []
    for call in (ratio, NUMPY_ALGEBRA.error_ratio_max):
        tracemalloc.start()
        got = call(xerr, x, dxdt, 1e-6, 1e-6, 1e-3)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert got == ratio(xerr, x, dxdt, 1e-6, 1e-6, 1e-3)
    assert peaks[0] < x.nbytes // 100
    assert peaks[1] >= 2 * x.nbytes  # the check would see an allocation
