"""The generated ``do_step`` entries of the fixed-step steppers.

On a sequence state whose updates are written inline, an explicit
stepper and ``SymplecticEuler`` get a ``do_step`` of their own: one
guarded function that answers as the class method does, bit for bit
and evaluation for evaluation, and hands every other call to it.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odekit import (
    CashKarp54,
    DimensionError,
    DormandPrince5,
    EvaluationCounter,
    ExplicitEuler,
    PairState,
    RungeKutta4,
    SeparableHamiltonian,
    SymplecticEuler,
    integrate_const,
)
from odekit.algebra import UNROLL, SequenceAlgebra
from odekit.explicit import ExplicitRungeKutta


class Row(list):
    """A list subclass: a container type of its own for the scratch tag."""


def ring(x, dxdt, t):
    n = len(x)
    for i in range(n):
        dxdt[i] = x[(i + 1) % n] - x[i] * x[i] * x[i] + 0.5 * t


def _dqdt(p, out):
    for i in range(len(p)):
        out[i] = p[i] * (1.0 + p[i] * p[i])


def _dpdt(q, out):
    for i in range(len(q)):
        out[i] = -math.sin(q[i])


PENDULUM = SeparableHamiltonian(dqdt=_dqdt, dpdt=_dpdt)
BOXES = {"list": list, "row": Row, "numpy": lambda v: np.array(v, dtype=np.float64)}


def hexes(state):
    return [float(v).hex() for v in state]


def pair_hexes(pair):
    return hexes(pair.q), hexes(pair.p)


draws = st.tuples(
    st.sampled_from(sorted(BOXES)),
    st.integers(1, UNROLL + 2),
    st.sampled_from(["none", "given", "self"]),
    st.floats(-1.0, 1.0),
    st.floats(0.001, 0.2),
    st.integers(0, 2**16),
)


def _state(box, n, seed):
    rng = np.random.default_rng(seed)
    return BOXES[box](rng.uniform(-2.0, 2.0, n).tolist())


@settings(max_examples=60, deadline=None, database=None)
@given(make=st.sampled_from([ExplicitEuler, RungeKutta4, CashKarp54, DormandPrince5]),
       sequence=st.lists(draws, min_size=1, max_size=8))
def test_explicit_entry_answers_as_the_class_method(make, sequence):
    # A warm stepper, entry or not, gives the bits and the evaluation
    # count of the class method on a fresh stepper, call after call.
    warm = make()
    for box, n, out_mode, t, dt, seed in sequence:
        x, y = _state(box, n, seed), _state(box, n, seed)
        out = {"none": None, "given": _state(box, n, seed + 1), "self": x}[out_mode]
        ref_out = {"none": None, "given": _state(box, n, seed + 1), "self": y}[out_mode]
        counter, ref_counter = EvaluationCounter(ring), EvaluationCounter(ring)
        result = warm.do_step(counter, x, t, dt, out=out)
        expected = ExplicitRungeKutta.do_step(make(), ref_counter, y, t, dt, out=ref_out)
        assert hexes(result) == hexes(expected)
        assert hexes(x) == hexes(y)
        assert counter.count == ref_counter.count == warm.stage_count - warm.fsal
        # Every sequence binding installs an entry, numpy's drops it.
        assert ("do_step" in vars(warm)) == (box != "numpy")


@settings(max_examples=60, deadline=None, database=None)
@given(sequence=st.lists(draws, min_size=1, max_size=8))
def test_symplectic_entry_answers_as_the_class_method(sequence):
    warm = SymplecticEuler()
    for box, n, out_mode, t, dt, seed in sequence:
        def pair(shift=0):
            return PairState(_state(box, n, seed + shift), _state(box, n, seed + 7 + shift))

        state, ref = pair(), pair()
        out = {"none": None, "given": pair(1), "self": state}[out_mode]
        ref_out = {"none": None, "given": pair(1), "self": ref}[out_mode]
        result = warm.do_step(PENDULUM, state, t, dt, out=out)
        expected = SymplecticEuler.do_step(SymplecticEuler(), PENDULUM, ref, t, dt, out=ref_out)
        assert pair_hexes(result) == pair_hexes(expected)
        assert pair_hexes(state) == pair_hexes(ref)
        assert ("do_step" in vars(warm)) == (box != "numpy")


def test_mismatched_out_after_a_warm_call_raises_before_any_evaluation():
    stepper = RungeKutta4()
    stepper.do_step(ring, [1.0, 2.0, 3.0], 0.0, 0.1)
    assert "do_step" in vars(stepper)
    calls = []

    def system(x, dxdt, t):
        calls.append(t)
        ring(x, dxdt, t)

    x = [1.0, 2.0, 3.0]
    with pytest.raises(DimensionError):
        stepper.do_step(system, x, 0.0, 0.1, out=[0.0, 0.0])
    assert calls == [] and x == [1.0, 2.0, 3.0]


def test_swapped_longer_momenta_raise_before_dpdt():
    stepper = SymplecticEuler()
    pair = PairState([1.0, 0.5], [0.0, 0.25])
    stepper.do_step(PENDULUM, pair, 0.0, 0.1)
    calls = []
    watched = SeparableHamiltonian(dqdt=_dqdt, dpdt=lambda q, out: calls.append(1))
    pair.p = [0.0, 0.25, 0.5]
    swapped = pair_hexes(pair)
    with pytest.raises(DimensionError):
        stepper.do_step(watched, pair, 0.0, 0.1)
    with pytest.raises(DimensionError):
        stepper.do_step(watched, PairState([1.0, 0.5], [0.0, 0.25]), 0.0, 0.1, out=pair)
    with pytest.raises(DimensionError):
        stepper.do_step(watched, pair, 0.0, 0.1, out=PairState([0.0, 0.0], [0.0, 0.0]))
    # In place through out=pair, where the entry checks the state's halves alone.
    with pytest.raises(DimensionError):
        stepper.do_step(watched, pair, 0.0, 0.1, out=pair)
    assert calls == [] and pair_hexes(pair) == swapped
    # Momenta grown in place after warm in-place calls, either way of asking for one.
    grown = PairState([1.0, 0.5], [0.0, 0.25])
    for _ in range(3):
        stepper.do_step(PENDULUM, grown, 0.0, 0.1, out=grown)
    assert "do_step" in vars(stepper)
    grown.p.append(0.5)
    before = pair_hexes(grown)
    for out in (None, grown):
        with pytest.raises(DimensionError):
            stepper.do_step(watched, grown, 0.0, 0.1, out=out)
    assert calls == [] and pair_hexes(grown) == before


def test_the_guard_takes_only_the_bound_type_and_length():
    # Any other container type or length goes to the class method,
    # which binds anew, as its scratch tag shows.
    explicit, symplectic = RungeKutta4(), SymplecticEuler()
    explicit.do_step(ring, [1.0, 2.0], 0.0, 0.1)
    symplectic.do_step(PENDULUM, PairState([1.0, 2.0], [0.0, 0.0]), 0.0, 0.1)
    for x in (Row([1.0, 2.0]), np.array([1.0, 2.0]), [1.0, 2.0, 3.0], [1.0, 2.0]):
        tag = (x.shape, x.dtype) if isinstance(x, np.ndarray) else (type(x), len(x))
        explicit.do_step(ring, x, 0.0, 0.1)
        symplectic.do_step(PENDULUM, PairState(x, x * 1), 0.0, 0.1)
        assert explicit._scratch[0] == symplectic._scratch[0] == tag


def test_numpy_and_replaced_kernels_take_the_class_method():
    stepper = ExplicitEuler()
    stepper.do_step(ring, np.array([1.0, 2.0]), 0.0, 0.1)
    assert "do_step" not in vars(stepper)

    class Checked(SequenceAlgebra):
        def scale_sum(self, out, coeffs, terms):
            return super().scale_sum(out, coeffs, terms)

    for stepper in (ExplicitEuler(Checked()), SymplecticEuler(Checked())):
        x = [1.0, 2.0]
        if isinstance(stepper, SymplecticEuler):
            stepper.do_step(PENDULUM, PairState(x, [0.5, 0.5]), 0.0, 0.1)
        else:
            stepper.do_step(ring, x, 0.0, 0.1)
        assert "do_step" not in vars(stepper)


def test_an_override_keeps_its_do_step_and_its_counter():
    class Logged(ExplicitEuler):
        def do_step(self, system, x, t, dt, out=None):
            self.seen.append(system)
            return super().do_step(system, x, t, dt, out)

    stepper = Logged()
    stepper.seen = []
    report = integrate_const(stepper, ring, [1.0, 0.0], 0.0, 1.0, 0.1)
    assert "do_step" not in vars(stepper)
    assert all(isinstance(s, EvaluationCounter) for s in stepper.seen)
    assert len(stepper.seen) == report.steps_accepted == 10
    assert report.system_evaluations == 10


def test_a_do_step_set_by_the_user_survives_a_rebind():
    for stepper, call in (
        (ExplicitEuler(), lambda s, n: ExplicitRungeKutta.do_step(s, ring, [1.0] * n, 0.0, 0.1)),
        (SymplecticEuler(), lambda s, n: SymplecticEuler.do_step(s, PENDULUM, PairState([1.0] * n, [0.0] * n), 0.0, 0.1)),
    ):
        call(stepper, 2)
        mine = lambda *args, **kwargs: "mine"  # noqa: E731
        stepper.do_step = mine
        for n in (3, 1, 4):
            call(stepper, n)
            assert vars(stepper)["do_step"] is mine
        assert stepper.do_step(ring, [1.0], 0.0, 0.1) == "mine"


@pytest.mark.parametrize("duplicate", [copy.deepcopy, copy.copy, lambda s: pickle.loads(pickle.dumps(s))])
def test_a_copied_stepper_binds_its_own_entry(duplicate):
    for make in (RungeKutta4, DormandPrince5):
        original = make()
        original.do_step(ring, [0.5, -0.25, 1.0], 0.0, 0.1)
        buffers = [list(b) for b in original._scratch[1][1]]
        twin = duplicate(original)
        assert "do_step" not in vars(twin) and twin._scratch is None
        x, y = [0.3, 0.2, 0.1], [0.3, 0.2, 0.1]
        counter, ref_counter = EvaluationCounter(ring), EvaluationCounter(ring)
        for _ in range(3):
            twin.do_step(counter, x, 0.0, 0.05)
        assert vars(twin)["do_step"] is not vars(original)["do_step"]
        assert [list(b) for b in original._scratch[1][1]] == buffers
        for _ in range(3):
            original.do_step(ref_counter, y, 0.0, 0.05)
        assert hexes(x) == hexes(y)
        assert counter.count == ref_counter.count == 3 * (twin.stage_count - twin.fsal)

    original = SymplecticEuler()
    original.do_step(PENDULUM, PairState([1.0], [0.0]), 0.0, 0.1)
    (buffer,) = original._scratch[1][1]
    kept = list(buffer)
    twin = duplicate(original)
    assert "do_step" not in vars(twin)
    a, b = PairState([0.7], [0.1]), PairState([0.7], [0.1])
    for _ in range(3):
        twin.do_step(PENDULUM, a, 0.0, 0.05, out=a)
    assert buffer == kept
    for _ in range(3):
        original.do_step(PENDULUM, b, 0.0, 0.05, out=b)
    assert pair_hexes(a) == pair_hexes(b)
