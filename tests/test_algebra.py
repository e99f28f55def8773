"""Algebra layer: fused scale_sum, norms, allocation, backend parity."""

import math
from collections import UserList

import numpy as np
import pytest

from odekit import HARMONIC, DimensionError, RungeKutta4, algebra_for, integrate_const
from odekit.algebra import (
    NUMPY_ALGEBRA, SEQUENCE_ALGEBRA, Algebra, NumpyAlgebra, SequenceAlgebra, _finite, _initial_copy,
)

ALGEBRAS = [NUMPY_ALGEBRA, SEQUENCE_ALGEBRA]
# One term to thirteen, the stages of a Fehlberg 7(8) pair: no term count but zero is refused.
TERM_COUNTS = range(1, 14)


def make_state(algebra, values):
    if algebra is NUMPY_ALGEBRA:
        return np.array(values, dtype=float)
    return list(values)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_scale_sum_identity(algebra):
    out = make_state(algebra, [0.0, 0.0])
    algebra.scale_sum(out, (1.0,), (make_state(algebra, [2.0, 3.0]),))
    assert list(out) == [2.0, 3.0]


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_scale_sum_euler_update(algebra):
    # one Euler update: x + dt*dxdt with dt = 0.1
    x = make_state(algebra, [1.0, 1.0])
    dxdt = make_state(algebra, [10.0, 20.0])
    out = make_state(algebra, [0.0, 0.0])
    algebra.scale_sum(out, (1.0, 0.1), (x, dxdt))
    assert list(out) == pytest.approx([2.0, 3.0])


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_scale_sum_annihilation(algebra):
    out = make_state(algebra, [9.0, 9.0])
    algebra.scale_sum(out, (0.0, 0.0), (make_state(algebra, [1.0, 2.0]),) * 2)
    assert list(out) == [0.0, 0.0]


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_scale_sum_aliases_first_term(algebra):
    # out may alias terms[0]; steppers rely on this for in-place updates
    x = make_state(algebra, [1.0, 2.0])
    k = make_state(algebra, [10.0, 10.0])
    algebra.scale_sum(x, (1.0, 0.5), (x, k))
    assert list(x) == pytest.approx([6.0, 7.0])


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("k", TERM_COUNTS)
def test_scale_sum_term_counts(algebra, k):
    rng = np.random.default_rng(17 + k)
    coeffs = tuple(rng.normal(size=k))
    terms = [make_state(algebra, rng.normal(size=4)) for _ in range(k)]
    out = make_state(algebra, [0.0] * 4)
    algebra.scale_sum(out, coeffs, terms)
    expected = sum(c * np.asarray(t) for c, t in zip(coeffs, terms))
    assert np.asarray(out) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_scale_sum_linearity(algebra):
    # scale_sum with coeff a+b equals the sum of the two split evaluations
    rng = np.random.default_rng(5)
    x = rng.normal(size=6)
    y = rng.normal(size=6)
    a, b = 0.37, -1.21
    joint = make_state(algebra, [0.0] * 6)
    algebra.scale_sum(joint, (a + b, 1.0), (make_state(algebra, x), make_state(algebra, y)))
    pa = make_state(algebra, [0.0] * 6)
    pb = make_state(algebra, [0.0] * 6)
    algebra.scale_sum(pa, (a, 1.0), (make_state(algebra, x), make_state(algebra, y)))
    algebra.scale_sum(pb, (b, 0.0), (make_state(algebra, x), make_state(algebra, y)))
    split = np.asarray(pa) + np.asarray(pb)
    assert np.asarray(joint) == pytest.approx(split, rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_scale_sum_rejects_bad_shapes(algebra):
    out = make_state(algebra, [0.0, 0.0])
    with pytest.raises(DimensionError):
        algebra.scale_sum(out, (1.0, 2.0), (make_state(algebra, [1.0, 1.0]),))
    with pytest.raises(DimensionError):
        algebra.scale_sum(out, (1.0,), (make_state(algebra, [1.0, 1.0, 1.0]),))
    # An empty update is the one term count refused.
    with pytest.raises(ValueError, match="^scale_sum needs at least one term$"):
        algebra.scale_sum(out, (), ())


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 3])
def test_clone_shape_zero_filled(algebra, n):
    src = make_state(algebra, range(1, n + 1))
    out = algebra.clone_shape(src)
    assert len(out) == n
    assert all(v == 0.0 for v in out)


def test_clone_shape_empty():
    assert len(NUMPY_ALGEBRA.clone_shape(np.array([]))) == 0
    assert SEQUENCE_ALGEBRA.clone_shape([]) == []


def test_clone_shape_preserves_container_kind():
    assert isinstance(NUMPY_ALGEBRA.clone_shape(np.array([1.0])), np.ndarray)
    assert isinstance(SEQUENCE_ALGEBRA.clone_shape([1.0]), list)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_copy(algebra):
    src = make_state(algebra, [4.0, 5.0])
    dst = make_state(algebra, [0.0, 0.0])
    algebra.copy(dst, src)
    assert list(dst) == [4.0, 5.0]


@pytest.mark.parametrize("replaced", [None, "copy", "scale_sum"])
@pytest.mark.parametrize("values", [[1, -2, 3], [0.1, 1 / 3, -2.5e-300]])
@pytest.mark.parametrize("shipped", ALGEBRAS)
def test_a_runs_initial_copy_is_the_copy_a_stepper_binds(shipped, values, replaced):
    # The checked copy's bits, a one-term 1.0 * update (ints become
    # floats), through a replaced copy or scale_sum where one is.
    base, calls = type(shipped), []

    class Replacing(base):
        pass

    if replaced:
        setattr(Replacing, replaced, lambda self, *args: calls.append(replaced) or getattr(base, replaced)(self, *args))
    x0 = make_state(shipped, values) if shipped is SEQUENCE_ALGEBRA else np.array(values)
    expected = shipped.clone_shape(x0)
    shipped.copy(expected, x0)
    x = _initial_copy(type("Owner", (), {"_fixed_algebra": Replacing()}), x0)
    assert calls == ([replaced] if replaced else [])
    assert type(x) is type(expected) and [float(v).hex() for v in x] == [float(v).hex() for v in expected]
    assert all(type(v) is float for v in x) if base is SequenceAlgebra else x.dtype == np.float64


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("box", [list, UserList, np.array], ids=["list", "UserList", "numpy"])
def test_a_non_finite_initial_state_is_refused_by_one_rule(box, bad, monkeypatch):
    # numpy's test on an array, math.isfinite on each element of any other state: a sequence's takes no numpy call.
    if box is not np.array:
        monkeypatch.setattr(np, "isfinite", None)
    assert _finite(box([1.0, -2.0])) and not _finite(box([1.0, bad]))
    with pytest.raises(ValueError, match="^the initial state is not finite$"):
        _initial_copy(RungeKutta4(), box([1.0, bad, 2.0]))


@pytest.mark.parametrize("name", ["scale_sum", "copy"])
@pytest.mark.parametrize("base", [SequenceAlgebra, NumpyAlgebra])
def test_a_method_set_on_the_instance_after_a_run_takes_effect_at_the_next_bind(base, name):
    algebra, calls = base(), []
    x0 = [1.0, 0.5] if base is SequenceAlgebra else np.array([1.0, 0.5])
    first = integrate_const(RungeKutta4(algebra), HARMONIC, x0, 0.0, 0.3, 0.1).final_state
    assert not algebra._replaced(name)
    method = getattr(algebra, name)
    setattr(algebra, name, lambda *args: calls.append(name) or method(*args))
    assert algebra._replaced(name) and not algebra._replaced("error_ratio_max")
    again = integrate_const(RungeKutta4(algebra), HARMONIC, x0, 0.0, 0.3, 0.1).final_state
    assert calls and [v.hex() for v in again] == [v.hex() for v in first]


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_error_ratio_max_formula(algebra):
    # scale_i = atol + rtol*(|x_i| + |dt|*|dxdt_i|), result max_i |xerr_i|/scale_i
    xerr = make_state(algebra, [1e-6, 2e-7])
    x = make_state(algebra, [1.0, -2.0])
    dxdt = make_state(algebra, [3.0, 0.5])
    got = algebra.error_ratio_max(xerr, x, dxdt, 1e-6, 1e-6, 0.1)
    scale0 = 1e-6 + 1e-6 * (1.0 + 0.1 * 3.0)
    scale1 = 1e-6 + 1e-6 * (2.0 + 0.1 * 0.5)
    assert got == pytest.approx(max(1e-6 / scale0, 2e-7 / scale1), rel=1e-13)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_error_ratio_max_nan_propagates(algebra):
    xerr = make_state(algebra, [float("nan"), 0.0])
    x = make_state(algebra, [1.0, 1.0])
    dxdt = make_state(algebra, [0.0, 0.0])
    got = algebra.error_ratio_max(xerr, x, dxdt, 1e-6, 1e-6, 0.1)
    assert got != got


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x, xerr, expected", [
    ([0.0, 1.0], [0.0, 1e-7], "nan"),
    ([0.0, 1.0], [1e-7, 1e-7], "inf"),
    ([1.0, 0.0], [1e-7, 1e-7], "inf"),
    ([1.0, 0.0], [1e-7, 0.0], "nan"),
    ([0.0, 0.0], [1e-7, 0.0], "nan"),
])
def test_error_ratio_max_zero_scale_divides_as_numpy(x, xerr, expected):
    # With atol 0, an element that is 0 with a 0 derivative has scale
    # 0: its ratio is NaN for a zero error and inf for any other, and
    # NaN wins the maximum, on both backends.
    got = [algebra.error_ratio_max(make_state(algebra, xerr), make_state(algebra, x),
                                   make_state(algebra, [0.0, 0.0]), 0.0, 1e-6, 0.1)
           for algebra in ALGEBRAS]
    assert list(map(repr, got)) == [expected, expected]


def test_numpy_checked_calls_compare_shapes():
    # A (3, 1) operand used to broadcast silently into (3, 4), and a
    # (3, 5) one raised numpy's ValueError.
    wide = np.ones((3, 4))
    for bad in (np.ones((3, 1)), np.ones((3, 5))):
        for args in ((wide, bad, wide), (bad, wide, wide), (wide, wide, bad)):
            with pytest.raises(DimensionError):
                NUMPY_ALGEBRA.error_ratio_max(*args, 1e-6, 1e-6, 0.1)
        with pytest.raises(DimensionError):
            NUMPY_ALGEBRA.scale_sum(np.zeros((3, 4)), (1.0, 1.0), (wide, bad))
        with pytest.raises(DimensionError):
            NUMPY_ALGEBRA.copy(np.zeros((3, 4)), bad)


@pytest.mark.parametrize(
    "algebra, state",
    [(NUMPY_ALGEBRA, np.ones((0,))), (NUMPY_ALGEBRA, np.ones((3, 0))), (SEQUENCE_ALGEBRA, [])],
    ids=["numpy-0", "numpy-3x0", "list-0"],
)
def test_error_ratio_of_an_empty_state_rejected(algebra, state):
    with pytest.raises(DimensionError):
        algebra.error_ratio_max(state, state, state, 1e-6, 1e-6, 0.1)


def reference_scale_sum(coeffs, terms):
    # The plain loop, accumulating left to right.
    out = []
    for i in range(len(terms[0])):
        acc = coeffs[0] * terms[0][i]
        for j in range(1, len(coeffs)):
            acc += coeffs[j] * terms[j][i]
        out.append(acc)
    return out


def test_backend_parity_bitwise():
    # same coefficients, same accumulation order: results must agree to the
    # bit, checked or through the unchecked kernels the steppers bind
    rng = np.random.default_rng(99)
    for k in TERM_COUNTS:
        coeffs = tuple(float(c) for c in rng.normal(size=k))
        base = [[float(v) for v in rng.normal(size=5)] for _ in range(k)]
        expected = reference_scale_sum(coeffs, base)
        for algebra in ALGEBRAS:
            for scale_sum in (algebra.scale_sum, algebra._kernel(k)):
                out = make_state(algebra, [0.0] * 5)
                scale_sum(out, coeffs, [make_state(algebra, t) for t in base])
                assert [float(v) for v in out] == expected


def test_algebra_for_dispatch():
    assert algebra_for(np.zeros(3)) is NUMPY_ALGEBRA
    assert algebra_for([0.0, 0.0]) is SEQUENCE_ALGEBRA
    with pytest.raises(TypeError):
        algebra_for(3.5)


def test_a_backend_without_kernels_implements_no_operation():
    # A subclass that supplies no kernels and no clone_shape runs none of
    # the three operations that need them; copy reaches the missing scale_sum.
    bare, x = type("Bare", (Algebra,), {})(), [1.0, 2.0]
    with pytest.raises(NotImplementedError):
        bare.scale_sum(x, (1.0,), (x,))
    with pytest.raises(NotImplementedError):
        bare.clone_shape(x)
    with pytest.raises(NotImplementedError):
        bare.error_ratio_max(x, x, x, 1e-6, 1e-6, 0.1)
    with pytest.raises(NotImplementedError):
        bare.copy(x, x)
