"""Algebra layer: fused scale_sum, norms, allocation, backend parity."""

import numpy as np
import pytest

from odekit import DimensionError, algebra_for
from odekit.algebra import MAX_TERMS, NUMPY_ALGEBRA, SEQUENCE_ALGEBRA

ALGEBRAS = [NUMPY_ALGEBRA, SEQUENCE_ALGEBRA]


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
@pytest.mark.parametrize("k", range(1, MAX_TERMS + 1))
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
    with pytest.raises(ValueError):
        algebra.scale_sum(out, (), ())
    too_many = tuple(make_state(algebra, [1.0, 1.0]) for _ in range(MAX_TERMS + 1))
    with pytest.raises(ValueError):
        algebra.scale_sum(out, (1.0,) * (MAX_TERMS + 1), too_many)


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
    for k in range(1, MAX_TERMS + 1):
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
