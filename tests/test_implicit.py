"""Implicit Euler and the dense LU solver underneath it."""

import math

import numpy as np
import pytest

from odekit import (
    ConvergenceError,
    DimensionError,
    EXPDECAY,
    ImplicitEuler,
    JacobianSystem,
    NamedSystem,
    NewtonParams,
    STIFF2,
    SingularMatrixError,
    integrate_const,
    lu_solve,
)


# --- lu_solve ---------------------------------------------------------------


def test_identity_solve():
    assert list(lu_solve(np.eye(2), np.array([3.0, 4.0]))) == [3.0, 4.0]


def test_diagonal_solve():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    assert list(lu_solve(a, np.array([2.0, 8.0]))) == [1.0, 2.0]


def test_pivoting_handles_zero_leading_entry():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = lu_solve(a, np.array([5.0, 6.0]))
    assert list(x) == [6.0, 5.0]


def test_random_solves_meet_residual_bound():
    # residual oracle: |A x - b|_inf <= 1e-10 (|A|_inf |x|_inf + |b|_inf)
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n)) + n * np.eye(n)  # well-conditioned
        b = rng.normal(size=n)
        x = np.asarray(lu_solve(a, b))
        residual = np.max(np.abs(a @ x - b))
        norm_a = np.max(np.sum(np.abs(a), axis=1))
        bound = 1e-10 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
        assert residual <= bound


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.zeros((2, 2)), np.array([1.0, 1.0]))
    with pytest.raises(SingularMatrixError):
        lu_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


def test_nonsquare_rejected():
    with pytest.raises(DimensionError):
        lu_solve(np.ones((2, 3)), np.array([1.0, 1.0]))
    with pytest.raises(DimensionError):
        lu_solve(np.eye(2), np.array([1.0, 2.0, 3.0]))


def test_list_input_round_trips():
    x = lu_solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert isinstance(x, list)
    assert x == [1.0, 2.0]


# --- NewtonParams -----------------------------------------------------------


def test_newton_params_defaults():
    p = NewtonParams()
    assert p.tol == 1e-12 and p.max_iter == 50


def test_newton_params_validation():
    with pytest.raises(ValueError):
        NewtonParams(tol=0.0)
    with pytest.raises(ValueError):
        NewtonParams(max_iter=0)


def test_newton_params_reject_nan():
    with pytest.raises(ValueError):
        NewtonParams(tol=float("nan"))


# --- implicit Euler ---------------------------------------------------------


def decay_system(lam):
    def rhs(x, dxdt, t):
        dxdt[0] = -lam * x[0]

    def jac(x, out, t):
        out[0, 0] = -lam

    return JacobianSystem(rhs, jac)


def test_zero_rhs_one_iteration():
    def rhs(x, dxdt, t):
        dxdt[0] = 0.0

    def jac(x, out, t):
        out[0, 0] = 0.0

    stepper = ImplicitEuler()
    out = stepper.do_step(JacobianSystem(rhs, jac), np.array([2.5]), 0.0, 0.1)
    assert out[0] == 2.5
    assert stepper.last_iteration_count == 1


def test_linear_decay_closed_form():
    # backward Euler on x' = -x: x_new = x / (1 + dt)
    stepper = ImplicitEuler()
    out = stepper.do_step(EXPDECAY, np.array([1.0]), 0.0, 0.1)
    assert out[0] == pytest.approx(1.0 / 1.1, rel=1e-12)


def test_stiff_decay_closed_form():
    stepper = ImplicitEuler()
    out = stepper.do_step(decay_system(1e6), np.array([1.0]), 0.0, 1.0)
    assert out[0] == pytest.approx(1.0 / (1.0 + 1e6), rel=1e-9)


@pytest.mark.parametrize("lamdt", [0.1, 1.0, 10.0, 100.0])
def test_linear_problems_converge_in_one_iteration(lamdt):
    # Newton lands exactly for linear f; the residual check sees it on
    # the next pass.  Extreme lambda*dt can add one cleanup iteration
    # because the absolute residual floor scales with lambda*dt.
    stepper = ImplicitEuler()
    stepper.do_step(decay_system(lamdt), np.array([1.0]), 0.0, 1.0)
    assert stepper.last_iteration_count == 1


@pytest.mark.parametrize("lamdt", [1.0, 1e3, 1e6, 1e12])
def test_a_stability_contracts(lamdt):
    stepper = ImplicitEuler()
    out = stepper.do_step(decay_system(lamdt), np.array([1.0]), 0.0, 1.0)
    assert abs(out[0]) <= 1.0
    assert out[0] == pytest.approx(1.0 / (1.0 + lamdt), rel=1e-6)


def test_nonlinear_system():
    # x' = -x^3 from x=1, one backward Euler step: u = 1 - dt u^3
    def rhs(x, dxdt, t):
        dxdt[0] = -x[0] ** 3

    def jac(x, out, t):
        out[0, 0] = -3.0 * x[0] ** 2

    stepper = ImplicitEuler()
    out = stepper.do_step(JacobianSystem(rhs, jac), np.array([1.0]), 0.0, 0.5)
    u = out[0]
    assert u + 0.5 * u**3 == pytest.approx(1.0, abs=1e-12)
    assert stepper.last_iteration_count >= 2


def test_dt_must_be_positive():
    stepper = ImplicitEuler()
    with pytest.raises(ValueError):
        stepper.do_step(EXPDECAY, np.array([1.0]), 0.0, 0.0)


def test_out_of_place_leaves_input():
    stepper = ImplicitEuler()
    x = np.array([1.0])
    buf = np.zeros(1)
    got = stepper.do_step(EXPDECAY, x, 0.0, 0.1, out=buf)
    assert got is buf
    assert x[0] == 1.0


def test_inplace_matches_out_of_place():
    stepper = ImplicitEuler()
    a = np.array([1.0])
    stepper.do_step(EXPDECAY, a, 0.0, 0.1, out=a)
    b = stepper.do_step(EXPDECAY, np.array([1.0]), 0.0, 0.1)
    assert a.tobytes() == b.tobytes()


def test_nonconvergence_carries_iteration_count():
    # lying Jacobian turns Newton into a fixed-size march: with f=u+1
    # and claimed J=0, the residual G = -(x+1) never moves
    def rhs(x, dxdt, t):
        dxdt[0] = x[0] + 1.0

    def jac(x, out, t):
        out[0, 0] = 0.0

    stepper = ImplicitEuler(NewtonParams(tol=1e-12, max_iter=7))
    with pytest.raises(ConvergenceError) as info:
        stepper.do_step(JacobianSystem(rhs, jac), np.array([1.0]), 0.0, 1.0)
    assert info.value.iterations == 7


def test_observed_first_order_convergence():
    errs, dts = [], []
    stepper = ImplicitEuler()
    system = EXPDECAY
    for dt in (0.1, 0.05, 0.025, 0.0125):
        n = round(1.0 / dt)
        x = np.array([1.0])
        t = 0.0
        for _ in range(n):
            x = stepper.do_step(system, x, t, dt, out=x)
            t += dt
        errs.append(abs(x[0] - math.exp(-1.0)))
        dts.append(dt)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def test_two_dimensional_stiff_system():
    from odekit import STIFF2

    stepper = ImplicitEuler()
    x = np.array(STIFF2.default_state, dtype=float)
    t = 0.0
    dt = 0.1  # huge against the 1e6 fast rate; explicit methods blow up here
    for _ in range(10):
        x = stepper.do_step(STIFF2, x, t, dt, out=x)
        t += dt
    exact = STIFF2.exact(STIFF2.default_state, 0.0, t)
    assert np.all(np.isfinite(x))
    assert x[0] == pytest.approx(exact[0], abs=0.05)
    assert x[1] == pytest.approx(exact[1], abs=1e-8)


# --- systems that carry their own Jacobian ----------------------------------


@pytest.mark.parametrize("system", [STIFF2, EXPDECAY], ids=lambda s: s.name)
def test_named_system_steps_like_its_jacobian_pairing(system):
    # A named system passed as it is steps exactly like the hand-built
    # JacobianSystem pairing of its rhs and jacobian.
    pairing = JacobianSystem(system.rhs, system.jacobian)
    x0 = list(system.default_state)
    direct = ImplicitEuler().do_step(system, np.array(x0), 0.0, 0.1)
    paired = ImplicitEuler().do_step(pairing, np.array(x0), 0.0, 0.1)
    assert direct.tolist() == paired.tolist()

    a = integrate_const(ImplicitEuler(), system, x0, 0.0, 1.0, 0.1)
    b = integrate_const(ImplicitEuler(), pairing, x0, 0.0, 1.0, 0.1)
    assert list(a.final_state) == list(b.final_state)
    assert a.system_evaluations == b.system_evaluations


def test_stiff2_runs_as_it_is():
    report = integrate_const(ImplicitEuler(), STIFF2, [1.0, 1.0], 0.0, 1.0, 0.1)
    assert report.system_evaluations == 14
    # (1, 1) is the fast eigenvector, contracted by 1 + 1e6*dt per step.
    assert report.final_state[1] == pytest.approx((1.0 + 1e5) ** -10, rel=1e-12)


def test_system_without_jacobian_is_rejected_before_evaluation():
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t)
        dxdt[0] = -x[0]

    bare = NamedSystem(name="bare", dimension=1, rhs=rhs)
    for system in (bare, rhs):
        with pytest.raises(ValueError, match="jacobian"):
            ImplicitEuler().do_step(system, np.array([1.0]), 0.0, 0.1)
        with pytest.raises(ValueError, match="jacobian"):
            integrate_const(ImplicitEuler(), system, [1.0], 0.0, 1.0, 0.1)
    assert calls == []


def test_lu_solve_returns_python_floats_for_a_list():
    # np.float64 subclasses float, so check the exact type.
    x = lu_solve(np.array([[2.0, 1.0], [1.0, 3.0]]), [3.0, 5.0])
    assert type(x) is list
    assert all(type(v) is float for v in x)


def _cubic(x, dxdt, t):
    dxdt[0] = -x[0] ** 3


def _cubic_jac(x, out, t):
    out[0, 0] = -3.0 * x[0] ** 2


@pytest.mark.parametrize(
    "system, x0",
    [(EXPDECAY, [1.0]), (STIFF2, [1.0, 1.0]), (JacobianSystem(_cubic, _cubic_jac), [1.0])],
    ids=["expdecay", "stiff2", "cubic"],
)
def test_list_state_stays_python_floats(system, x0):
    # Python floats, and still bit for bit the numpy run.
    listed = integrate_const(ImplicitEuler(), system, x0, 0.0, 0.2, 0.1).final_state
    array = integrate_const(ImplicitEuler(), system, np.array(x0), 0.0, 0.2, 0.1).final_state
    assert all(type(v) is float for v in listed)
    assert np.array(listed).tobytes() == array.tobytes()
