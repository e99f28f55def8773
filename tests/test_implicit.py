"""Implicit Euler: Newton on the scaled stop, the held Newton inverse, list states, and its
generated step run inline in the fixed-step loop as the class ``do_step`` runs it."""

import copy
import functools
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from odekit import (
    ConvergenceError,
    EXPDECAY,
    LORENZ,
    EvaluationCounter,
    ImplicitEuler,
    JacobianSystem,
    NamedSystem,
    STIFF2,
    SingularMatrixError,
    SolverError,
    integrate_const,
)
from odekit.implicit import NEWTON_MAX_ITER
from reference import hexes, reference_run
from test_properties import DelegatingNumpy
from test_stage_kernels import LoggingAlgebra, decay_rows, decay_rows_jacobian, logging_instance


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


@pytest.mark.parametrize("algebra", [None, DelegatingNumpy()], ids=["ufuncs", "kernels"])
def test_a_manual_step_casts_into_its_target_as_numpy_same_kind_does(algebra):
    # The step computes in floats; an integer target is refused and
    # left as it was, a float target of another width gets the float64
    # step's bits, rounded once.
    system = JacobianSystem(decay_rows, decay_rows_jacobian)
    for x, out in ((np.array([1, -2, 3]), None), (np.array([1, -2, 3]), np.array([7, 7, 7])),
                   (np.array([1.0, -2.0, 3.0]), np.array([7, 7, 7]))):
        target = x if out is None else out
        before = target.copy()
        with pytest.raises(TypeError):
            ImplicitEuler(algebra).do_step(system, x, 0.0, 0.1, out)
        assert target.dtype == before.dtype and target.tolist() == before.tolist()
    reference = ImplicitEuler().do_step(system, np.array([1.0, -2.0, 3.0]), 0.0, 0.1)
    for x, out in ((np.array([1, -2, 3]), np.zeros(3)), (np.array([1.0, -2.0, 3.0]), np.zeros(3, np.float32))):
        assert ImplicitEuler(algebra).do_step(system, x, 0.0, 0.1, out) is out
        assert hexes(out) == hexes(reference.astype(out.dtype)) and x.tolist() == [1, -2, 3]


def test_nonconvergence_carries_iteration_count():
    # lying Jacobian turns Newton into a fixed-size march: with f=u+1
    # and claimed J=0, the residual G = -(x+1) never moves
    def rhs(x, dxdt, t):
        dxdt[0] = x[0] + 1.0

    def jac(x, out, t):
        out[0, 0] = 0.0

    stepper = ImplicitEuler()
    with pytest.raises(ConvergenceError) as info:
        stepper.do_step(JacobianSystem(rhs, jac), np.array([1.0]), 0.0, 1.0)
    assert info.value.iterations == NEWTON_MAX_ITER == 50


@pytest.mark.parametrize("system, x0", [(EXPDECAY, [1.0]), (STIFF2, [1.0, 0.5])],
                         ids=["expdecay", "stiff2"])
def test_float32_state_converges(system, x0):
    # The stop is floored at a few float32 roundoffs; 1e-12 alone lies
    # below float32 resolution and no step converged.
    x32, x64 = np.array(x0, dtype=np.float32), np.array(x0)
    stepper = ImplicitEuler()
    for x in (x64, x32):
        for i in range(10):
            stepper.do_step(system, x, 0.1 * i, 0.1)
        assert stepper.last_iteration_count == 1
    assert x32.dtype == np.float32
    np.testing.assert_allclose(x32, x64, rtol=1e-5, atol=1e-6)


def test_a_warm_stepper_floors_newton_by_each_states_dtype():
    # The stop's floor is bound with the scratch, which a new dtype
    # binds again: a warm stepper moving from float64 to float32 and
    # back answers each step as a fresh one, and float32, whose floor
    # is 8 of its roundoffs, stops an update sooner.
    system, warm, counts = JacobianSystem(_cubic, _cubic_jac), ImplicitEuler(), []
    for dtype in (np.float64, np.float32, np.float64):
        answers = []
        for stepper in (warm, ImplicitEuler()):
            x = np.array([1.0], dtype=dtype)
            stepper.do_step(system, x, 0.0, 0.1)
            answers.append((x.dtype, x.tobytes(), stepper.last_iteration_count))
        assert answers[0] == answers[1]
        counts.append(answers[0][2])
    assert counts == [3, 2, 3]


def test_singular_newton_matrix_raises():
    # f = x + 1 with its true J = 1 and dt = 1: I - dt*J is exactly zero.
    def rhs(x, dxdt, t):
        dxdt[0] = x[0] + 1.0

    def jac(x, out, t):
        out[0, 0] = 1.0

    for x0 in ([1.0], np.array([1.0])):
        with pytest.raises(SingularMatrixError, match="Newton matrix"):
            ImplicitEuler().do_step(JacobianSystem(rhs, jac), x0, 0.0, 1.0)


def failing_at_the_third_step(kind):
    """Decay, x' = -x, whose Newton fails at t = 0.75, the end of the
    third step of width 0.25: ``singular`` makes I - dt*J zero, and
    ``stalled`` claims J = 0 for x' = 4x + 1, whose residual never
    moves; and the times of its calls."""
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t)
        for i in range(len(x)):
            dxdt[i] = 4.0 * x[i] + 1.0 if kind == "stalled" and t == 0.75 else -x[i]

    def jac(x, out, t):
        if t != 0.75:
            np.fill_diagonal(out, -1.0)
        elif kind == "singular":
            np.fill_diagonal(out, 4.0)

    return JacobianSystem(rhs, jac), calls


@pytest.mark.parametrize("box", [list, np.array], ids=["list", "numpy"])
@pytest.mark.parametrize("kind, error, made", [("singular", SingularMatrixError, 5),
                                               ("stalled", ConvergenceError, 4 + NEWTON_MAX_ITER + 1)])
def test_a_newton_failure_mid_run_carries_an_exact_partial_report(kind, error, made, box):
    # Two steps of one update and one residual pass each, then the
    # failing step's passes: the report counts every call made and
    # holds the bits and the time of the last grid point reached.
    system, calls = failing_at_the_third_step(kind)
    clean = integrate_const(ImplicitEuler(), system, box([1.0, 0.5]), 0.0, 0.5, 0.25)
    calls.clear()
    with pytest.raises(error) as info:
        integrate_const(ImplicitEuler(), system, box([1.0, 0.5]), 0.0, 1.0, 0.25)
    report = info.value.partial_report
    assert report.system_evaluations == len(calls) == made
    assert (report.final_time, report.steps_accepted, report.steps_rejected) == (0.5, 2, 0)
    assert [v.hex() for v in report.final_state] == [v.hex() for v in clean.final_state]


NON_FINITE_BOXES = {
    "list": list,
    "float64": lambda v: np.array(v, dtype=np.float64),
    "float32": lambda v: np.array(v, dtype=np.float32),
}


@pytest.mark.parametrize("box", sorted(NON_FINITE_BOXES))
@pytest.mark.parametrize("where", [None, 0, 3, 7], ids=["all", "first", "middle", "last"])
@pytest.mark.parametrize("value, when", [(math.nan, "from"), (math.inf, "from"), (math.nan, "check")],
                         ids=["nan-from", "inf-from", "nan-on-check"])
def test_a_non_finite_newton_update_raises_at_once(box, where, value, when):
    # x' = -x on 8 elements, whose derivative is ``value`` in element
    # ``where`` (None: in every element).  "from": from t = 0.25 on, so
    # the third step's first update is not finite either, and Newton
    # stops there, after one update and its one held inverse, not after
    # NEWTON_MAX_ITER updates and as many factorizations.  Two steps of
    # two passes each, then one.  "check": only on the third step's
    # checking pass; a residual with a NaN anywhere must not stop Newton
    # (a max-norm that drops NaN would), and the solved update 2 is not
    # finite.
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t)
        bad = t >= 0.25 if when == "from" else t > 0.25 and calls.count(t) == 2
        for i in range(len(x)):
            dxdt[i] = value if bad and where in (None, i) else -x[i]

    def jac(x, out, t):
        np.fill_diagonal(out, -1.0)

    system, x0 = JacobianSystem(rhs, jac), [1.0, -0.5, 0.25, 2.0, -3.0, 0.125, 1.5, -1.0]
    clean = integrate_const(ImplicitEuler(), system, NON_FINITE_BOXES[box](x0), 0.0, 0.2, 0.1)
    calls.clear()
    stepper = ImplicitEuler()
    with pytest.raises(ConvergenceError) as info, np.errstate(invalid="ignore"):  # inf * 0 in the inverse's dot
        integrate_const(stepper, system, NON_FINITE_BOXES[box](x0), 0.0, 1.0, 0.1)
    updates = 1 if when == "from" else 2
    assert str(info.value) == f"Newton update {updates} is not finite at t=0.30000000000000004"
    assert info.value.iterations == stepper._factorizations == updates
    report = info.value.partial_report
    assert report.system_evaluations == len(calls) == 4 + updates
    assert (report.final_time, report.steps_accepted, report.steps_rejected) == (0.2, 2, 0)
    assert [v.hex() for v in map(float, report.final_state)] == [v.hex() for v in map(float, clean.final_state)]


@pytest.mark.parametrize(
    "t, dt", [(0.0, math.inf), (0.0, math.nan), (math.nan, 0.1), (math.inf, 0.1)]
)
def test_non_finite_time_or_width_rejected_before_evaluation(t, dt):
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t)
        dxdt[0] = -x[0]

    with pytest.raises(ValueError):
        ImplicitEuler().do_step(JacobianSystem(rhs, EXPDECAY.jacobian), [1.0], t, dt)
    assert calls == []


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


def _forced(x, dxdt, t):
    dxdt[0] = -x[0] + 1e5 * math.sin(t)


def _forced_jac(x, out, t):
    out[0, 0] = -1.0


@pytest.mark.parametrize(
    "system, x0",
    [
        (STIFF2, [1e4, 1e4]),
        (LORENZ, [1e5, 1.0, 20.0]),
        (LORENZ, [1e8, 1.0, 20.0]),
        (JacobianSystem(_forced, _forced_jac), [1e5]),
    ],
    ids=["stiff2-1e4", "lorenz-1e5", "lorenz-1e8", "forced-1e5"],
)
def test_large_states_converge(system, x0):
    # An absolute 1e-12 stop lies below the rounding floor of these
    # states; the stop scaled to |x|_inf converges, on both containers.
    listed = integrate_const(ImplicitEuler(), system, x0, 0.0, 0.1, 0.01)
    array = integrate_const(ImplicitEuler(), system, np.array(x0), 0.0, 0.1, 0.01)
    assert listed.steps_accepted == 10
    assert np.all(np.isfinite(array.final_state))
    assert np.array(listed.final_state).tobytes() == array.final_state.tobytes()
    assert listed.system_evaluations == array.system_evaluations


# --- the held Newton matrix --------------------------------------------------


def linear_system(a):
    def rhs(x, dxdt, t):
        np.matmul(a, x, out=dxdt)

    def jac(x, out, t):
        np.copyto(out, a)

    return JacobianSystem(rhs, jac)


def _scaled_decay(x, dxdt, t):
    for i in range(len(x)):
        dxdt[i] = -(i + 1.0) * x[i]


def _scaled_decay_jac(x, out, t):
    for i in range(len(x)):
        out[i, i] = -(i + 1.0)


def test_jacobian_buffer_is_zeroed_on_every_evaluation():
    # A Jacobian that writes only its nonzero entries must not read the
    # memory of a freed array in the others.
    def rhs(x, dxdt, t):
        dxdt[0] = -1e3 * x[0]
        dxdt[1] = -x[1]

    def jac(x, j, t):
        assert not j.any()
        j[0, 0] = -1e3
        j[1, 1] = -1.0

    np.full((2, 2), 7.0)  # freed at once
    report = integrate_const(ImplicitEuler(), JacobianSystem(rhs, jac), [1.0, 1.0], 0.0, 1.0, 0.1)
    assert report.steps_accepted == 10
    assert report.system_evaluations == 20


def test_a_linear_run_inverts_its_newton_matrix_once():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
    system = linear_system((q * -np.logspace(0.0, 6.0, 32)) @ q.T)
    calls = []
    counted = JacobianSystem(system, lambda x, j, t: calls.append(system.jacobian(x, j, t)))
    stepper = ImplicitEuler()
    x = q.sum(axis=1)
    for i in range(100):
        stepper.do_step(counted, x, 0.01 * i, 0.01)
        assert stepper.last_iteration_count == 1
    assert (len(calls), stepper._factorizations) == (100, 1)


def test_a_new_width_or_dt_inverts_again():
    system = JacobianSystem(_scaled_decay, _scaled_decay_jac)
    stepper = ImplicitEuler()
    counts = []
    for x0, dt in (([1.0, 1.0], 0.1), ([1.0, 1.0], 0.1), ([1.0, 1.0, 1.0], 0.1),
                   ([1.0, 1.0, 1.0], 0.2), ([1.0, 1.0], 0.1)):
        stepper.do_step(system, np.array(x0), 0.0, dt)
        counts.append(stepper._factorizations)
    assert counts == [1, 1, 2, 3, 4]


def test_a_jacobian_mutated_in_place_inverts_again():
    a = np.array([[-2.0, 1.0], [0.0, -3.0]])
    system = linear_system(a)
    stepper = ImplicitEuler()
    stepper.do_step(system, np.array([1.0, 1.0]), 0.0, 0.1)
    a[0, 1] = 50.0
    got = stepper.do_step(system, np.array([1.0, 1.0]), 0.1, 0.1)
    assert stepper._factorizations == 2
    fresh = ImplicitEuler().do_step(system, np.array([1.0, 1.0]), 0.1, 0.1)
    assert got.tobytes() == fresh.tobytes()
    np.testing.assert_allclose(got, np.linalg.solve(np.eye(2) - 0.1 * a, [1.0, 1.0]), rtol=1e-14)


def test_a_nonlinear_step_inverts_once_and_solves_its_later_updates(monkeypatch):
    # Only a step's first update reads the held inverse; a later one
    # has a moved Jacobian, which no earlier step's inverse would fit.
    calls = {"inv": 0, "solve": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(np.linalg, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    system = JacobianSystem(_cubic, _cubic_jac)
    stepper = ImplicitEuler()
    x, updates = np.array([1.0]), 0
    for i in range(5):
        stepper.do_step(system, x, 0.5 * i, 0.5)
        updates += stepper.last_iteration_count
    assert updates > 5
    assert calls == {"inv": 5, "solve": updates - 5}
    assert stepper._factorizations == updates


# --- the generated Newton step in the fixed-step loop ------------------------


def _cubic_ring(x, dxdt, t):
    for i in range(len(x)):
        dxdt[i] = -x[i] ** 3 - 0.5 * x[i - 1]


def _cubic_ring_jac(x, out, t):
    for i in range(len(x)):
        out[i, i] = -3.0 * x[i] ** 2
        out[i, i - 1] = -0.5


CUBIC32 = JacobianSystem(_cubic_ring, _cubic_ring_jac)
INLINE_SYSTEMS = {
    "expdecay": (EXPDECAY, [1.0]),
    "stiff2": (STIFF2, [1.0, 0.5]),
    "cubic32": (CUBIC32, [math.cos(i) for i in range(32)]),
    "lorenz": (LORENZ, [1.0, -0.5, 20.0]),
}
INLINE_BOXES = {
    "list": list,
    "float64": np.array,
    "float32": lambda x0: np.array(x0, dtype=np.float32),
}


@pytest.mark.parametrize("observed", [True, False], ids=["observed", "unobserved"])
@pytest.mark.parametrize("box", sorted(INLINE_BOXES))
@pytest.mark.parametrize("name", sorted(INLINE_SYSTEMS))
def test_the_inline_newton_step_is_the_class_do_step(name, box, observed):
    # The same bits, observations, updates, factorizations and
    # evaluations as a loop over the class do_step; on a grid whose
    # last point is snapped onto t1, so the last step is narrower.
    system, x0 = INLINE_SYSTEMS[name]
    make = INLINE_BOXES[box]
    driven, looped = [], []
    stepper = ImplicitEuler()
    report = integrate_const(stepper, system, make(x0), 0.0, 0.3, 0.1,
                             (lambda x, t: driven.append((t.hex(), hexes(x)))) if observed else None)
    reference = ImplicitEuler()
    _, (x, _, _, _, evaluations), _ = reference_run(reference, system, make(x0), 0.0, 0.3, 0.1,
                                                     lambda x, t: looped.append((t.hex(), hexes(x))))
    assert hexes(report.final_state) == hexes(x) and type(report.final_state) is type(x)
    assert getattr(report.final_state, "dtype", None) == getattr(x, "dtype", None)
    assert driven == (looped if observed else [])
    assert (report.final_time, report.steps_accepted, report.system_evaluations) == (0.3, 3, evaluations)
    assert (stepper._factorizations, stepper.last_iteration_count) == \
        (reference._factorizations, reference.last_iteration_count)
    if name in ("cubic32", "lorenz"):
        assert stepper._factorizations > 3  # later updates solve


@pytest.mark.parametrize("call", range(1, 8))
@pytest.mark.parametrize("box", ["list", "float64"])
def test_an_rhs_raising_in_the_inline_newton_step_is_counted(call, box):
    # The call that raises is counted, and the report holds the last
    # grid point reached: the start until the first step's passes end.
    first = EvaluationCounter(JacobianSystem(_cubic_ring, _cubic_ring_jac))
    ImplicitEuler().do_step(first, [1.0, -0.5], 0.0, 0.1)
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t)
        if len(calls) == call:
            raise SolverError("the rhs gives up")
        _cubic_ring(x, dxdt, t)

    x0 = INLINE_BOXES[box]([1.0, -0.5])
    with pytest.raises(SolverError, match="gives up") as info:
        integrate_const(ImplicitEuler(), JacobianSystem(rhs, _cubic_ring_jac), x0, 0.0, 0.3, 0.1)
    report = info.value.partial_report
    assert report.system_evaluations == len(calls) == call
    assert first.count == 4 and report.steps_accepted == (0 if call <= first.count else 1)


@pytest.mark.parametrize("observed", [True, False], ids=["observed", "unobserved"])
@pytest.mark.parametrize("box", sorted(INLINE_BOXES))
def test_the_inline_newton_step_refuses_a_system_without_jacobian(box, observed):
    calls, seen = [], []

    def rhs(x, dxdt, t):
        calls.append(t)
        dxdt[0] = -x[0]

    for system in (NamedSystem(name="bare", dimension=1, rhs=rhs), rhs, JacobianSystem(rhs, None)):
        with pytest.raises(ValueError, match="jacobian"):
            integrate_const(ImplicitEuler(), system, INLINE_BOXES[box]([1.0]), 0.0, 1.0, 0.1,
                            (lambda x, t: seen.append(t)) if observed else None)
    assert calls == [] and seen == ([0.0] * 3 if observed else [])


@pytest.mark.parametrize("make", [LoggingAlgebra, logging_instance], ids=["class", "instance"])
def test_a_replaced_scale_sum_sees_the_inline_newton_step_as_do_step(make):
    # The driver's own copy of the initial state, then per linear step
    # the copy in, the residual, the update, the residual that stops
    # Newton and the copy out: as the class do_step hands them over.
    system = JacobianSystem(decay_rows, decay_rows_jacobian)
    driven, looped = make(), make()
    report = integrate_const(ImplicitEuler(driven), system, [1.0, -2.0, 3.0], 0.0, 0.375, 0.125)
    loop = ImplicitEuler(looped)
    x = [1.0, -2.0, 3.0]
    for j in range(3):
        loop.do_step(system, x, 0.125 * j, 0.125)
    assert " ".join(looped.log) == " ".join(["c s1 s3 s2 s3 c s1"] * 3)
    assert driven.log == ["c", "s1", *looped.log]
    assert hexes(report.final_state) == hexes(x)


# --- JacobianSystem, a frameless partial of its rhs ---------------------------


@dataclass(frozen=True)
class FramedPairing:
    """``JacobianSystem`` as a frozen dataclass whose ``__call__`` forwards."""

    system: object
    jacobian: object

    def __call__(self, x, dxdt, t):
        return self.system(x, dxdt, t)


def test_jacobian_system_keeps_its_attributes_repr_and_pickle():
    system = JacobianSystem(_cubic_ring, jacobian=_cubic_ring_jac)
    assert isinstance(system, functools.partial) and system.func is _cubic_ring
    assert (system.system, system.jacobian) == (_cubic_ring, _cubic_ring_jac)
    assert repr(system) == f"JacobianSystem(system={_cubic_ring!r}, jacobian={_cubic_ring_jac!r})"
    dxdt = [0.0, 0.0]
    assert system(x=[1.0, 2.0], dxdt=dxdt, t=0.0) is None and dxdt == [-2.0, -8.5]
    for twin in (pickle.loads(pickle.dumps(system)), copy.deepcopy(system)):
        assert type(twin) is JacobianSystem and twin is not system
        assert (twin.system, twin.jacobian) == (_cubic_ring, _cubic_ring_jac)
    # Compared by identity and not frozen, as a named system is.
    assert system != JacobianSystem(_cubic_ring, _cubic_ring_jac)


@pytest.mark.parametrize("box", [list, np.array])
@pytest.mark.parametrize("name", ["stiff2", "cubic32"])
def test_jacobian_system_runs_as_the_framed_pairing_did(name, box):
    rhs, jac, x0 = {"stiff2": (STIFF2.rhs, STIFF2.jacobian, [1.0, 0.5]),
                    "cubic32": (_cubic_ring, _cubic_ring_jac, [math.cos(i) for i in range(32)])}[name]
    new, old = (integrate_const(ImplicitEuler(), pairing(rhs, jac), box(x0), 0.0, 1.0, 0.01)
                for pairing in (JacobianSystem, FramedPairing))
    assert hexes(new.final_state) == hexes(old.final_state)
    assert (new.system_evaluations, new.steps_accepted) == (old.system_evaluations, old.steps_accepted)
    if name == "stiff2":
        assert hexes(new.final_state) == ["0x1.7a959377ab542p-3", "0x0.0p+0"]
