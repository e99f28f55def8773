"""Acceptance suite: the nine gate criteria, one test and one verdict
line apiece.  Run with -s to see the verdict lines; each test fails
loudly if its criterion is not met at the stated tolerance."""

import math
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from odekit import (
    CashKarp54,
    ControlledStepper,
    ControllerParams,
    DenseOutputDopri5,
    DormandPrince5,
    EvaluationCounter,
    ExplicitEuler,
    HARMONIC,
    ImplicitEuler,
    JacobianSystem,
    LORENZ,
    PairState,
    RungeKutta4,
    SymplecticEuler,
    harmonic_energy,
    harmonic_separable,
    integrate_adaptive,
    integrate_const,
)
from reference import e_series, expgrow


def fixed_run(stepper, system, x0, dt, n):
    x = list(x0)
    t = 0.0
    for _ in range(n):
        x = stepper.do_step(system, x, t, dt, out=x)
        t += dt
    return x


def slope_of(dts, errs):
    return float(np.polyfit(np.log(dts), np.log(errs), 1)[0])


def test_criterion_1_convergence_orders():
    start = time.perf_counter()
    dts = [0.1 / 2**k for k in range(4)]
    checks = []

    for stepper, target, band in [
        (ExplicitEuler(), 1.0, 0.1),
        (RungeKutta4(), 4.0, 0.2),
        (CashKarp54(), 5.0, 0.3),
        (DormandPrince5(), 5.0, 0.3),
    ]:
        errs = [abs(fixed_run(stepper, expgrow, [1.0], dt, round(1.0 / dt))[0]
                    - e_series(1.0)) for dt in dts]
        checks.append((type(stepper).__name__, slope_of(dts, errs), target, band))

    def decay_rhs(x, dxdt, t):
        dxdt[0] = -x[0]

    def decay_jac(x, out, t):
        out[0, 0] = -1.0

    implicit = ImplicitEuler()
    sysJ = JacobianSystem(decay_rhs, decay_jac)
    errs = []
    for dt in dts:
        x = np.array([1.0])
        t = 0.0
        for _ in range(round(1.0 / dt)):
            x = implicit.do_step(sysJ, x, t, dt, out=x)
            t += dt
        errs.append(abs(x[0] - math.exp(-1.0)))
    checks.append(("ImplicitEuler", slope_of(dts, errs), 1.0, 0.1))

    se = SymplecticEuler()
    ham = harmonic_separable()
    errs = []
    for dt in dts:
        st = PairState([1.0], [0.0])
        t = 0.0
        for _ in range(round(1.0 / dt)):
            st = se.do_step(ham, st, t, dt, out=st)
            t += dt
        errs.append(max(abs(st.q[0] - math.cos(1.0)), abs(st.p[0] + math.sin(1.0))))
    checks.append(("SymplecticEuler", slope_of(dts, errs), 1.0, 0.1))

    elapsed = time.perf_counter() - start
    for name, slope, target, band in checks:
        assert abs(slope - target) <= band, f"{name}: slope {slope:.3f} outside {target}+-{band}"
    assert elapsed < 5.0
    summary = " ".join(f"{n}={s:.2f}" for n, s, _, _ in checks)
    print(f"criterion 1 PASS: orders {summary} in {elapsed:.2f}s")


def test_criterion_2_fsal_evaluation_economy():
    counter = EvaluationCounter(expgrow)
    dp5 = DormandPrince5()
    x = [1.0]
    t = 0.0
    dxdt_in = None
    for _ in range(1000):
        x, _, record = dp5.do_step_with_error(counter, x, t, 0.001, dxdt_in=dxdt_in)
        dxdt_in = record.new_derivative
        t += 0.001
    assert counter.count == 6001
    print(f"criterion 2 PASS: 1000 chained DP5 steps cost exactly {counter.count} evaluations")


def test_criterion_3_controlled_stepper_contract():
    ctl = ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-6, rtol=1e-6))
    x = np.array([1.0, 0.0])
    t, dt = 0.0, 0.01
    accepted = rejected = 0
    while t < 100.0:
        dt_trial = min(dt, 100.0 - t)
        before_x = x.tobytes()
        before_t = t
        res = ctl.try_step(HARMONIC, x, t, dt_trial)
        if res.accepted:
            assert res.error_ratio <= 1.0
            t = res.t
            accepted += 1
        else:
            assert x.tobytes() == before_x
            assert before_t == t
            assert res.dt < dt_trial
            rejected += 1
        dt = res.dt
    gap = max(abs(x[0] - math.cos(100.0)), abs(x[1] + math.sin(100.0)))
    assert gap < 1e-3
    print(f"criterion 3 PASS: {accepted} accepted / {rejected} rejected, global error {gap:.2e}")


def test_criterion_4_dense_output():
    counter = EvaluationCounter(expgrow)
    d = DenseOutputDopri5()
    d.initialize(np.array([1.0]), 0.0, 0.05)
    prev = 1.0
    for _ in range(8):
        t_prev, t_cur = d.do_step(counter)
        frozen = counter.count
        left = d.calc_state(t_prev)[0]
        right = d.calc_state(t_cur)[0]
        cur = d.current_state[0]
        assert abs(left - prev) <= 1e-12 * max(1.0, abs(prev))
        assert abs(right - cur) <= 1e-12 * max(1.0, abs(cur))
        assert counter.count == frozen
        prev = cur

    errs, widths = [], []
    for dt0 in (0.2, 0.1, 0.05, 0.025):
        d2 = DenseOutputDopri5()
        d2.initialize(np.array([1.0]), 0.0, dt0)
        t_prev, t_cur = d2.do_step(expgrow)
        tm = 0.5 * (t_prev + t_cur)
        errs.append(abs(d2.calc_state(tm)[0] - math.exp(tm)))
        widths.append(t_cur - t_prev)
    slope = slope_of(widths, errs)
    assert slope >= 3.5
    print(f"criterion 4 PASS: endpoints exact, zero-eval queries, interior slope {slope:.2f}")


def test_criterion_5_a_stability_contrast():
    implicit = ImplicitEuler()
    for lamdt in (1.0, 1e3, 1e6, 1e12):
        def rhs(x, dxdt, t, lam=lamdt):
            dxdt[0] = -lam * x[0]

        def jac(x, out, t, lam=lamdt):
            out[0, 0] = -lam

        out = implicit.do_step(JacobianSystem(rhs, jac), np.array([1.0]), 0.0, 1.0)
        assert abs(out[0]) <= 1.0, f"implicit Euler amplifies at lambda*dt={lamdt}"

    def rhs3(x, dxdt, t):
        dxdt[0] = -3.0 * x[0]

    euler = ExplicitEuler()
    x = np.array([1.0])
    magnitudes = [1.0]
    for _ in range(10):
        x = euler.do_step(rhs3, x, 0.0, 1.0, out=x)
        magnitudes.append(abs(x[0]))
    assert all(b > a for a, b in zip(magnitudes, magnitudes[1:]))
    assert magnitudes[-1] > 1e3
    print(f"criterion 5 PASS: implicit contracts through lambda*dt=1e12, "
          f"explicit euler grows to {magnitudes[-1]:.0f} at lambda*dt=3")


def test_criterion_6_symplectic_energy_marathon():
    start = time.perf_counter()
    dt = 0.01
    n = 1_000_000
    ham = harmonic_separable()
    se = SymplecticEuler()
    st = PairState([1.0], [0.0])
    h0 = harmonic_energy(st.q, st.p)
    t = 0.0
    worst = 0.0
    for _ in range(n):
        st = se.do_step(ham, st, t, dt, out=st)
        t += dt
        drift = abs(0.5 * (st.q[0] * st.q[0] + st.p[0] * st.p[0]) - h0)
        if drift > worst:
            worst = drift
    assert worst < 0.05, f"symplectic energy drift {worst}"

    euler = ExplicitEuler()
    x = [1.0, 0.0]
    t = 0.0
    for _ in range(n):
        x = euler.do_step(HARMONIC, x, t, dt, out=x)
        t += dt
    euler_drift = abs(0.5 * (x[0] * x[0] + x[1] * x[1]) - h0)
    elapsed = time.perf_counter() - start
    assert euler_drift > 1.0
    assert elapsed < 10.0
    print(f"criterion 6 PASS: symplectic drift {worst:.4f} vs euler {euler_drift:.2e} "
          f"over 1e6 steps in {elapsed:.1f}s")


def test_criterion_7_container_independence():
    rk4 = RungeKutta4()
    xa = np.array([10.0, 10.0, 10.0])
    xl = [10.0, 10.0, 10.0]
    t = 0.0
    for _ in range(1000):
        xa = rk4.do_step(LORENZ, xa, t, 0.01, out=xa)
        t += 0.01
    t = 0.0
    for _ in range(1000):
        xl = rk4.do_step(LORENZ, xl, t, 0.01, out=xl)
        t += 0.01
    for a, b in zip(xa, xl):
        assert struct.pack("<d", float(a)) == struct.pack("<d", float(b))
    print(f"criterion 7 PASS: numpy and list trajectories bit-identical at {list(xl)}")


def test_criterion_8_trajectory_command():
    proc = subprocess.run(
        [sys.executable, "-m", "odekit", "integrate",
         "--system", "lorenz", "--stepper", "dopri5",
         "--t0", "0", "--t1", "1000", "--dt", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "t,x0,x1,x2"
    rows = lines[1:]
    assert len(rows) == 1001
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert [float(v) for v in first[1:]] == [10.0, 10.0, 10.0]
    print("criterion 8 PASS: 1001 observation rows, first at t=0 state (10,10,10)")


def test_criterion_9_lorenz_oracle_cross_check():
    ctl = ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-10, rtol=1e-10))
    adaptive = integrate_adaptive(ctl, LORENZ, np.array([10.0, 10.0, 10.0]), 0.0, 1.0, 0.01)
    reference = integrate_const(RungeKutta4(), LORENZ, np.array([10.0, 10.0, 10.0]),
                                0.0, 1.0, 1e-4)
    gap = max(abs(a - b) for a, b in zip(adaptive.final_state, reference.final_state))
    assert gap < 1e-5
    print(f"criterion 9 PASS: adaptive vs fixed-step reference gap {gap:.2e}")
