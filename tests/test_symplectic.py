"""Symplectic Euler on separable Hamiltonians.

The kick-then-drift update p <- p + dt*g(q), q <- q + dt*f(p_new) is a
symplectic map.  For the harmonic oscillator it conserves the modified
quadratic H~ = (p^2 + q^2 - dt*p*q)/2 exactly, which is what keeps the
true energy error bounded for all time instead of drifting.
"""

import math

import numpy as np
import pytest

from odekit import (
    DimensionError,
    PairState,
    SeparableHamiltonian,
    SymplecticEuler,
    harmonic_energy,
    harmonic_separable,
)


def free_particle():
    def dqdt(p, out):
        for i in range(len(p)):
            out[i] = p[i]

    def dpdt(q, out):
        for i in range(len(q)):
            out[i] = 0.0

    return SeparableHamiltonian(dqdt, dpdt)


def test_pair_state_lengths_must_match():
    with pytest.raises(DimensionError):
        PairState([1.0, 2.0], [1.0])


def test_pair_state_len():
    assert len(PairState([1.0, 2.0], [3.0, 4.0])) == 2


def test_pair_state_repr_shows_both_halves():
    assert repr(PairState([1.0], np.array([0.5]))) == "PairState(q=[1.0], p=array([0.5]))"


def test_free_particle_exact():
    s = SymplecticEuler().do_step(free_particle(), PairState([0.0], [1.0]), 0.0, 0.5)
    assert s.p[0] == 1.0
    assert s.q[0] == 0.5


def test_harmonic_hand_value():
    # kick: p = 0 + 0.1*(-1) = -0.1; drift: q = 1 + 0.1*(-0.1) = 0.99
    s = SymplecticEuler().do_step(harmonic_separable(), PairState([1.0], [0.0]), 0.0, 0.1)
    assert s.p[0] == pytest.approx(-0.1, rel=1e-15)
    assert s.q[0] == pytest.approx(0.99, rel=1e-15)


def test_zero_dt_leaves_state():
    s = SymplecticEuler().do_step(harmonic_separable(), PairState([1.0], [0.0]), 0.0, 0.0)
    assert s.q[0] == 1.0 and s.p[0] == 0.0


def test_out_of_place_leaves_input():
    src = PairState([1.0], [0.0])
    buf = PairState([0.0], [0.0])
    got = SymplecticEuler().do_step(harmonic_separable(), src, 0.0, 0.1, out=buf)
    assert got is buf
    assert src.q[0] == 1.0 and src.p[0] == 0.0


def test_inplace_matches_out_of_place():
    st = PairState([1.0], [0.0])
    SymplecticEuler().do_step(harmonic_separable(), st, 0.0, 0.1, out=st)
    fresh = SymplecticEuler().do_step(harmonic_separable(), PairState([1.0], [0.0]), 0.0, 0.1)
    assert st.q[0] == fresh.q[0] and st.p[0] == fresh.p[0]


def test_mismatched_out_rejected():
    with pytest.raises(DimensionError):
        SymplecticEuler().do_step(
            harmonic_separable(), PairState([1.0], [0.0]), 0.0, 0.1,
            out=PairState([0.0, 0.0], [0.0, 0.0]),
        )


def test_first_order_convergence_on_harmonic():
    ham = harmonic_separable()
    stepper = SymplecticEuler()
    errs, dts = [], []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        st = PairState([1.0], [0.0])
        t = 0.0
        for _ in range(round(1.0 / dt)):
            st = stepper.do_step(ham, st, t, dt, out=st)
            t += dt
        err = max(abs(st.q[0] - math.cos(1.0)), abs(st.p[0] + math.sin(1.0)))
        errs.append(err)
        dts.append(dt)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def test_shadow_invariant_conserved():
    # H~ = (p^2 + q^2 - dt*p*q)/2 is exactly conserved by the map;
    # only roundoff moves it over 1e4 steps
    dt = 0.01
    ham = harmonic_separable()
    stepper = SymplecticEuler()
    st = PairState([1.0], [0.0])

    def shadow(s):
        return 0.5 * (s.p[0] ** 2 + s.q[0] ** 2 - dt * s.p[0] * s.q[0])

    h0 = shadow(st)
    t = 0.0
    worst = 0.0
    for _ in range(10_000):
        st = stepper.do_step(ham, st, t, dt, out=st)
        t += dt
        worst = max(worst, abs(shadow(st) - h0))
    assert worst / abs(h0) < 1e-10


def test_energy_error_bounded_short_run():
    # |H - H0| < 5*dt throughout; the long-run version lives in the
    # acceptance suite
    dt = 0.01
    ham = harmonic_separable()
    stepper = SymplecticEuler()
    st = PairState([1.0], [0.0])
    h0 = harmonic_energy(st.q, st.p)
    t = 0.0
    for _ in range(10_000):
        st = stepper.do_step(ham, st, t, dt, out=st)
        t += dt
        assert abs(harmonic_energy(st.q, st.p) - h0) < 5 * dt


def test_order_info():
    assert SymplecticEuler().order == 1
