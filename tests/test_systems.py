"""Named benchmark systems, exact solutions, convergence order studies."""

import math

import numpy as np
import pytest

from odekit import (
    EXPDECAY,
    HARMONIC,
    LORENZ,
    STIFF2,
    SYSTEMS,
    ExplicitEuler,
    ImplicitEuler,
    NamedSystem,
    RungeKutta4,
    fit_order,
    get_system,
    harmonic_energy,
    make_lorenz,
    order_study,
)


def rhs_of(system, x, t=0.0):
    out = np.zeros(system.dimension)
    system(np.asarray(x, dtype=float), out, t)
    return out


# --- Lorenz -----------------------------------------------------------------


def test_lorenz_hand_values():
    assert list(rhs_of(LORENZ, [10.0, 10.0, 10.0])) == pytest.approx(
        [0.0, 170.0, 100.0 - 80.0 / 3.0], rel=1e-14
    )
    assert list(rhs_of(LORENZ, [0.0, 0.0, 0.0])) == [0.0, 0.0, 0.0]
    assert list(rhs_of(LORENZ, [1.0, 1.0, 1.0])) == pytest.approx(
        [0.0, 26.0, 1.0 - 8.0 / 3.0], rel=1e-14
    )


def test_lorenz_fixed_points():
    # C+- = (+-sqrt(beta(rho-1)), +-sqrt(beta(rho-1)), rho-1)
    r = math.sqrt(8.0 / 3.0 * 27.0)
    for s in (+1.0, -1.0):
        f = rhs_of(LORENZ, [s * r, s * r, 27.0])
        assert np.max(np.abs(f)) < 1e-12


def test_lorenz_default_state():
    assert tuple(LORENZ.default_state) == (10.0, 10.0, 10.0)


def test_lorenz_jacobian_matches_finite_differences():
    x = np.array([3.0, -2.0, 11.0])
    jac = np.zeros((3, 3))
    LORENZ.jacobian(x, jac, 0.0)
    h = 1e-6
    for j in range(3):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        col = (rhs_of(LORENZ, xp) - rhs_of(LORENZ, xm)) / (2.0 * h)
        assert col == pytest.approx(jac[:, j], rel=1e-7, abs=1e-7)


def test_make_lorenz_custom_params():
    sys = make_lorenz(sigma=1.0, rho=2.0, beta=3.0)
    assert list(rhs_of(sys, [1.0, 1.0, 1.0])) == pytest.approx([0.0, 0.0, -2.0])


# --- exact solutions vs their RHS -------------------------------------------


def stencil_derivative(f, t, h=1e-3):
    # five point stencil, O(h^4)
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


@pytest.mark.parametrize("name, x0, t_check", [
    ("harmonic", (1.0, 0.0), 0.7),
    ("expdecay", (1.0,), 0.4),
    ("stiff2", None, 1.0),
])
def test_exact_solution_satisfies_rhs(name, x0, t_check):
    system = get_system(name)
    x0 = tuple(system.default_state) if x0 is None else x0
    for i in range(system.dimension):
        def component(t, i=i):
            return system.exact(x0, 0.0, t)[i]

        numeric = stencil_derivative(component, t_check)
        analytic = rhs_of(system, system.exact(x0, 0.0, t_check), t_check)[i]
        assert abs(numeric - analytic) < 1e-10


@pytest.mark.parametrize("name", ["harmonic", "expdecay", "stiff2"])
def test_exact_solution_starts_at_x0(name):
    system = get_system(name)
    x0 = tuple(system.default_state)
    assert list(system.exact(x0, 0.0, 0.0)) == pytest.approx(list(x0), rel=1e-15)


def test_harmonic_closed_form():
    got = HARMONIC.exact((1.0, 0.0), 0.0, 2.0)
    assert got[0] == pytest.approx(math.cos(2.0), rel=1e-15)
    assert got[1] == pytest.approx(-math.sin(2.0), rel=1e-15)


def test_expdecay_closed_form():
    assert EXPDECAY.exact((3.0,), 0.0, 1.5)[0] == pytest.approx(3.0 * math.exp(-1.5))


def test_stiff2_fast_component_vanishes():
    x = STIFF2.exact(STIFF2.default_state, 0.0, 0.01)
    assert abs(x[1]) < 1e-300 or x[1] == 0.0


def test_harmonic_energy():
    assert harmonic_energy([1.0], [0.0]) == 0.5
    assert harmonic_energy([1.0, 0.0], [0.0, 2.0]) == 2.5


# --- registry ---------------------------------------------------------------


def test_registry_contents():
    assert set(SYSTEMS) == {"lorenz", "harmonic", "expdecay", "stiff2"}


def test_get_system_unknown_lists_options():
    with pytest.raises(ValueError) as info:
        get_system("nosuch")
    msg = str(info.value)
    for name in ("expdecay", "harmonic", "lorenz", "stiff2"):
        assert name in msg


def test_named_system_without_jacobian():
    # A named system with no jacobian is refused by the implicit stepper
    # before its rhs is called.
    calls = []
    bare = NamedSystem(name="bare", dimension=1, rhs=lambda x, d, t: calls.append(t))
    with pytest.raises(ValueError, match="jacobian"):
        ImplicitEuler().do_step(bare, np.array([1.0]), 0.0, 0.1)
    assert calls == []


# --- fit_order --------------------------------------------------------------


def test_fit_order_recovers_slope():
    dts = [0.1, 0.05, 0.025, 0.0125]
    errors = [1e-3 * (d / 0.1) ** 4 for d in dts]
    study = fit_order(dts, errors)
    assert study.slope == pytest.approx(4.0, abs=1e-10)
    assert study.excluded == ()


def test_fit_order_excludes_underflow():
    dts = [0.1, 0.05, 0.025]
    errors = [1e-4, 1e-5, 1e-16]
    study = fit_order(dts, errors)
    assert study.excluded == ((0.025, 1e-16),)
    assert study.slope == pytest.approx(math.log(10.0) / math.log(2.0), rel=1e-10)


def test_fit_order_nan_when_starved():
    study = fit_order([0.1, 0.05, 0.025], [1e-16, 1e-17, 1e-18])
    assert math.isnan(study.slope)
    assert len(study.excluded) == 3


def test_fit_order_length_mismatch():
    with pytest.raises(ValueError):
        fit_order([0.1, 0.05], [1e-3])


# --- order_study ------------------------------------------------------------


def test_order_study_rk4():
    dts = [0.1, 0.05, 0.025, 0.0125]
    study = order_study(RungeKutta4(), EXPDECAY, None, 0.0, 1.0, dts)
    assert study.slope == pytest.approx(4.0, abs=0.2)


def test_order_study_euler():
    dts = [0.1, 0.05, 0.025, 0.0125]
    study = order_study(ExplicitEuler(), EXPDECAY, None, 0.0, 1.0, dts)
    assert study.slope == pytest.approx(1.0, abs=0.1)


def test_order_study_dispatches_jacobian_for_implicit():
    dts = [0.1, 0.05, 0.025]
    study = order_study(ImplicitEuler(), EXPDECAY, None, 0.0, 1.0, dts)
    assert study.slope == pytest.approx(1.0, abs=0.1)


def test_order_study_flags_exact_integration():
    # RK4 quadrature is exact on x' = t^3: every error underflows and
    # the slope degenerates to NaN rather than a fake number
    cubic = NamedSystem(
        name="cubic",
        dimension=1,
        rhs=lambda x, d, t: d.__setitem__(0, t**3),
        exact=lambda x0, t0, t: [x0[0] + (t**4 - t0**4) / 4.0],
        default_state=(0.0,),
    )
    study = order_study(RungeKutta4(), cubic, None, 0.0, 1.0, [0.5, 0.25, 0.125])
    assert math.isnan(study.slope)
    assert len(study.excluded) == 3


def test_order_study_rejects_non_geometric_widths():
    with pytest.raises(ValueError):
        order_study(RungeKutta4(), EXPDECAY, None, 0.0, 1.0, [0.1, 0.05, 0.03])


def test_order_study_rejects_too_few_widths():
    with pytest.raises(ValueError):
        order_study(RungeKutta4(), EXPDECAY, None, 0.0, 1.0, [0.1, 0.05])


def test_order_study_rejects_non_dividing_width():
    with pytest.raises(ValueError):
        order_study(RungeKutta4(), EXPDECAY, None, 0.0, 1.0, [0.3, 0.15, 0.075])


def test_order_study_rejects_empty_interval():
    with pytest.raises(ValueError, match="end time must exceed start time"):
        order_study(RungeKutta4(), EXPDECAY, None, 1.0, 1.0, [0.1, 0.05, 0.025])


def test_order_study_needs_exact_solution():
    with pytest.raises(ValueError):
        order_study(RungeKutta4(), LORENZ, None, 0.0, 1.0, [0.1, 0.05, 0.025])
