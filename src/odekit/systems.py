"""Benchmark systems and convergence-order measurement."""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial

import numpy as np

from .errors import SolverError
from .integrate import integrate_const
from .symplectic import SeparableHamiltonian

# Errors at or below this are rounding noise and stay out of an order fit.
UNDERFLOW = 1e-13
# An order study refuses widths that ask for more fixed steps than this in all.
MAX_STUDY_STEPS = 10**6


class NamedSystem(partial):
    """A right-hand side bundled with its metadata.

    The instance is itself the ``(x, dxdt, t)`` callable, a frameless
    :func:`functools.partial` of ``rhs``.  ``exact``, when present, maps
    ``(x0, t0, t)`` to the closed-form state as a list.  ``jacobian``
    fills a dense ``(n, n)`` array in place, so implicit steppers take
    the instance as it is.
    """

    def __new__(cls, name, dimension, rhs, jacobian=None, exact=None, default_state=()):
        self = super().__new__(cls, rhs)
        vars(self).update(name=name, dimension=dimension, rhs=rhs, jacobian=jacobian, exact=exact,
                          default_state=default_state)
        return self

    def __reduce__(self):
        return type(self), (self.name, self.dimension, self.rhs, self.jacobian, self.exact, self.default_state)

    def __repr__(self):
        return f"NamedSystem(name={self.name!r}, dimension={self.dimension})"


def make_lorenz(sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    """Lorenz system; chaotic at the classic parameter values."""

    def rhs(x, dxdt, t):
        dxdt[0] = sigma * (x[1] - x[0])
        dxdt[1] = rho * x[0] - x[1] - x[0] * x[2]
        dxdt[2] = -beta * x[2] + x[0] * x[1]

    def jacobian(x, jac, t):
        jac[0, 0] = -sigma
        jac[0, 1] = sigma
        jac[0, 2] = 0.0
        jac[1, 0] = rho - x[2]
        jac[1, 1] = -1.0
        jac[1, 2] = -x[0]
        jac[2, 0] = x[1]
        jac[2, 1] = x[0]
        jac[2, 2] = -beta

    return NamedSystem(
        name="lorenz",
        dimension=3,
        rhs=rhs,
        jacobian=jacobian,
        default_state=(10.0, 10.0, 10.0),
    )


def _harmonic_rhs(x, dxdt, t):
    dxdt[0] = x[1]
    dxdt[1] = -x[0]


def _harmonic_jacobian(x, jac, t):
    jac[0, 0] = 0.0
    jac[0, 1] = 1.0
    jac[1, 0] = -1.0
    jac[1, 1] = 0.0


def _harmonic_exact(x0, t0, t):
    tau = t - t0
    c, s = math.cos(tau), math.sin(tau)
    return [x0[0] * c + x0[1] * s, -x0[0] * s + x0[1] * c]


HARMONIC = NamedSystem(
    name="harmonic",
    dimension=2,
    rhs=_harmonic_rhs,
    jacobian=_harmonic_jacobian,
    exact=_harmonic_exact,
    default_state=(1.0, 0.0),
)


def _expdecay_rhs(x, dxdt, t):
    dxdt[0] = -x[0]


def _expdecay_jacobian(x, jac, t):
    jac[0, 0] = -1.0


def _expdecay_exact(x0, t0, t):
    return [x0[0] * math.exp(-(t - t0))]


EXPDECAY = NamedSystem(
    name="expdecay",
    dimension=1,
    rhs=_expdecay_rhs,
    jacobian=_expdecay_jacobian,
    exact=_expdecay_exact,
    default_state=(1.0,),
)

# Upper triangular two-by-two with eigenvalues -1 and -1e6; the spread
# makes explicit methods step-size-bound while the closed form stays
# simple.
STIFF_FAST_RATE = 1.0e6


def _stiff2_rhs(x, dxdt, t):
    dxdt[0] = -x[0] + (1.0 - STIFF_FAST_RATE) * x[1]
    dxdt[1] = -STIFF_FAST_RATE * x[1]


def _stiff2_jacobian(x, jac, t):
    jac[0, 0] = -1.0
    jac[0, 1] = 1.0 - STIFF_FAST_RATE
    jac[1, 0] = 0.0
    jac[1, 1] = -STIFF_FAST_RATE


def _stiff2_exact(x0, t0, t):
    tau = t - t0
    slow = math.exp(-tau)
    fast = math.exp(-STIFF_FAST_RATE * tau)
    return [(x0[0] - x0[1]) * slow + x0[1] * fast, x0[1] * fast]


STIFF2 = NamedSystem(
    name="stiff2",
    dimension=2,
    rhs=_stiff2_rhs,
    jacobian=_stiff2_jacobian,
    exact=_stiff2_exact,
    default_state=(1.0, 1.0),
)

LORENZ = make_lorenz()

SYSTEMS = {s.name: s for s in (LORENZ, HARMONIC, EXPDECAY, STIFF2)}


def get_system(name):
    """Look up a shipped system by name."""
    try:
        return SYSTEMS[name]
    except KeyError:
        options = ", ".join(sorted(SYSTEMS))
        raise ValueError(f"unknown system '{name}' (choose from: {options})") from None


def harmonic_separable():
    """The unit oscillator split for symplectic stepping."""

    def dqdt(p, out):
        for i, v in enumerate(p):
            out[i] = v

    def dpdt(q, out):
        for i, v in enumerate(q):
            out[i] = -v

    return SeparableHamiltonian(dqdt=dqdt, dpdt=dpdt)


def harmonic_energy(q, p):
    """H = (|q|^2 + |p|^2) / 2 for the unit oscillator."""
    total = 0.0
    for i in range(len(q)):
        total += q[i] * q[i] + p[i] * p[i]
    return 0.5 * total


class OrderStudy(namedtuple("OrderStudy", "slope dts errors excluded", defaults=((),))):
    """Least-squares fit of log(error) against log(dt), as a frozen
    record.

    ``slope`` is NaN when fewer than two points with distinct widths
    survive the cut;
    ``excluded`` lists the ``(dt, error)`` pairs that were dropped
    because their error was at most ``UNDERFLOW`` or not finite.
    """

    __slots__ = ()


def fit_order(dts, errors):
    """Fit the observed convergence order to the dt/error pairs whose
    error is finite and above ``UNDERFLOW``; the slope is NaN unless
    they span at least two distinct widths."""
    if len(dts) != len(errors):
        raise ValueError("dt and error lists differ in length")
    pairs = tuple(zip(dts, errors))
    used = [p for p in pairs if UNDERFLOW < p[1] < math.inf]
    excluded = tuple(p for p in pairs if not UNDERFLOW < p[1] < math.inf)
    logs_d, logs_e = np.log(used).reshape(-1, 2).T
    if len(set(logs_d.tolist())) < 2:  # a single width: no line to fit
        return OrderStudy(math.nan, tuple(dts), tuple(errors), excluded)
    slope = float(np.polyfit(logs_d, logs_e, 1)[0])
    return OrderStudy(slope, tuple(dts), tuple(errors), excluded)


def order_study(stepper, system, x0, t0, t1, dt_list):
    """Run :func:`integrate_const` at each width; fit the errors above ``UNDERFLOW``.

    A controlled or dense-output stepper is studied through the scheme
    it wraps, its ``stepper``: adapting would hide the width.
    ``system`` must carry an exact solution, and a Jacobian for
    steppers that need one.  ``x0`` None starts from the system's
    ``default_state``.  Any positive widths are accepted, as long as
    they ask for at most ``MAX_STUDY_STEPS`` steps in all; each must
    end the driver's grid on ``t1``.  The driver refuses an empty
    interval and an empty or non-finite ``x0`` before any evaluation.
    """
    if not all(dt > 0.0 for dt in dt_list):
        raise ValueError("step widths must be positive")
    steps = sum((t1 - t0) / dt for dt in dt_list)
    if steps > MAX_STUDY_STEPS:
        raise ValueError(f"the widths ask for {steps:.3g} steps, more than {MAX_STUDY_STEPS}")
    if system.exact is None:
        solvable = ", ".join(sorted(n for n, s in SYSTEMS.items() if s.exact))
        raise ValueError(f"system '{system.name}' has no exact solution (choose from: {solvable})")
    x0 = list(system.default_state) if x0 is None else x0
    scheme = getattr(stepper, "stepper", stepper)
    errors = []
    for dt in dt_list:
        try:
            report = integrate_const(scheme, system, x0, t0, t1, dt)
        except SolverError as exc:  # a run that blew up still has an error: one that is not finite
            if np.isfinite((report := exc.partial_report).final_state).all():
                raise
        if report.final_time != t1:
            raise ValueError(f"width {dt!r} does not divide the interval")
        reference = system.exact(x0, t0, t1)
        errors.append(float(np.max(np.abs(np.subtract(report.final_state, reference)))))
    return fit_order(dt_list, errors)
