"""Benchmark systems and convergence-order measurement."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .symplectic import SeparableHamiltonian


@dataclass
class NamedSystem:
    """A right-hand side bundled with its metadata.

    The instance is itself callable with the ``(x, dxdt, t)`` stepping
    convention.  ``exact``, when present, maps ``(x0, t0, t)`` to the
    closed-form state as a list.  ``jacobian`` fills a dense ``(n, n)``
    array in place, so implicit steppers take the instance as it is.
    """

    name: str
    dimension: int
    rhs: object
    jacobian: object = None
    exact: object = None
    default_state: tuple = ()
    description: str = ""

    def __call__(self, x, dxdt, t):
        return self.rhs(x, dxdt, t)


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
        description=f"Lorenz flow, sigma={sigma}, rho={rho}, beta={beta}",
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
    description="unit harmonic oscillator as (position, velocity)",
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
    description="scalar exponential decay",
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
    description="stiff linear pair, rates 1 and 1e6",
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
        for i in range(len(p)):
            out[i] = p[i]

    def dpdt(q, out):
        for i in range(len(q)):
            out[i] = -q[i]

    return SeparableHamiltonian(dqdt=dqdt, dpdt=dpdt)


def harmonic_energy(q, p):
    """H = (|q|^2 + |p|^2) / 2 for the unit oscillator."""
    total = 0.0
    for i in range(len(q)):
        total += q[i] * q[i] + p[i] * p[i]
    return 0.5 * total


@dataclass(frozen=True)
class OrderStudy:
    """Least-squares fit of log(error) against log(dt).

    ``slope`` is NaN when fewer than two points survive the underflow
    cut; ``excluded`` lists the ``(dt, error)`` pairs that were
    dropped because their error fell below the cut.
    """

    slope: float
    dts: tuple
    errors: tuple
    excluded: tuple = field(default_factory=tuple)


def fit_order(dts, errors, underflow=1e-13):
    """Fit the observed convergence order from paired dt/error data."""
    if len(dts) != len(errors):
        raise ValueError("dt and error lists differ in length")
    used = [(d, e) for d, e in zip(dts, errors) if e > underflow]
    excluded = tuple((d, e) for d, e in zip(dts, errors) if e <= underflow)
    if len(used) < 2:
        return OrderStudy(float("nan"), tuple(dts), tuple(errors), excluded)
    logs_d = np.log([d for d, _ in used])
    logs_e = np.log([e for _, e in used])
    slope = float(np.polyfit(logs_d, logs_e, 1)[0])
    return OrderStudy(slope, tuple(dts), tuple(errors), excluded)


def _check_geometric(dt_list):
    if len(dt_list) < 3:
        raise ValueError("need at least three step widths")
    if any(d <= 0.0 for d in dt_list):
        raise ValueError("step widths must be positive")
    ratio = dt_list[1] / dt_list[0]
    if ratio == 1.0:
        raise ValueError("step widths must form a nontrivial geometric progression")
    for a, b in zip(dt_list, dt_list[1:]):
        if abs(b / a - ratio) > 1e-9 * abs(ratio):
            raise ValueError("step widths must form a geometric progression")


def order_study(stepper, system, x0, t0, t1, dt_list, underflow=1e-13):
    """Run fixed-step integrations at each width and fit the slope.

    ``system`` must carry an exact solution, and a Jacobian for
    steppers that need one.  Widths must divide the interval.
    """
    if t1 <= t0:
        raise ValueError("end time must exceed start time")
    _check_geometric(dt_list)
    if system.exact is None:
        raise ValueError(f"system '{system.name}' has no exact solution")
    x0 = tuple(system.default_state if x0 is None else x0)
    span = t1 - t0
    reference = np.asarray(system.exact(x0, t0, t1), dtype=float)
    errors = []
    for dt in dt_list:
        steps = round(span / dt)
        if steps < 1 or abs(steps * dt - span) > 1e-8 * abs(span):
            raise ValueError(f"width {dt!r} does not divide the interval")
        x = np.array(x0, dtype=float)
        for k in range(steps):
            stepper.do_step(system, x, t0 + k * dt, dt)
        errors.append(float(np.max(np.abs(x - reference))))
    return fit_order(dt_list, errors, underflow)
