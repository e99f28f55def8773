"""Hand-written yardsticks that take the host's speed out of solve times.

The host is shared: its speed drifts by 15-30% within seconds, so raw
wall times of one run say more about the neighbours than about odekit.
Each workload therefore times, right after every solve, a fixed
hand-written computation of the same character that does not use
odekit: plain Python arithmetic on lists for the list workloads, small
numpy operations for the stiff workload, whole-array numpy arithmetic
for the ensemble.  A solve's time is reported in reference seconds,

    wall time of the solve * NOMINAL / wall time of the yardstick after it,

where NOMINAL is the yardstick's time on the reference machine (a
2-core Intel Xeon virtual machine on a shared host, Python 3.11.7, numpy 2.4.6).  Measured there,
the spread of a run's median solve time across runs fell from 9-28% of
the median to 2-5%.  Raw wall times are recorded beside them.
"""

from __future__ import annotations

import numpy as np

# Seconds per yardstick step on the reference machine.
PYTHON_STEP_S = 5.5e-6
NUMPY_SMALL_STEP_S = 8.0e-6
NUMPY_ENSEMBLE_STEP_S = 6.6e-4


def python_rk4(steps):
    """Classical RK4 on the Lorenz system with 3-element lists."""

    def f(x):
        return [10.0 * (x[1] - x[0]), 28.0 * x[0] - x[1] - x[0] * x[2], -8.0 / 3.0 * x[2] + x[0] * x[1]]

    def run():
        x, dt = [1.0, 2.0, 20.0], 1e-3
        for _ in range(steps):
            k1 = f(x)
            k2 = f([x[i] + 0.5 * dt * k1[i] for i in range(3)])
            k3 = f([x[i] + 0.5 * dt * k2[i] for i in range(3)])
            k4 = f([x[i] + dt * k3[i] for i in range(3)])
            x = [x[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(3)]
        return x

    return run, steps * PYTHON_STEP_S


def numpy_small(steps, dim=32):
    """Power iteration with a fixed dim x dim matrix: many small numpy calls."""
    a = np.random.default_rng(0).standard_normal((dim, dim))

    def run():
        y = np.ones(dim)
        for _ in range(steps):
            y = a @ y
            y /= np.max(np.abs(y))
        return y

    return run, steps * NUMPY_SMALL_STEP_S


def numpy_ensemble(steps, x0, rho):
    """Classical RK4 on a (3, n) block of Lorenz trajectories."""

    def f(x):
        return np.stack([10.0 * (x[1] - x[0]), rho * x[0] - x[1] - x[0] * x[2], -8.0 / 3.0 * x[2] + x[0] * x[1]])

    def run():
        x, dt = x0, 1e-3
        for _ in range(steps):
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    return run, steps * NUMPY_ENSEMBLE_STEP_S
