"""Integrate a stiff two-component system with implicit Euler at a step
size far beyond the explicit stability limit.

The fast component decays with rate 1e6, so explicit Euler needs
dt < 2e-6 to stay bounded.  Implicit Euler takes dt = 0.1 in stride:
the Newton iteration solves the backward step and the fast component is
simply flattened onto its slow manifold.
"""

import numpy as np

from odekit import ExplicitEuler, ImplicitEuler, get_system, integrate_const


def main():
    system = get_system("stiff2")
    x0 = np.array([2.0, 1.0])
    dt = 0.1

    implicit = integrate_const(ImplicitEuler(), system, x0.copy(), t0=0.0, t1=1.0, dt=dt)
    exact = system.exact(x0, 0.0, 1.0)
    print("implicit Euler, dt=0.1:")
    print(f"  computed [{implicit.final_state[0]:.6f}, {implicit.final_state[1]:.3e}]")
    print(f"  exact    [{exact[0]:.6f}, {exact[1]:.3e}]")

    x = x0.copy()
    explicit = ExplicitEuler()
    t = 0.0
    for _ in range(10):
        x = explicit.do_step(system, x, t, dt, out=x)
        t += dt
    print(f"\nexplicit Euler at the same dt: [{x[0]:.3e}, {x[1]:.3e}]")
    print("the fast component alternates sign and grows by ~1e5 per step")


if __name__ == "__main__":
    main()
