"""Run the same Lorenz trajectory on a numpy array, on a plain Python
list and on an ``array.array('d')``, then compare the results bit for bit.

The stepper code never touches numpy directly; it goes through an algebra
object picked by container type.  Both shipped algebras accumulate sums
in the same left-to-right order, so the floating-point results are
identical, not merely close.  A container the defaults cannot build,
such as ``array.array``, runs through an algebra given to the stepper:
the driver makes its working copy with it too.
"""

import array
import struct

from odekit import LORENZ, RungeKutta4, algebra_for, integrate_const
from odekit.algebra import SequenceAlgebra


class ArrayAlgebra(SequenceAlgebra):
    """The list arithmetic on ``array.array('d')`` states, whose
    constructor wants a type code first."""

    def clone_shape(self, src):
        return array.array("d", bytes(8 * len(src)))


def run(x0, n=1000, dt=0.01):
    stepper = RungeKutta4()
    x = x0
    t = 0.0
    for _ in range(n):
        x = stepper.do_step(LORENZ, x, t, dt, out=x)
        t += dt
    return x


def bits(state):
    return [struct.pack("<d", float(v)) for v in state]


def main():
    import numpy as np

    xa = run(np.array([10.0, 10.0, 10.0]))
    xl = run([10.0, 10.0, 10.0])
    xarr = integrate_const(RungeKutta4(ArrayAlgebra()), LORENZ,
                           array.array("d", [10.0, 10.0, 10.0]), 0.0, 10.0, 0.01).final_state

    print(f"numpy backend  ({type(algebra_for(xa)).__name__}):")
    print(f"  {list(map(float, xa))}")
    print(f"list backend   ({type(algebra_for(xl)).__name__}):")
    print(f"  {xl}")
    print("array.array    (ArrayAlgebra, through integrate_const):")
    print(f"  {xarr.tolist()}")

    print(f"\nbit-identical after 1000 steps: {bits(xa) == bits(xl) == bits(xarr)}")


if __name__ == "__main__":
    main()
