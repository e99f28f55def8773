"""Sample a trajectory on a uniform grid that the adaptive stepper never
visits, using the dense-output interpolant.

The stepper picks its own step sizes; calc_state answers for any time
inside the last step interval from stage data already on hand, so the
observation grid costs zero extra system evaluations.
"""

import math

import numpy as np

from odekit import DenseOutputDopri5, EvaluationCounter, HARMONIC


def main():
    counter = EvaluationCounter(HARMONIC)
    dense = DenseOutputDopri5()
    dense.initialize(np.array([1.0, 0.0]), 0.0, 0.1)
    dense.do_step(counter)
    steps = 1  # each do_step call is one accepted step

    t_grid = 0.0
    print(f"{'t':>6} {'q interp':>12} {'q exact':>12} {'|err|':>9}")
    while t_grid <= 10.0:
        while dense.current_time < t_grid:
            dense.do_step(counter)
            steps += 1
        evals_before = counter.count
        q = dense.calc_state(t_grid)[0]
        assert counter.count == evals_before
        if round(t_grid / 0.25) % 5 == 0:
            print(f"{t_grid:6.2f} {q:12.8f} {math.cos(t_grid):12.8f} "
                  f"{abs(q - math.cos(t_grid)):9.2e}")
        t_grid += 0.25

    print(f"\n{steps} accepted steps, {counter.count} evaluations, "
          f"41 grid queries at no evaluation cost")


if __name__ == "__main__":
    main()
