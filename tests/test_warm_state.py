"""Warm equals fresh: one stepper taken through any history of driver
runs, manual calls, resets, deep copies, pickling and changes of the
state's type, dtype and length answers every call as a fresh stepper
does, ``float.hex`` for ``float.hex``.  A manual ``try_step`` reads the
derivative its controller cached at the call before, so a chain of them
is compared only right after a ``reset``, as the contract says.  A
``do_step`` entry on the instance is always the one bound for the
state type and length of the stepper's scratch."""

import copy
import inspect
import pickle

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from odekit import (
    CashKarp54,
    ControlledStepper,
    ControllerParams,
    DenseOutputDopri5,
    DormandPrince5,
    ExplicitEuler,
    ImplicitEuler,
    RungeKutta4,
    SolverError,
    integrate_adaptive,
    integrate_const,
)
from odekit.algebra import UNROLL
from reference import hexes
from test_properties import rescaled_ring

SYSTEM = rescaled_ring(1.0)  # ring, with the Jacobian implicit Euler needs
PARAMS = ControllerParams(atol=1e-6, rtol=1e-6)
FIXED = {"euler": ExplicitEuler, "rk4": RungeKutta4, "dopri5-fixed": DormandPrince5, "implicit": ImplicitEuler}
CONTROLLED = {
    "dopri5": lambda: ControlledStepper(DormandPrince5(), PARAMS),
    "ck54": lambda: ControlledStepper(CashKarp54(), PARAMS),
    "dense": lambda: DenseOutputDopri5(PARAMS),
}
STEPPERS = {**FIXED, **CONTROLLED}
BOXES = {
    "list": list,
    "float64": lambda v: np.array(v, dtype=np.float64),
    "float32": lambda v: np.array(v, dtype=np.float32),
}
X0 = st.lists(st.floats(-1.5, 1.5), min_size=UNROLL + 2, max_size=UNROLL + 2)
WIDTHS = st.sampled_from([0.05, 0.125, 0.3])


def outcome(call, stepper):
    """What ``call(stepper)`` gives, or the error it raises."""
    try:
        return call(stepper)
    except SolverError as exc:
        return type(exc).__name__, str(exc)


class WarmEqualsFresh(RuleBasedStateMachine):
    @initialize(kind=st.sampled_from(sorted(STEPPERS)))
    def make(self, kind):
        self.kind, self.warm, self.box, self.n, self.clean = kind, STEPPERS[kind](), "list", 3, True

    def state(self, x0):
        return BOXES[self.box](x0[:self.n])

    def same(self, call):
        # The warm stepper's answer, then a fresh one's.
        warm, fresh = (outcome(call, stepper) for stepper in (self.warm, STEPPERS[self.kind]()))
        assert warm == fresh

    @rule(box=st.sampled_from(sorted(BOXES)), n=st.integers(1, UNROLL + 2))
    def change_state(self, box, n):
        self.box, self.n = box, n

    @rule(x0=X0, dt=WIDTHS, observed=st.booleans(), adaptive=st.booleans())
    def drive(self, x0, dt, observed, adaptive):
        driver = integrate_adaptive if adaptive and self.kind in CONTROLLED else integrate_const

        def call(stepper):
            seen = []
            observer = (lambda x, t: seen.append((t.hex(), hexes(x)))) if observed else None
            report = driver(stepper, SYSTEM, self.state(x0), 0.0, 0.5, dt, observer)
            return (seen, hexes(report.final_state), report.final_time.hex(), report.steps_accepted,
                    report.steps_rejected, report.system_evaluations)

        self.same(call)
        self.clean = False

    @precondition(lambda self: self.kind in FIXED)
    @rule(x0=X0, dt=WIDTHS, into=st.booleans())
    def do_step(self, x0, dt, into):
        def call(stepper):
            x = self.state(x0)
            out = self.state(x0) if into else None
            got = stepper.do_step(SYSTEM, x, 0.25, dt, out)
            return hexes(x), hexes(got), getattr(stepper, "last_iteration_count", None)

        self.same(call)

    @precondition(lambda self: self.kind in CONTROLLED and self.clean)
    @rule(x0=X0, dt=WIDTHS, count=st.integers(1, 4))
    def try_steps(self, x0, dt, count):
        def call(stepper):
            x, t, results = self.state(x0), 0.0, []
            for _ in range(count):
                result = stepper.try_step(SYSTEM, x, t, dt)
                t, dt_next = result.t, result.dt
                results.append((result.accepted, t.hex(), dt_next.hex(), result.error_ratio.hex(), hexes(x)))
            return results

        self.same(call)
        self.clean = False

    @precondition(lambda self: self.kind == "dense")
    @rule(x0=X0, dt=WIDTHS)
    def dense_steps(self, x0, dt):
        def call(stepper):
            stepper.initialize(self.state(x0), 0.0, dt)
            lo, hi = stepper.do_step(SYSTEM)
            lo, hi = stepper.do_step(SYSTEM)
            return (lo.hex(), hi.hex(), hexes(stepper.calc_state(0.5 * (lo + hi))), hexes(stepper.current_state),
                    stepper.current_time.hex())

        self.same(call)
        self.clean = False

    @precondition(lambda self: self.kind in CONTROLLED)
    @rule()
    def reset(self):
        self.warm.reset()
        self.clean = True

    @invariant()
    def an_entry_is_bound_to_the_scratch_state(self):
        # A rebind, to numpy or to another length, drops the entry bound before.
        entry = vars(self.warm).get("do_step")
        if entry is not None:
            bound = inspect.getclosurevars(entry).nonlocals
            assert (bound["T"], bound["N"]) == self.warm._scratch[0]

    @rule(how=st.sampled_from(["deepcopy", "pickle"]))
    def duplicate(self, how):
        self.warm = copy.deepcopy(self.warm) if how == "deepcopy" else pickle.loads(pickle.dumps(self.warm))


WarmEqualsFresh.TestCase.settings = settings(max_examples=100, stateful_step_count=15, deadline=None, database=None)
TestWarmEqualsFresh = WarmEqualsFresh.TestCase
