"""The code odekit generates, pinned as reviewed golden files.

Every row of ``SCENARIOS`` is one run from a fresh interpreter: the
statements run after ``PRELUDE``, then the exact ``<odekit …>`` keys
(see ``odekit.algebra._define``) they leave in ``linecache``, each
written without ``<odekit `` and ``>``.  The rows state the binding
rule of every stepper: a bind compiles nothing, a driver's run compiles
only its copy, its run and the sequence kernels these bind or call,
and the first manual call compiles its own entry.  Beside this file,
each key's source is committed as ``<key>.py``, spaces written as
``-`` (:func:`path`).

``tests/test_generated_code.py`` runs every row and compares its keys
with the row's and each source with its file.  Run this file, with no
argument, to rewrite the sources and delete those of keys no row
compiles; it keeps the rows' keys, which are edited by hand, and names
each row whose run compiles other keys.
"""

import linecache
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

PRELUDE = """\
import numpy as np
from odekit import (HARMONIC, CashKarp54, ControlledStepper, DenseOutputDopri5, DormandPrince5, ExplicitEuler,
                    ImplicitEuler, JacobianSystem, PairState, RungeKutta4, SolverError, SymplecticEuler,
                    harmonic_separable, integrate_adaptive, integrate_const)
from odekit.algebra import UNROLL, NumpyAlgebra, SequenceAlgebra
from odekit.explicit import EmbeddedRungeKutta
from odekit.tableaus import RK4_CLASSIC, ButcherTableau


# A linear ring of any length, with the Jacobian implicit Euler needs.
def ring(x, dxdt, t):
    for i in range(len(x)):
        dxdt[i] = x[i - 1] - x[i]


def ring_jacobian(x, jac, t):
    for i in range(len(x)):
        jac[i, i], jac[i, i - 1] = -1.0, 1.0


def poisoned(x, dxdt, t):
    ring(x, dxdt, t)
    dxdt[0] = float("nan")


def refused(driver, *args):
    try:
        driver(*args)
    except SolverError:
        return
    raise AssertionError("the run did not fail")


class Replaced(SequenceAlgebra):
    def scale_sum(self, out, coeffs, terms):
        return SequenceAlgebra.scale_sum(self, out, coeffs, terms)


class NumpyReplaced(NumpyAlgebra):
    def scale_sum(self, out, coeffs, terms):
        return NumpyAlgebra.scale_sum(self, out, coeffs, terms)


# Bogacki and Shampine's 3(2) pair, first-same-as-last with no dense weights: dense output fits the cubic Hermite.
BOGACKI_SHAMPINE_32 = ButcherTableau("bogacki_shampine_32", [(1 / 2,), (0.0, 3 / 4), (2 / 9, 1 / 3, 4 / 9)],
                                     (2 / 9, 1 / 3, 4 / 9, 0.0), (0.0, 1 / 2, 3 / 4, 1.0), 3,
                                     (7 / 24, 1 / 4, 1 / 3, 1 / 8), 2)


def hermite():
    dense = DenseOutputDopri5()
    dense.stepper = EmbeddedRungeKutta(BOGACKI_SHAMPINE_32)
    return dense


# Two RK4 half steps as one pair of nine stages, built from RK4_CLASSIC as tests/test_explicit.py builds RK4X2_FSAL:
# the last stage at the new state (first-same-as-last), the midpoint rule on stage 5 the embedded estimate.
halved = lambda values: tuple(0.5 * v for v in values)
ha, hb, hc = [*map(halved, RK4_CLASSIC.a)], halved(RK4_CLASSIC.b), halved(RK4_CLASSIC.c)
RK4X2_FSAL = ButcherTableau("rk4x2_fsal", [*ha, hb, *(hb + row for row in ha), hb * 2], hb * 2 + (0.0,),
                            hc + tuple(0.5 + c for c in hc) + (1.0,), 4, tuple(float(j == 4) for j in range(9)), 2)
RING, POISONED = JacobianSystem(ring, ring_jacobian), JacobianSystem(poisoned, ring_jacobian)
OSCILLATOR = harmonic_separable()
short = lambda: [1.0, 0.5, -0.25]
unrolled = lambda: [0.125 * i for i in range(UNROLL + 1)]
seen = lambda x, t: None
"""

# name: (statements, keys...)
SCENARIOS = {
    "euler list-2 const": (
        "integrate_const(ExplicitEuler(), HARMONIC, [1.0, 0.0], 0, 1, 0.01)",
        "copy n=2", "loop euler n=2 unobserved"),
    "euler list-2 const, then do_step": (
        "stepper, x = ExplicitEuler(), [1.0, 0.0]; "
        "integrate_const(stepper, HARMONIC, x, 0, 1, 0.01); "
        "stepper.do_step(HARMONIC, x, 0.0, 0.01)",
        "copy n=2", "loop euler n=2 unobserved", "step euler n=2"),
    "rk4 numpy const, then do_step": (
        "stepper, x = RungeKutta4(), np.array(short()); "
        "integrate_const(stepper, RING, x, 0.0, 0.05, 0.01); "
        "stepper.do_step(RING, x, 0.0, 0.01)",
        "loop rk4 n=None unobserved", "step rk4 n=None"),
    "dp5 controlled list-3 adaptive, derivative not finite": (
        "refused(integrate_adaptive, ControlledStepper(DormandPrince5()), POISONED, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "walk dormand_prince_54 n=3 unobserved"),
    "euler list-3 const": (
        "integrate_const(ExplicitEuler(), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "loop euler n=3 unobserved"),
    "euler list-3 const observed": (
        "integrate_const(ExplicitEuler(), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "loop euler n=3 observed"),
    "euler list-9 const": (
        "integrate_const(ExplicitEuler(), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "loop euler n=9 unobserved"),
    "euler list-9 const observed": (
        "integrate_const(ExplicitEuler(), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "loop euler n=9 observed"),
    "euler numpy const": (
        "integrate_const(ExplicitEuler(), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "loop euler n=None unobserved"),
    "euler numpy const observed": (
        "integrate_const(ExplicitEuler(), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "loop euler n=None observed"),
    "rk4 list-3 const": (
        "integrate_const(RungeKutta4(), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "loop rk4 n=3 unobserved"),
    "rk4 list-3 const observed": (
        "integrate_const(RungeKutta4(), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "loop rk4 n=3 observed"),
    "rk4 list-9 const": (
        "integrate_const(RungeKutta4(), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "loop rk4 n=9 unobserved"),
    "rk4 list-9 const observed": (
        "integrate_const(RungeKutta4(), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "loop rk4 n=9 observed"),
    "rk4 numpy const": (
        "integrate_const(RungeKutta4(), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "loop rk4 n=None unobserved"),
    "rk4 numpy const observed": (
        "integrate_const(RungeKutta4(), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "loop rk4 n=None observed"),
    "ck54 list-3 const": (
        "integrate_const(CashKarp54(), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "loop cash_karp_54 n=3 unobserved"),
    "ck54 list-3 const observed": (
        "integrate_const(CashKarp54(), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "loop cash_karp_54 n=3 observed"),
    "ck54 list-9 const": (
        "integrate_const(CashKarp54(), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "loop cash_karp_54 n=9 unobserved"),
    "ck54 list-9 const observed": (
        "integrate_const(CashKarp54(), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "loop cash_karp_54 n=9 observed"),
    "ck54 numpy const": (
        "integrate_const(CashKarp54(), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "loop cash_karp_54 n=None unobserved"),
    "ck54 numpy const observed": (
        "integrate_const(CashKarp54(), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "loop cash_karp_54 n=None observed"),
    "dp5 list-3 const": (
        "integrate_const(DormandPrince5(), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "loop dormand_prince_54 n=3 unobserved"),
    "dp5 list-3 const observed": (
        "integrate_const(DormandPrince5(), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "loop dormand_prince_54 n=3 observed"),
    "dp5 list-9 const": (
        "integrate_const(DormandPrince5(), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "loop dormand_prince_54 n=9 unobserved"),
    "dp5 list-9 const observed": (
        "integrate_const(DormandPrince5(), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "loop dormand_prince_54 n=9 observed"),
    "dp5 numpy const": (
        "integrate_const(DormandPrince5(), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "loop dormand_prince_54 n=None unobserved"),
    "dp5 numpy const observed": (
        "integrate_const(DormandPrince5(), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "loop dormand_prince_54 n=None observed"),
    "implicit list-3 const": (
        "integrate_const(ImplicitEuler(), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "loop implicit_euler sequence unobserved", "scale_sum k=2", "scale_sum k=3"),
    "implicit list-3 const observed": (
        "integrate_const(ImplicitEuler(), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "loop implicit_euler sequence observed", "scale_sum k=2", "scale_sum k=3"),
    "implicit list-9 const": (
        "integrate_const(ImplicitEuler(), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "loop implicit_euler sequence unobserved", "scale_sum k=2", "scale_sum k=3"),
    "implicit list-9 const observed": (
        "integrate_const(ImplicitEuler(), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "loop implicit_euler sequence observed", "scale_sum k=2", "scale_sum k=3"),
    "implicit numpy const": (
        "integrate_const(ImplicitEuler(), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "loop implicit_euler numpy unobserved"),
    "implicit numpy const observed": (
        "integrate_const(ImplicitEuler(), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "loop implicit_euler numpy observed"),
    "ck54 controlled list-3 const": (
        "integrate_const(ControlledStepper(CashKarp54()), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "walk cash_karp_54 n=3 unobserved"),
    "ck54 controlled list-3 const observed": (
        "integrate_const(ControlledStepper(CashKarp54()), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "walk cash_karp_54 n=3 targets"),
    "ck54 controlled list-3 adaptive": (
        "integrate_adaptive(ControlledStepper(CashKarp54()), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "walk cash_karp_54 n=3 unobserved"),
    "ck54 controlled list-3 adaptive observed": (
        "integrate_adaptive(ControlledStepper(CashKarp54()), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "walk cash_karp_54 n=3 steps"),
    "ck54 controlled list-9 const": (
        "integrate_const(ControlledStepper(CashKarp54()), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "walk cash_karp_54 n=9 unobserved"),
    "ck54 controlled list-9 const observed": (
        "integrate_const(ControlledStepper(CashKarp54()), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "walk cash_karp_54 n=9 targets"),
    "ck54 controlled list-9 adaptive": (
        "integrate_adaptive(ControlledStepper(CashKarp54()), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "walk cash_karp_54 n=9 unobserved"),
    "ck54 controlled list-9 adaptive observed": (
        "integrate_adaptive(ControlledStepper(CashKarp54()), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "walk cash_karp_54 n=9 steps"),
    "ck54 controlled numpy const": (
        "integrate_const(ControlledStepper(CashKarp54()), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "walk cash_karp_54 n=None unobserved"),
    "ck54 controlled numpy const observed": (
        "integrate_const(ControlledStepper(CashKarp54()), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "walk cash_karp_54 n=None targets"),
    "ck54 controlled numpy adaptive": (
        "integrate_adaptive(ControlledStepper(CashKarp54()), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "walk cash_karp_54 n=None unobserved"),
    "ck54 controlled numpy adaptive observed": (
        "integrate_adaptive(ControlledStepper(CashKarp54()), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "walk cash_karp_54 n=None steps"),
    "dp5 controlled list-3 const": (
        "integrate_const(ControlledStepper(DormandPrince5()), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "walk dormand_prince_54 n=3 unobserved"),
    "dp5 controlled list-3 const observed": (
        "integrate_const(ControlledStepper(DormandPrince5()), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "walk dormand_prince_54 n=3 targets"),
    "dp5 controlled list-3 adaptive": (
        "integrate_adaptive(ControlledStepper(DormandPrince5()), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "walk dormand_prince_54 n=3 unobserved"),
    "dp5 controlled list-3 adaptive observed": (
        "integrate_adaptive(ControlledStepper(DormandPrince5()), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "walk dormand_prince_54 n=3 steps"),
    "dp5 controlled list-9 const": (
        "integrate_const(ControlledStepper(DormandPrince5()), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "walk dormand_prince_54 n=9 unobserved"),
    "dp5 controlled list-9 const observed": (
        "integrate_const(ControlledStepper(DormandPrince5()), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "walk dormand_prince_54 n=9 targets"),
    "dp5 controlled list-9 adaptive": (
        "integrate_adaptive(ControlledStepper(DormandPrince5()), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "walk dormand_prince_54 n=9 unobserved"),
    "dp5 controlled list-9 adaptive observed": (
        "integrate_adaptive(ControlledStepper(DormandPrince5()), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "walk dormand_prince_54 n=9 steps"),
    "dp5 controlled numpy const": (
        "integrate_const(ControlledStepper(DormandPrince5()), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "walk dormand_prince_54 n=None unobserved"),
    "dp5 controlled numpy const observed": (
        "integrate_const(ControlledStepper(DormandPrince5()), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "walk dormand_prince_54 n=None targets"),
    "dp5 controlled numpy adaptive": (
        "integrate_adaptive(ControlledStepper(DormandPrince5()), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "walk dormand_prince_54 n=None unobserved"),
    "dp5 controlled numpy adaptive observed": (
        "integrate_adaptive(ControlledStepper(DormandPrince5()), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "walk dormand_prince_54 n=None steps"),
    "dense list-3 const": (
        "integrate_const(DenseOutputDopri5(), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "walk dormand_prince_54 dense n=3 unobserved"),
    "dense list-3 const observed": (
        "integrate_const(DenseOutputDopri5(), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "dense n=3", "walk dormand_prince_54 dense n=3 samples"),
    "dense list-3 adaptive": (
        "integrate_adaptive(DenseOutputDopri5(), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "walk dormand_prince_54 dense n=3 unobserved"),
    "dense list-3 adaptive observed": (
        "integrate_adaptive(DenseOutputDopri5(), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "walk dormand_prince_54 dense n=3 steps"),
    "dense list-9 const": (
        "integrate_const(DenseOutputDopri5(), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "walk dormand_prince_54 dense n=9 unobserved"),
    "dense list-9 const observed": (
        "integrate_const(DenseOutputDopri5(), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "dense n=9", "walk dormand_prince_54 dense n=9 samples"),
    "dense list-9 adaptive": (
        "integrate_adaptive(DenseOutputDopri5(), RING, unrolled(), 0.0, 0.05, 0.01)",
        "copy n=9", "walk dormand_prince_54 dense n=9 unobserved"),
    "dense list-9 adaptive observed": (
        "integrate_adaptive(DenseOutputDopri5(), RING, unrolled(), 0.0, 0.05, 0.01, seen)",
        "copy n=9", "walk dormand_prince_54 dense n=9 steps"),
    "dense numpy const": (
        "integrate_const(DenseOutputDopri5(), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "walk dormand_prince_54 dense n=None unobserved"),
    "dense numpy const observed": (
        "integrate_const(DenseOutputDopri5(), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "dense n=None", "walk dormand_prince_54 dense n=None samples"),
    "dense numpy adaptive": (
        "integrate_adaptive(DenseOutputDopri5(), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "walk dormand_prince_54 dense n=None unobserved"),
    "dense numpy adaptive observed": (
        "integrate_adaptive(DenseOutputDopri5(), RING, np.array(short()), 0.0, 0.05, 0.01, seen)",
        "walk dormand_prince_54 dense n=None steps"),
    "hermite list-3 const observed": (
        "integrate_const(hermite(), RING, short(), 0.0, 0.05, 0.01, seen)",
        "copy n=3", "dense n=3", "walk bogacki_shampine_32 dense n=3 samples"),
    "rk4x2 controlled list-3 adaptive": (
        "integrate_adaptive(ControlledStepper(EmbeddedRungeKutta(RK4X2_FSAL)), RING, short(), 0.0, 0.05, 0.01)",
        "copy n=3", "walk rk4x2_fsal n=3 unobserved"),
    "euler list-3 do_step": (
        "ExplicitEuler().do_step(RING, short(), 0.0, 0.01)",
        "copy n=3", "step euler n=3"),
    "euler list-9 do_step": (
        "ExplicitEuler().do_step(RING, unrolled(), 0.0, 0.01)",
        "copy n=9", "step euler n=9"),
    "euler numpy do_step": (
        "ExplicitEuler().do_step(RING, np.array(short()), 0.0, 0.01)",
        "step euler n=None"),
    "rk4 list-3 do_step": (
        "RungeKutta4().do_step(RING, short(), 0.0, 0.01)",
        "copy n=3", "step rk4 n=3"),
    "rk4 list-9 do_step": (
        "RungeKutta4().do_step(RING, unrolled(), 0.0, 0.01)",
        "copy n=9", "step rk4 n=9"),
    "rk4 numpy do_step": (
        "RungeKutta4().do_step(RING, np.array(short()), 0.0, 0.01)",
        "step rk4 n=None"),
    "ck54 list-3 do_step": (
        "CashKarp54().do_step(RING, short(), 0.0, 0.01)",
        "copy n=3", "step cash_karp_54 n=3"),
    "ck54 list-9 do_step": (
        "CashKarp54().do_step(RING, unrolled(), 0.0, 0.01)",
        "copy n=9", "step cash_karp_54 n=9"),
    "ck54 numpy do_step": (
        "CashKarp54().do_step(RING, np.array(short()), 0.0, 0.01)",
        "step cash_karp_54 n=None"),
    "dp5 list-3 do_step": (
        "DormandPrince5().do_step(RING, short(), 0.0, 0.01)",
        "copy n=3", "step dormand_prince_54 n=3"),
    "dp5 list-9 do_step": (
        "DormandPrince5().do_step(RING, unrolled(), 0.0, 0.01)",
        "copy n=9", "step dormand_prince_54 n=9"),
    "dp5 numpy do_step": (
        "DormandPrince5().do_step(RING, np.array(short()), 0.0, 0.01)",
        "step dormand_prince_54 n=None"),
    "implicit list-3 do_step": (
        "ImplicitEuler().do_step(RING, short(), 0.0, 0.01)",
        "copy n=3", "scale_sum k=2", "scale_sum k=3", "step implicit_euler sequence"),
    "implicit list-9 do_step": (
        "ImplicitEuler().do_step(RING, unrolled(), 0.0, 0.01)",
        "copy n=9", "scale_sum k=2", "scale_sum k=3", "step implicit_euler sequence"),
    "implicit numpy do_step": (
        "ImplicitEuler().do_step(RING, np.array(short()), 0.0, 0.01)",
        "step implicit_euler numpy"),
    "symplectic list-1 do_step": (
        "pair = PairState([1.0], [0.0]); "
        "SymplecticEuler().do_step(OSCILLATOR, pair, 0.0, 0.01, out=pair)",
        "copy n=1", "kick_drift n=1"),
    "symplectic list-3 do_step": (
        "SymplecticEuler().do_step(OSCILLATOR, PairState(short(), short()), 0.0, 0.01)",
        "copy n=3", "kick_drift n=3"),
    "symplectic list-9 do_step": (
        "SymplecticEuler().do_step(OSCILLATOR, PairState(unrolled(), unrolled()), 0.0, 0.01)",
        "copy n=9", "kick_drift n=9"),
    "symplectic numpy do_step": (
        "SymplecticEuler().do_step(OSCILLATOR, PairState(np.array(short()), np.array(short())), 0.0, 0.01)",
        "kick_drift n=None"),
    "ck54 controlled list-3 try_step": (
        "ControlledStepper(CashKarp54()).try_step(RING, short(), 0.0, 0.01)",
        "copy n=3", "trial cash_karp_54 n=3"),
    "ck54 controlled list-9 try_step": (
        "ControlledStepper(CashKarp54()).try_step(RING, unrolled(), 0.0, 0.01)",
        "copy n=9", "trial cash_karp_54 n=9"),
    "ck54 controlled numpy try_step": (
        "ControlledStepper(CashKarp54()).try_step(RING, np.array(short()), 0.0, 0.01)",
        "trial cash_karp_54 n=None"),
    "dp5 controlled list-3 try_step": (
        "ControlledStepper(DormandPrince5()).try_step(RING, short(), 0.0, 0.01)",
        "copy n=3", "trial dormand_prince_54 n=3"),
    "dp5 controlled list-9 try_step": (
        "ControlledStepper(DormandPrince5()).try_step(RING, unrolled(), 0.0, 0.01)",
        "copy n=9", "trial dormand_prince_54 n=9"),
    "dp5 controlled numpy try_step": (
        "ControlledStepper(DormandPrince5()).try_step(RING, np.array(short()), 0.0, 0.01)",
        "trial dormand_prince_54 n=None"),
    "dense list-3 try_step": (
        "DenseOutputDopri5().try_step(RING, short(), 0.0, 0.01)",
        "copy n=3", "trial dormand_prince_54 dense n=3"),
    "dense list-9 try_step": (
        "DenseOutputDopri5().try_step(RING, unrolled(), 0.0, 0.01)",
        "copy n=9", "trial dormand_prince_54 dense n=9"),
    "dense numpy try_step": (
        "DenseOutputDopri5().try_step(RING, np.array(short()), 0.0, 0.01)",
        "trial dormand_prince_54 dense n=None"),
    "dense list-3 calc_state": (
        "dense = DenseOutputDopri5(); "
        "dense.initialize(short(), 0.0, 0.01); "
        "dense.calc_state(dense.do_step(RING)[1])",
        "copy n=3", "dense n=3", "trial dormand_prince_54 dense n=3"),
    "dense list-9 calc_state": (
        "dense = DenseOutputDopri5(); "
        "dense.initialize(unrolled(), 0.0, 0.01); "
        "dense.calc_state(dense.do_step(RING)[1])",
        "copy n=9", "dense n=9", "trial dormand_prince_54 dense n=9"),
    "dense numpy calc_state": (
        "dense = DenseOutputDopri5(); "
        "dense.initialize(np.array(short()), 0.0, 0.01); "
        "dense.calc_state(dense.do_step(RING)[1])",
        "dense n=None", "trial dormand_prince_54 dense n=None"),
    "euler replaced list-3 const": (
        "integrate_const(ExplicitEuler(Replaced()), RING, short(), 0.0, 0.05, 0.01)",
        "loop euler n=None unobserved", "scale_sum k=1", "scale_sum k=2"),
    "rk4 replaced list-3 do_step": (
        "RungeKutta4(Replaced()).do_step(RING, short(), 0.0, 0.01)",
        "scale_sum k=2", "scale_sum k=5", "step rk4 n=None"),
    "implicit replaced numpy const": (
        "integrate_const(ImplicitEuler(NumpyReplaced()), RING, np.array(short()), 0.0, 0.05, 0.01)",
        "loop implicit_euler numpy kernels unobserved"),
    "symplectic replaced list-3 do_step": (
        "SymplecticEuler(Replaced()).do_step(OSCILLATOR, PairState(short(), short()), 0.0, 0.01)",
        "kick_drift n=None", "scale_sum k=2"),
    "dp5 controlled replaced list-3 adaptive": (
        "integrate_adaptive(ControlledStepper(DormandPrince5(), algebra=Replaced()), RING, short(), 0.0, 0.05, 0.01)",
        "ratio n=3", "scale_sum k=1", "scale_sum k=2", "scale_sum k=3", "scale_sum k=4", "scale_sum k=5",
        "scale_sum k=6", "walk dormand_prince_54 n=None unobserved"),
    "dp5 controlled replaced list-3 try_step": (
        "ControlledStepper(DormandPrince5(), algebra=Replaced()).try_step(RING, short(), 0.0, 0.01)",
        "ratio n=3", "scale_sum k=1", "scale_sum k=2", "scale_sum k=3", "scale_sum k=4", "scale_sum k=5",
        "scale_sum k=6", "trial dormand_prince_54 n=None"),
    "dense replaced list-3 const observed": (
        "integrate_const(DenseOutputDopri5(algebra=Replaced()), RING, short(), 0.0, 0.05, 0.01, seen)",
        "dense n=None", "ratio n=3", "scale_sum k=1", "scale_sum k=2", "scale_sum k=3", "scale_sum k=4",
        "scale_sum k=5", "scale_sum k=6", "walk dormand_prince_54 dense n=None samples"),
}


def compiled(name):
    """``{key: source}`` of every key that row ``name`` compiles, run in
    this interpreter from no ``odekit`` module and no ``<odekit`` key."""
    for module in [module for module in sys.modules if module.split(".")[0] == "odekit"]:
        del sys.modules[module]
    for key in [key for key in linecache.cache if key.startswith("<odekit ")]:
        del linecache.cache[key]
    exec(PRELUDE + SCENARIOS[name][0], {})
    return {key[len("<odekit "):-1]: "".join(linecache.cache[key][2])
            for key in linecache.cache if key.startswith("<odekit ")}


def path(key):
    """The golden file of ``key``."""
    return HERE / f"{key.replace(' ', '-')}.py"


def regenerate():
    """``{name: {key: source}}`` for every row."""
    return {name: compiled(name) for name in SCENARIOS}


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sources, differ = {}, []
    for name, keys in regenerate().items():
        if sorted(keys) != sorted(SCENARIOS[name][1:]):
            differ.append(f"{name}: compiles {', '.join(sorted(keys))}")
        for key, text in keys.items():
            if sources.setdefault(key, text) != text:
                differ.append(f"{name}: another source under {key}")
    for stale in set(HERE.glob("*.py")) - {HERE / "scenarios.py", *map(path, sources)}:
        stale.unlink()
    for key, text in sources.items():
        path(key).write_text(text)
    print(f"{len(sources)} sources written", *differ, sep="\n")
    sys.exit(1 if differ else 0)
