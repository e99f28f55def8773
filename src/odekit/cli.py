"""Command line front end: integrate, order, bench.

``integrate`` writes a CSV trajectory observed on a uniform grid,
``order`` prints a dt/error table with the fitted convergence slope,
and ``bench`` prints the step and evaluation counters of one or more
steppers on the same problem.  Exit codes: 0 on success, 1 on usage
errors, 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from .controlled import ControlledStepper, ControllerParams
from .dense import DenseOutputDopri5
from .errors import SolverError
from .explicit import CashKarp54, DormandPrince5, ExplicitEuler, RungeKutta4
from .implicit import ImplicitEuler
from .integrate import integrate_const
from .systems import get_system, order_study

# Name -> factory taking the controller parameters.
STEPPERS = {
    "euler": lambda params: ExplicitEuler(),
    "rk4": lambda params: RungeKutta4(),
    "implicit_euler": lambda params: ImplicitEuler(),
    "ck54": lambda params: ControlledStepper(CashKarp54(), params),
    "dopri5": lambda params: ControlledStepper(DormandPrince5(), params),
    "dopri5_dense": DenseOutputDopri5,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with status 1 and one stderr line on
    usage errors."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fmt(value):
    return f"{value:.17g}"


def _finite(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _make_stepper(name, params=None):
    if name not in STEPPERS:
        raise ValueError(f"unknown stepper '{name}' (choose from: {', '.join(STEPPERS)})")
    return STEPPERS[name](params)


def _parse_x0(text, system):
    if text is None:
        return list(system.default_state)
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse initial state '{text}'") from None
    if len(values) != system.dimension:
        raise ValueError(
            f"system '{system.name}' needs {system.dimension} components, got {len(values)}"
        )
    return values


def _cmd_integrate(args):
    system = get_system(args.system)
    stepper = _make_stepper(args.stepper, ControllerParams(atol=args.atol, rtol=args.rtol))
    x0 = _parse_x0(args.x0, system)
    out = None

    def observer(x, t):
        nonlocal out
        if out is None:  # the driver's call at t0, once it accepted the run
            out = files.enter_context(open(args.out, "w", newline="")) if args.out else sys.stdout
            out.write("t," + ",".join(f"x{i}" for i in range(system.dimension)) + "\n")
        out.write(_fmt(t) + "," + ",".join(_fmt(v) for v in x) + "\n")

    with contextlib.ExitStack() as files:
        integrate_const(stepper, system, x0, args.t0, args.t1, args.dt, observer)
    return 0


def _cmd_order(args):
    system = get_system(args.system)
    stepper = _make_stepper(args.stepper)
    x0 = None if args.x0 is None else _parse_x0(args.x0, system)
    dts = [args.dt * 0.5**k for k in range(args.levels)]
    study = order_study(stepper, system, x0, args.t0, args.t1, dts)
    excluded = set(study.excluded)
    print("dt,error,status")
    for d, e in zip(study.dts, study.errors):
        dropped = "underflow" if math.isfinite(e) else "not finite"
        status = dropped if (d, e) in excluded else "used"
        print(f"{_fmt(d)},{_fmt(e)},{status}")
    print(f"slope,{_fmt(study.slope)}")
    return 0


def _cmd_bench(args):
    system = get_system(args.system)
    names = [n.strip() for n in args.stepper.split(",") if n.strip()]
    if not names:
        raise ValueError("no stepper names given")
    params = ControllerParams(atol=args.atol, rtol=args.rtol)
    steppers = [(name, _make_stepper(name, params)) for name in names]
    x0 = _parse_x0(args.x0, system)
    for name, stepper in steppers:
        report = integrate_const(stepper, system, x0, args.t0, args.t1, args.dt)
        if stepper is steppers[0][1]:  # the driver accepted the first run
            print("stepper,steps_attempted,steps_accepted,steps_rejected,system_evaluations")
        print(
            f"{name},{report.steps_attempted},{report.steps_accepted},"
            f"{report.steps_rejected},{report.system_evaluations}"
        )
    return 0


def _add_shared(parser, t1_default=None, tolerances=True):
    parser.add_argument("--system", required=True, help="system name")
    parser.add_argument("--stepper", required=True, help="stepper name")
    parser.add_argument("--t0", type=_finite, default=0.0)
    parser.add_argument(
        "--t1", type=_finite, required=t1_default is None, default=t1_default
    )
    if tolerances:
        parser.add_argument("--atol", type=_finite, default=1e-6)
        parser.add_argument("--rtol", type=_finite, default=1e-6)
    parser.add_argument("--x0", help="comma separated initial state")


def build_parser():
    parser = _Parser(prog="odekit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="write an observed CSV trajectory")
    _add_shared(p_int)
    p_int.add_argument("--dt", type=_finite, required=True, help="observation grid width")
    p_int.add_argument("--out", help="output file (default: stdout)")
    p_int.set_defaults(func=_cmd_integrate)

    p_ord = sub.add_parser("order", help="fit the observed convergence order")
    _add_shared(p_ord, t1_default=1.0, tolerances=False)
    p_ord.add_argument("--dt", type=_finite, default=0.2, help="coarsest step width")
    p_ord.add_argument("--levels", type=int, default=5, help="number of halvings")
    p_ord.set_defaults(func=_cmd_order)

    p_ben = sub.add_parser("bench", help="print step and evaluation counters")
    _add_shared(p_ben)
    p_ben.add_argument("--dt", type=_finite, required=True, help="observation grid width")
    p_ben.set_defaults(func=_cmd_bench)

    return parser


def run_cli(argv=None):
    """Parse arguments and run; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input, or an --out path that cannot be opened
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SolverError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


def main():
    sys.exit(run_cli())
