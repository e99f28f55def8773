"""Command line interface: golden equivalence with the library, exit codes."""

import math
import subprocess
import sys

import pytest

from odekit import (
    STIFF2,
    ControlledStepper,
    ControllerParams,
    DormandPrince5,
    ExplicitEuler,
    ImplicitEuler,
    get_system,
    integrate_const,
)
from odekit.cli import STEPPERS, run_cli


def run_proc(*args):
    return subprocess.run(
        [sys.executable, "-m", "odekit", *args],
        capture_output=True,
        text=True,
    )


def test_integrate_euler_matches_library(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run_cli([
        "integrate", "--system", "expdecay", "--stepper", "euler",
        "--t0", "0", "--t1", "1", "--dt", "0.25", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x0"

    rows = []
    system = get_system("expdecay")
    integrate_const(
        ExplicitEuler(), system, list(system.default_state), 0.0, 1.0, 0.25,
        lambda x, t: rows.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in x)),
    )
    assert lines[1:] == rows


def test_integrate_writes_stdout_by_default(capsys):
    code = run_cli([
        "integrate", "--system", "harmonic", "--stepper", "rk4",
        "--t1", "1", "--dt", "0.5",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "t,x0,x1"
    assert len(lines) == 4  # header + t=0,0.5,1
    assert lines[1].startswith("0,1,0")


def test_integrate_output_is_byte_stable():
    args = ("integrate", "--system", "lorenz", "--stepper", "dopri5",
            "--t1", "2", "--dt", "0.5")
    a = run_proc(*args)
    b = run_proc(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert len(a.stdout.splitlines()) == 6


def test_integrate_dense_stepper_grid(capsys):
    code = run_cli([
        "integrate", "--system", "expdecay", "--stepper", "dopri5_dense",
        "--t1", "1", "--dt", "0.2",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.splitlines()) == 7


def test_integrate_custom_x0(capsys):
    code = run_cli([
        "integrate", "--system", "expdecay", "--stepper", "euler",
        "--t1", "0.5", "--dt", "0.5", "--x0", "4.0",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[1].startswith("0,4")


def test_order_rk4_slope_in_band(capsys):
    code = run_cli(["order", "--system", "expdecay", "--stepper", "rk4"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "dt,error,status"
    label, value = lines[-1].split(",")
    assert label == "slope"
    assert 3.8 <= float(value) <= 4.2


def test_order_euler_slope(capsys):
    code = run_cli(["order", "--system", "expdecay", "--stepper", "euler",
                    "--dt", "0.1", "--levels", "4"])
    captured = capsys.readouterr()
    assert code == 0
    value = float(captured.out.splitlines()[-1].split(",")[1])
    assert 0.9 <= value <= 1.1


@pytest.mark.parametrize("name", list(STEPPERS))
def test_order_fits_the_scheme_under_every_stepper(name, capsys):
    # Controlled and dense steppers are studied through the scheme
    # they wrap, the one their ``stepper`` attribute holds.
    code = run_cli(["order", "--system", "expdecay", "--stepper", name])
    assert code == 0
    label, value = capsys.readouterr().out.splitlines()[-1].split(",")
    stepper = STEPPERS[name](None)
    assert label == "slope"
    assert abs(float(value) - getattr(stepper, "stepper", stepper).order) <= 0.3


def test_order_fits_two_levels(capsys):
    assert run_cli(["order", "--system", "expdecay", "--stepper", "rk4", "--levels", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4 and rows[-1].startswith("slope,")
    assert 3.8 <= float(rows[-1].split(",")[1]) <= 4.4


@pytest.mark.parametrize("name", ["dopri5", "dopri5_dense", "rk4"])
def test_integrate_that_cannot_move_t_exits_2(name):
    # Near 1e16 floats are 2 apart: once the controller settles on a
    # width below 1, t stops moving and the run must end; a fixed
    # width of 0.01 never moves it, so only the start is written.
    system, dt = ("harmonic", "0.01") if name == "rk4" else ("lorenz", "16")
    proc = subprocess.run(
        [sys.executable, "-m", "odekit", "integrate", "--system", system, "--stepper", name,
         "--t0", "1e16", "--t1", "1.0000000000000064e16", "--dt", dt],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert "step size underflow at t=1e+16" in proc.stderr
    if name == "rk4":
        assert proc.stdout.splitlines() == ["t,x0,x1", "10000000000000000,1,0"]


def test_order_rejects_system_without_exact(capsys):
    code = run_cli(["order", "--system", "lorenz", "--stepper", "rk4"])
    assert code == 1
    assert "choose from: expdecay, harmonic, stiff2" in capsys.readouterr().err


def test_bench_lists_counters(capsys):
    code = run_cli([
        "bench", "--system", "harmonic", "--stepper", "rk4,dopri5",
        "--t1", "2", "--dt", "0.5",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "stepper,steps_attempted,steps_accepted,steps_rejected,system_evaluations"
    assert len(lines) == 3
    rk4_row = lines[1].split(",")
    assert rk4_row[0] == "rk4"
    assert rk4_row[4] == "16"  # 4 steps x 4 stages

    system = get_system("harmonic")
    ctl = ControlledStepper(DormandPrince5(), ControllerParams(atol=1e-6, rtol=1e-6))
    report = integrate_const(ctl, system, list(system.default_state), 0.0, 2.0, 0.5)
    dp_row = lines[2].split(",")
    assert int(dp_row[1]) == report.steps_attempted
    assert int(dp_row[4]) == report.system_evaluations



def test_bench_implicit_row_matches_a_direct_run(capsys):
    code = run_cli([
        "bench", "--system", "stiff2", "--stepper", "implicit_euler",
        "--t1", "1", "--dt", "0.1",
    ])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    report = integrate_const(ImplicitEuler(), STIFF2, [1.0, 1.0], 0.0, 1.0, 0.1)
    assert row == ["implicit_euler", "10", "10", "0", str(report.system_evaluations)]


SHARED = ["--system", "expdecay", "--stepper", "rk4"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["integrate", *SHARED, "--t1", "1", "--dt", "0.1", "--atol", "-1"], "tolerances"),
        (["bench", *SHARED, "--t1", "1", "--dt", "0.1", "--rtol", "-1"], "tolerances"),
        (["order", *SHARED, "--dt", "0.3", "--levels", "3"], "does not divide"),
        (["order", *SHARED, "--t0", "2"], "end time must exceed start time"),
        (["order", *SHARED, "--levels", "40"], "steps, more than 1000000"),
        (["order", *SHARED, "--dt", "0"], "step widths must be positive"),
        (["integrate", *SHARED, "--t1", "inf", "--dt", "0.1"], "not a finite number"),
        (["integrate", *SHARED, "--t1", "abc", "--dt", "0.1"], "not a finite number"),
        (["bench", "--system", "expdecay", "--stepper", ",", "--t1", "1", "--dt", "0.1"],
         "no stepper names given"),
        (["integrate", "--system", "harmonic"], "required"),
        (["order", *SHARED, "--atol", "1e-3"], "unrecognized arguments: --atol"),
        (["integrate", *SHARED, "--t1", "1", "--dt", "0.5", "--out", "/no/such/dir/f.csv"],
         "No such file or directory"),
    ]
    + [
        ([command, *SHARED, "--t1", "1", "--dt", "0.1", *bad], reason)
        for command in ("integrate", "bench")
        for bad, reason in [
            (["--x0", "nan"], "initial state is not finite"),
            (["--x0", "inf"], "initial state is not finite"),
            (["--t0", "2"], "end time must exceed start time"),
            (["--dt", "-0.1"], "width must be positive"),
        ]
    ],
)
def test_usage_error_is_one_stderr_line(argv, reason, capsys):
    # The library checks every bound and state; nothing reaches stdout
    # before it accepts the run.
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert reason in captured.err and "Traceback" not in captured.err


def test_refused_integrate_creates_no_output_file(tmp_path):
    out = tmp_path / "refused.csv"
    argv = ["integrate", *SHARED, "--t1", "1", "--dt", "0.5", "--x0", "nan", "--out", str(out)]
    assert run_cli(argv) == 1
    assert not out.exists()


def test_order_marks_non_finite_errors(capsys):
    # Explicit Euler blows up on the stiff pair; its NaN errors are
    # listed as dropped, not fitted.
    assert run_cli(["order", "--system", "stiff2", "--stepper", "euler"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert rows and all(
        status == ("used" if math.isfinite(float(error)) else "not finite")
        for _, error, status in rows
    )
    assert any(status == "not finite" for _, _, status in rows)


def test_unknown_system_lists_options():
    proc = run_proc("integrate", "--system", "nosuch", "--stepper", "rk4",
                    "--t1", "1", "--dt", "0.1")
    assert proc.returncode == 1
    for name in ("expdecay", "harmonic", "lorenz", "stiff2"):
        assert name in proc.stderr


def test_unknown_stepper_rejected():
    proc = run_proc("integrate", "--system", "harmonic", "--stepper", "rk9",
                    "--t1", "1", "--dt", "0.1")
    assert proc.returncode == 1
    assert "rk9" in proc.stderr


def test_malformed_x0_rejected():
    assert run_cli(["integrate", "--system", "harmonic", "--stepper", "rk4",
                    "--t1", "1", "--dt", "0.1", "--x0", "a,b"]) == 1
    assert run_cli(["integrate", "--system", "harmonic", "--stepper", "rk4",
                    "--t1", "1", "--dt", "0.1", "--x0", "1.0"]) == 1


def test_missing_arguments_exit_one():
    proc = run_proc("integrate", "--system", "harmonic")
    assert proc.returncode == 1


def test_unknown_subcommand_exit_one():
    proc = run_proc("frobnicate")
    assert proc.returncode == 1


def test_numerical_failure_exits_two():
    proc = run_proc(
        "integrate", "--system", "lorenz", "--stepper", "dopri5",
        "--t1", "1", "--dt", "0.5", "--atol", "1e-30", "--rtol", "1e-30",
    )
    assert proc.returncode == 2
    assert "numerical failure" in proc.stderr
