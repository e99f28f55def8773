"""Generated code as a reader sees it: every run of the scenario table
(``tests/generated/scenarios.py``) compiles the keys of its row, each
the source of its golden file; every generated function is compiled
under a file name that names its generator and key, so a traceback
shows the generated line and ``inspect`` finds the source; states read
twice or more are held in locals, and that changes no bit on any
shipped tableau, length or special value; the sequence copy still
turns a user's ints into floats."""

import ast
import cProfile
import dis
import inspect
import json
import linecache
import math
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

import odekit
from odekit import (
    CashKarp54,
    ControlledStepper,
    ControllerParams,
    DenseOutputDopri5,
    DormandPrince5,
    ExplicitEuler,
    ImplicitEuler,
    JacobianSystem,
    LORENZ,
    RungeKutta4,
    SolverError,
    integrate_adaptive,
    integrate_const,
)
from odekit.algebra import NUMPY_ALGEBRA, SEQUENCE_ALGEBRA, UNROLL, _sequence_copy
from odekit.controlled import _trial_code
from odekit.dense import _dense_code
from odekit.explicit import EmbeddedRungeKutta, ExplicitRungeKutta, _step_code
from odekit.integrate import _fixed_code, _walk_code
from odekit.tableaus import CASH_KARP_54, DORMAND_PRINCE_54, EULER, RK4_CLASSIC
from generated import scenarios
from reference import hexes, reference_run
from test_properties import DelegatingNumpy, GeneralAlgebra, ReferenceController, delegating, stage_loop

X3 = [1.0, -0.5, 0.25]


def lorenz(x, dxdt, t):
    dxdt[0] = 10.0 * (x[1] - x[0])
    dxdt[1] = 28.0 * x[0] - x[1] - x[0] * x[2]
    dxdt[2] = -8.0 / 3.0 * x[2] + x[0] * x[1]


def raising_on(call):
    """Lorenz that raises ``ValueError`` on its ``call``-th call."""
    calls = []

    def rhs(x, dxdt, t):
        calls.append(t)
        if len(calls) == call:
            raise ValueError("the rhs gives up")
        lorenz(x, dxdt, t)

    return rhs


def generated_frame(run):
    """The innermost traceback frame of generated code when ``run()`` raises."""
    with pytest.raises(ValueError) as info:
        run()
    frames = [f for f in traceback.extract_tb(info.value.__traceback__) if f.filename.startswith("<odekit ")]
    assert frames, "no generated frame in the traceback"
    return frames[-1], "".join(traceback.format_exception(info.value))


def two_steps(stepper, rhs):
    # The first binds through the class method, the second runs the entry.
    x = list(X3)
    for _ in range(2):
        stepper.do_step(rhs, x, 0.0, 0.01)


def observer_raising(x, t):
    if t > 0.0:
        raise ValueError("the observer gives up")


# --- file names --------------------------------------------------------------


RAISING_RUNS = {
    # name: (run, file name, function, line shown)
    "walk": (lambda: integrate_adaptive(ControlledStepper(DormandPrince5()), raising_on(3), list(X3), 0.0, 1.0, 0.01,
                                        lambda x, t: None),
             "<odekit walk dormand_prince_54 n=3 steps>", "walk", "system(u, k2, t + 0.3 * dt)"),
    "fixed-loop": (lambda: integrate_const(ExplicitEuler(), raising_on(3), list(X3), 0.0, 1.0, 0.01),
                   "<odekit loop euler n=3 unobserved>", "loop", "system(x, k0, t)"),
    "try_step": (lambda: ControlledStepper(CashKarp54()).try_step(raising_on(2), list(X3), 0.0, 0.01),
                 "<odekit trial cash_karp_54 n=3>", "one", "system(u, k1, t + 0.2 * dt)"),
    "do_step-entry": (lambda: two_steps(RungeKutta4(), raising_on(6)),
                      "<odekit step rk4 n=3>", "entry", "system(u, k1, t + w1)"),
    "sampler": (lambda: integrate_const(DenseOutputDopri5(), lorenz, list(X3), 0.0, 1.0, 0.01, observer_raising),
                "<odekit dense n=3>", "sample", "observer(s, t)"),
    "newton-loop": (lambda: integrate_const(ImplicitEuler(), JacobianSystem(raising_on(3), LORENZ.jacobian),
                                            np.array(X3), 0.0, 1.0, 0.01),
                    "<odekit loop implicit_euler numpy unobserved>", "loop", "system(u, f, t_new)"),
    "newton-do_step": (lambda: ImplicitEuler().do_step(JacobianSystem(raising_on(2), LORENZ.jacobian), list(X3), 0.0,
                                                       0.01),
                       "<odekit step implicit_euler sequence>", "step", "system(u, f, t_new)"),
}


@pytest.mark.parametrize("name", sorted(RAISING_RUNS))
def test_a_traceback_names_the_generator_and_shows_the_generated_line(name):
    run, filename, function, line = RAISING_RUNS[name]
    frame, text = generated_frame(run)
    assert (frame.filename, frame.name, frame.line) == (filename, function, line)
    assert f'File "{filename}", line {frame.lineno}, in {function}\n    {line}\n' in text
    # Kept out of checkcache's eviction, as a file with no mtime.
    linecache.checkcache()
    assert linecache.getline(filename, frame.lineno).strip() == line


def test_inspect_finds_the_source_of_generated_functions():
    controller, x = ControlledStepper(DormandPrince5()), list(X3)
    bound = controller._record(x)
    walk = _walk_code(bound.pieces, "steps")(*bound.args)
    source = inspect.getsource(walk)
    assert source.lstrip().startswith("def walk(stepper, system, x, t, targets, dt_next, observer, sample, snap):")
    assert "system(u, k6, t + dt)" in source
    assert inspect.getsourcefile(walk) == "<odekit walk dormand_prince_54 n=3 steps>"

    stepper = ExplicitEuler()
    stepper.do_step(lorenz, x, 0.0, 0.01)
    entry = stepper.do_step
    assert inspect.getsource(entry).lstrip().startswith("def entry(system, x, t, dt, out=None):")
    bound = stepper._record(x)
    assert "target[2] = x_2 + w0 * k0_2" in inspect.getsource(_fixed_code(bound.pieces, False)(*bound.args))

    # Implicit Euler's residual: the ufunc calls of numpy's own kernel, a
    # kernel call where scale_sum is replaced.
    for algebra, line in ((None, "add(g, multiply(f, -dt), out=g)"),
                          (DelegatingNumpy(), "K3(g, (1.0, -1.0, -dt), (u, x, f))")):
        bound = ImplicitEuler(algebra)._record(np.ones(32))
        source = inspect.getsource(_fixed_code(bound.pieces, True)(*bound.args))
        assert f"        {line}\n" in source and "evaluations += 1" in source


def test_two_sources_under_one_key_get_two_file_names():
    # Trials around two pairs of the user's share a key; each file name
    # keeps its own source: only the first-same-as-last pair's hands
    # its new derivative over.
    names = []
    for pair in (DormandPrince5, CashKarp54):
        stepper = ControlledStepper(delegating(pair)())
        stepper.try_step(lorenz, list(X3), 0.0, 0.01)
        one = stepper._record(list(X3)).step()  # the entry, compiled on the first try_step
        names.append(one.__code__.co_filename)
        assert ("new_derivative" in inspect.getsource(one)) == (pair is DormandPrince5)
    assert names[0] != names[1]
    assert all(re.fullmatch(r"<odekit trial pair n=3( #\d+)?>", name) for name in names)
    # The shipped dense trial's name, from a fresh interpreter: in this one, a test that compiled a dense trial
    # on another tableau named dormand_prince_54 would hold the plain name and leave this trial the " #1" one.
    assert fresh("import json\nfrom odekit import LORENZ, DenseOutputDopri5\ndense = DenseOutputDopri5()\n"
                 f"dense.try_step(LORENZ, {X3}, 0.0, 0.01)\n"
                 f"print(json.dumps(dense._record({X3}).step().__code__.co_filename))") \
        == "<odekit trial dormand_prince_54 dense n=3>"


# A driver's run in a fresh interpreter, then a manual call of the entry
# it never ran, on an rhs that raises on its second call: (run, manual
# call, file name, function, line shown).
LAZY_RUNS = {
    "dp5-adaptive": ("integrate_adaptive(ControlledStepper(DormandPrince5()), LORENZ, [1.0, 2.0, 20.0], 0.0, 0.5, 0.01)",
                     "ControlledStepper(DormandPrince5()).try_step(raising(LORENZ), [1.0, 2.0, 20.0], 0.0, 0.01)",
                     "<odekit trial dormand_prince_54 n=3>", "one", "system(u, k1, t + 0.2 * dt)"),
    "dense-const": ("integrate_const(DenseOutputDopri5(), LORENZ, [1.0, 2.0, 20.0], 0.0, 0.5, 0.01, lambda x, t: None)",
                    "DenseOutputDopri5().try_step(raising(LORENZ), [1.0, 2.0, 20.0], 0.0, 0.01)",
                    "<odekit trial dormand_prince_54 dense n=3>", "one", "system(u, k1, t + 0.2 * dt)"),
    "implicit-const": ("integrate_const(ImplicitEuler(), STIFF2, np.array([1.0, 0.5]), 0.0, 0.5, 0.01)",
                       "ImplicitEuler().do_step(JacobianSystem(raising(STIFF2), STIFF2.jacobian), np.ones(2), 0.0, 0.1)",
                       "<odekit step implicit_euler numpy>", "step", "system(u, f, t_new)"),
}
LAZY_PROBE = """
import json, linecache, sys, traceback
import numpy as np
from odekit import *
def raising(system):
    calls = []
    def rhs(x, dxdt, t):
        calls.append(t)
        if len(calls) == 2:
            raise ValueError("the rhs gives up")
        system(x, dxdt, t)
    return rhs
{run}
dataclasses = "dataclasses" in sys.modules
try:
    {manual}
except ValueError as exc:
    frame = [f for f in traceback.extract_tb(exc.__traceback__) if f.filename.startswith("<odekit ")][-1]
    shown = linecache.getline(frame.filename, frame.lineno).strip()
print(json.dumps([dataclasses, [frame.filename, frame.name, frame.line, shown]]))
"""


def fresh(code):
    """The JSON that ``code`` prints last, run in a fresh interpreter on this package."""
    paths = [str(Path(odekit.__file__).parent.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def regenerated():
    """``{row: {key: source}}`` for every row of the scenario table, in one fresh interpreter."""
    return fresh(f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                 "from generated import scenarios; print(json.dumps(scenarios.regenerate()))")


@pytest.mark.parametrize("name", list(scenarios.SCENARIOS))
def test_a_run_compiles_the_keys_of_its_row_each_the_source_of_its_golden_file(name, regenerated):
    # After a change to generated code, `python tests/generated/scenarios.py` rewrites the golden files;
    # a row's keys are edited by hand.
    keys = regenerated[name]
    assert sorted(keys) == sorted(scenarios.SCENARIOS[name][1:])
    for key, text in keys.items():
        assert scenarios.path(key).read_text() == text, key


def test_every_golden_file_is_the_source_of_a_key_of_a_row():
    files = set(scenarios.HERE.glob("*.py")) - {scenarios.HERE / "scenarios.py"}
    assert files == {scenarios.path(key) for row in scenarios.SCENARIOS.values() for key in row[1:]}


def test_a_golden_make_binds_exactly_the_kernels_its_body_calls():
    # The names on a make's `= map(kernel, ...)` line are the K<k>( calls below it, no more and no fewer.
    wrong = []
    for path in sorted(set(scenarios.HERE.glob("*.py")) - {scenarios.HERE / "scenarios.py"}):
        lines = path.read_text().splitlines()
        binds = [line for line in lines if " = map(kernel, " in line]
        bound = re.findall(r"\bK\d+\b", binds[0].split(" = ")[0]) if binds else []
        called = set(re.findall(r"\b(K\d+)\(", "\n".join(line for line in lines if line not in binds)))
        if len(binds) > 1 or sorted(bound) != sorted(called):
            wrong.append(path.name)
    assert not wrong, f"{len(wrong)} makes bind other kernels than they call: {', '.join(wrong)}"


def test_no_golden_binds_a_name_and_no_explicit_step_binds_a_coefficient():
    # Each coefficient c<j> and product w<i> is bound on a line of its own, never
    # in a tuple; a coefficient that is already a name is read as it is; an
    # explicit step reads each product of dt by its name w<i>, bound per width or call.
    binds, bare, explicit, tupled = 0, [], [], []
    for path in sorted(set(scenarios.HERE.glob("*.py")) - {scenarios.HERE / "scenarios.py"}):
        stepping = path.name.startswith(("loop-", "step-")) and "implicit_euler" not in path.name
        for line in path.read_text().splitlines():
            if re.match(r" *(?:[cw]\d+, )+(?:[cw]\d+)?=", line):
                tupled.append(path.name)
            bind = re.fullmatch(r" *([cw])\d+ = (.*)", line)
            binds += bool(bind)
            if bind and bind[2].isidentifier():
                bare.append(path.name)
            if bind and bind[1] == "c" and stepping:
                explicit.append(path.name)
    assert binds > 100
    assert not tupled, f"coefficients bound in a tuple in {', '.join(sorted(set(tupled)))}"
    assert not bare, f"coefficients that are names bound in {', '.join(sorted(set(bare)))}"
    assert not explicit, f"coefficients bound in {', '.join(sorted(set(explicit)))}"


def test_no_golden_builds_a_tuple_only_to_unpack_it():
    # A bind of four or more names to as many values, `a, b, c, d = w, x, y, z`, compiles to BUILD_TUPLE then
    # UNPACK_SEQUENCE on every call; one name per line binds without the tuple.
    def codes(code):
        yield code
        for const in code.co_consts:
            if inspect.iscode(const):
                yield from codes(const)

    tupled = []
    for path in sorted(set(scenarios.HERE.glob("*.py")) - {scenarios.HERE / "scenarios.py"}):
        for code in codes(compile(path.read_text(), path.name, "exec")):
            ops = [instruction.opname for instruction in dis.get_instructions(code)]
            if any(op == "BUILD_TUPLE" and after == "UNPACK_SEQUENCE" for op, after in zip(ops, ops[1:])):
                tupled.append(f"{path.name}:{code.co_name}")
    assert not tupled, f"a tuple built only to be unpacked in {', '.join(tupled)}"


def test_no_golden_loop_stores_a_name_no_line_reads():
    # A name stored in a for or while body runs its store on every pass; one that no line of its function reads,
    # `_` aside, is dead work.
    def names(nodes, ctx):
        return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}

    dead = set()
    for path in sorted(set(scenarios.HERE.glob("*.py")) - {scenarios.HERE / "scenarios.py"}):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef):
                loops = [line for loop in ast.walk(function) if isinstance(loop, (ast.For, ast.While))
                         for line in loop.body + loop.orelse]
                read = names([function], ast.Load)
                dead.update(f"{path.name}:{name}" for name in names(loops, ast.Store) - read - {"_"})
    assert not dead, f"names stored in a loop and never read: {', '.join(sorted(dead))}"


@pytest.mark.parametrize("name", sorted(LAZY_RUNS))
def test_a_manual_entry_compiled_after_a_driver_run_shows_its_line(name):
    # The first manual call after a driver's run, which builds no dataclass, compiles its entry (the table's
    # rows show which keys each compiles); a traceback through it shows the generated line.
    run, manual, filename, function, line = LAZY_RUNS[name]
    dataclasses, frame = fresh(LAZY_PROBE.format(run=run, manual=manual))
    assert not dataclasses
    assert frame == [filename, function, line, line]


def test_a_list_trial_blames_a_non_finite_derivative_through_the_algebras_ratio():
    # A list trial written inline folds its own error ratio, and calls the
    # algebra's only to test the derivative once its own is not finite.
    def poisoned(x, dxdt, t):
        LORENZ(x, dxdt, t)
        dxdt[0] = math.nan

    with pytest.raises(SolverError) as info:
        integrate_adaptive(ControlledStepper(DormandPrince5()), poisoned, [1.0, 2.0, 20.0], 0.0, 0.5, 0.01)
    assert str(info.value) == "the derivative at t=0.0 is not finite"


PLAIN_PROBE = """
import json, linecache
import numpy as np
from odekit import *
kept = []
for controller, x in ((ControlledStepper(DormandPrince5()), [1.0, 2.0, 20.0]),
                      (ControlledStepper(CashKarp54()), np.array([1.0, 2.0, 20.0]))):
    integrate_adaptive(controller, LORENZ, x, 0.0, 0.5, 0.01)
    controller.try_step(LORENZ, x, 0.0, 0.01)
    kept.append("_span" in vars(controller))
sources = {key: "".join(linecache.cache[key][2]) for key in linecache.cache
           if key.startswith(("<odekit walk ", "<odekit trial "))}
print(json.dumps([kept, sources]))
"""


def test_a_plain_controller_keeps_no_step_interval():
    # Only dense output reads the step interval, so only its trial writes it.
    kept, sources = fresh(PLAIN_PROBE)
    assert kept == [False, False]
    assert sorted(sources) == ["<odekit trial cash_karp_54 n=None>", "<odekit trial dormand_prince_54 n=3>",
                               "<odekit walk cash_karp_54 n=None unobserved>",
                               "<odekit walk dormand_prince_54 n=3 unobserved>"]
    assert not [key for key, text in sources.items() if "_span" in text]


def test_two_tableaus_give_two_profile_rows():
    profile = cProfile.Profile()
    for pair in (DormandPrince5, CashKarp54):
        profile.runcall(integrate_adaptive, ControlledStepper(pair()), lorenz, list(X3), 0.0, 0.1, 0.01)
    # Built-in functions' rows carry a string, not a code object.
    rows = {(entry.code.co_filename, entry.code.co_name) for entry in profile.getstats()
            if not isinstance(entry.code, str)}
    assert {("<odekit walk dormand_prince_54 n=3 unobserved>", "walk"),
            ("<odekit walk cash_karp_54 n=3 unobserved>", "walk")} <= rows


# --- the shape of generated code ---------------------------------------------


UNPACK = re.compile(r"^(\w+_\d+, )+= \w+$")


def test_eulers_fixed_step_holds_x_and_k0():
    # x and k0 are each offered, so each is read once, into locals, though
    # the update reads them once; its one product of dt is named, and
    # bound apart from the step.
    (key, head, bind, step), _ = _step_code(EULER, 3)
    assert step == ("system(x, k0, t)", "x_0, x_1, x_2, = x", "k0_0, k0_1, k0_2, = k0",
                    "target[0] = x_0 + w0 * k0_0", "target[1] = x_1 + w0 * k0_1", "target[2] = x_2 + w0 * k0_2")
    assert (key, head, bind) == ("euler n=3", ("k0, u = k", "target = x"), ("w0 = dt * 1.0",))


def test_rk4s_fixed_step_reads_x_and_the_stages_once():
    (_, _, _, step), _ = _step_code(RK4_CLASSIC, 3)
    unpacked = [line for line in step if UNPACK.match(line)]
    assert unpacked == ["x_0, x_1, x_2, = x", "k0_0, k0_1, k0_2, = k0", "k1_0, k1_1, k1_2, = k1",
                        "k2_0, k2_1, k2_2, = k2", "k3_0, k3_1, k3_2, = k3"]
    # k3 is read once, by the solution, and held all the same.
    assert [re.findall(r"\b(x|k\d)\[\d\]", line) for line in step if line.startswith("target[")] == [[]] * 3


def test_the_dp5_trial_reads_each_stage_once():
    (_, _, step, accept, _, _), _ = _trial_code(True, 4, DORMAND_PRINCE_54, 3)
    # Every state is read once, into locals, on the line after its last
    # write: no subscript is read, the solution's and the last stage's
    # included, which the error ratio and the accept read once each.
    assert not re.findall(r"\b(x|u|k\d)\[\d\](?! =)", "\n".join(step + accept))
    assert step[step.index("u_0, u_1, u_2, = u") - 1].startswith("u[2] = ")
    assert step[step.index("k6_0, k6_1, k6_2, = k6") - 1] == "system(u, k6, t + dt)"
    assert accept[:3] == ("x[0] = u_0", "x[1] = u_1", "x[2] = u_2")
    # In the dense trial the fit reads the solution and the last stage too.
    dense = _trial_code(True, 4, DORMAND_PRINCE_54, 3, _dense_code(DORMAND_PRINCE_54, 3)[0])[0]
    code = "\n".join(dense[2] + dense[3])
    assert not re.findall(r"\b(x|u|k\d)\[\d\](?! =)", code)
    assert "u_0, u_1, u_2, = u" in code and "k6_0, k6_1, k6_2, = k6" in code


def test_past_unroll_and_on_kernels_nothing_is_held():
    for n in (UNROLL + 1, None):
        for pieces in (_step_code(RK4_CLASSIC, n)[0], _trial_code(True, 4, DORMAND_PRINCE_54, n)[0]):
            assert not any(UNPACK.match(line) for block in pieces[1:] for line in block)


# --- bits: held locals change nothing ----------------------------------------


TABLEAUS = {"euler": EULER, "rk4": RK4_CLASSIC, "ck54": CASH_KARP_54, "dopri5": DORMAND_PRINCE_54}
PAIRS = {"ck54": CashKarp54, "dopri5": DormandPrince5}
LENGTHS = [1, 3, UNROLL, UNROLL + 1, UNROLL + 2]
SPECIALS = {"minus-zero": -0.0, "inf": math.inf, "nan": math.nan}


def apart(x, dxdt, t):
    """Element 0 stands still at derivative -0.0, so a special value
    there stays; the others decay, coupled, and never read it."""
    dxdt[0] = -0.0
    for i in range(1, len(x)):
        dxdt[i] = 0.5 * t - x[i] + (0.25 * x[i - 1] if i > 1 else -0.0)


def special_state(n, special):
    return [special] + [0.3 * (-1) ** i * i for i in range(1, n)]


@pytest.mark.parametrize("special", sorted(SPECIALS))
@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("name", sorted(TABLEAUS))
def test_the_generated_step_matches_the_stage_loop_on_special_values(name, n, special):
    tableau, x0 = TABLEAUS[name], special_state(n, SPECIALS[special])
    for rhs in (apart, lorenz if n == 3 else apart):
        new, err, k = stage_loop(tableau, rhs, list(x0), 0.25, 0.125, SEQUENCE_ALGEBRA)
        stepper = ExplicitRungeKutta(tableau)
        for _ in range(2):  # the class method binding, then the do_step entry
            x = list(x0)
            assert hexes(stepper.do_step(rhs, x, 0.25, 0.125)) == hexes(new)
            assert hexes(stepper.do_step(rhs, list(x0), 0.25, 0.125, out=[0.0] * n)) == hexes(new)
        if err is not None:
            got = EmbeddedRungeKutta(tableau).do_step_with_error(rhs, list(x0), 0.25, 0.125)
            assert (hexes(got[0]), hexes(got[1])) == (hexes(new), hexes(err))


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("name", sorted(TABLEAUS))
def test_the_fixed_loop_matches_the_class_do_step_with_signed_zeros(name, n):
    x0 = special_state(n, -0.0)
    seen, expected = [], []
    report = integrate_const(ExplicitRungeKutta(TABLEAUS[name]), apart, list(x0), 0.0, 0.5, 0.125,
                             lambda x, t: seen.append((t.hex(), hexes(x))))
    _, reference, _ = reference_run(ExplicitRungeKutta(TABLEAUS[name]), apart, list(x0), 0.0, 0.5, 0.125,
                                    lambda x, t: expected.append((t.hex(), hexes(x))))
    assert seen == expected and hexes(report.final_state) == hexes(reference.final_state)


def trials(stepper, x, count=6):
    """``count`` try_step calls from t = 0, each with the width the last
    proposed: per trial the result's bits and the state's, or the error."""
    t, dt, out = 0.0, 0.3, []
    try:
        for _ in range(count):
            result = stepper.try_step(apart, x, t, dt)
            out.append((result.accepted, result.t.hex(), result.dt.hex(), float(result.error_ratio).hex(), hexes(x)))
            t, dt = result.t, result.dt
    except SolverError as exc:
        out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("special", sorted(SPECIALS))
@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_the_generated_trial_matches_the_reference_controller_on_special_values(pair, n, special):
    x0, params = special_state(n, SPECIALS[special]), ControllerParams(atol=1e-6, rtol=1e-6)
    got = trials(ControlledStepper(PAIRS[pair](), params), list(x0))
    # The kernel forms: numpy, and a replaced scale_sum on lists.
    assert got == trials(ControlledStepper(PAIRS[pair](), params), np.array(x0)) \
        == trials(ControlledStepper(PAIRS[pair](GeneralAlgebra()), params), list(x0))
    # The reference controller, on both backends: a NaN in the state
    # with a finite derivative is rejected, never blamed on the derivative.
    assert got == trials(ReferenceController(PAIRS[pair](), SEQUENCE_ALGEBRA, params), list(x0)) \
        == trials(ReferenceController(PAIRS[pair](), NUMPY_ALGEBRA, params), np.array(x0))
    assert any(trial[0] is True for trial in got) == (special != "nan")


def dense_trials(algebra, box, x0, params):
    stepper = DenseOutputDopri5(params, algebra)
    out = trials(stepper, box(x0), 4)
    lo, hi = stepper.interval
    return out, [hexes(stepper.calc_state(lo + theta * (hi - lo))) for theta in (0.0, 0.3, 1.0)]


@pytest.mark.parametrize("special", ["minus-zero", "inf"])
@pytest.mark.parametrize("n", LENGTHS)
def test_the_dense_fit_matches_its_kernel_twins_on_special_values(n, special):
    x0, params = special_state(n, SPECIALS[special]), ControllerParams(atol=1e-6, rtol=1e-6)
    got = dense_trials(None, list, x0, params)
    with np.errstate(invalid="ignore"):  # inf - inf in the fit, as on lists
        assert got == dense_trials(None, np.array, x0, params) == dense_trials(GeneralAlgebra(), list, x0, params)


@pytest.mark.parametrize("n", LENGTHS)
def test_dense_grid_samples_match_their_numpy_twin_with_signed_zeros(n):
    runs = []
    for box in (list, np.array):
        seen = []
        report = integrate_const(DenseOutputDopri5(), apart, box(special_state(n, -0.0)), 0.0, 0.5, 0.01,
                                 lambda x, t: seen.append((t.hex(), hexes(x))))
        runs.append((seen, hexes(report.final_state), report.steps_accepted, report.system_evaluations))
    assert runs[0] == runs[1] and len(runs[0][0]) == 51


# --- the copy keeps its 1.0 * ------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, UNROLL, UNROLL + 1, UNROLL + 2])
def test_the_sequence_copy_turns_a_users_ints_into_floats(n):
    out, ints = [0.0] * n, list(range(-1, n - 1))
    _sequence_copy(min(n, UNROLL + 1))(out, ints)
    assert out == ints and {type(v) for v in out} == {float}
    seen = []
    report = integrate_const(ExplicitEuler(), apart, ints, 0, 1, 0.5, lambda x, t: seen.append(x))
    assert {type(v) for x in seen for v in x} == {type(v) for v in report.final_state} == {float}
    x = list(ints)
    assert ControlledStepper(DormandPrince5()).try_step(apart, x, 0, 0.01).accepted
    assert {type(v) for v in x} == {float}
