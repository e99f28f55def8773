"""The records: ``ButcherTableau``, ``ControllerParams``,
``IntegrationReport``, ``SeparableHamiltonian`` and ``OrderStudy`` are
named tuples.  Each keeps its field names, their order and defaults,
keyword construction, its checks and their messages, ``repr``, field
equality, hashing, immutability and pickle/deepcopy round trips."""

import ast
import copy
import math
import pickle
import re
from pathlib import Path

import pytest

import odekit
from odekit import (
    DORMAND_PRINCE_54,
    EULER,
    ButcherTableau,
    ControllerParams,
    IntegrationReport,
    SeparableHamiltonian,
)
from odekit.systems import OrderStudy


def dqdt(p, out):
    out[0] = p[0]


def dpdt(q, out):
    out[0] = -q[0]


HEUN = dict(name="heun", a=((1.0,),), b=(0.5, 0.5), c=(0.0, 1.0), order=2, b_embedded=(1.0, 0.0), error_order=1)

# name: (record, its fields, a record built by keyword, its repr)
RECORDS = {
    "tableau": (ButcherTableau, ("name", "a", "b", "c", "order", "b_embedded", "error_order", "dense_weights"),
                ButcherTableau(**HEUN),
                "ButcherTableau(name='heun', a=((1.0,),), b=(0.5, 0.5), c=(0.0, 1.0), order=2, b_embedded=(1.0, 0.0),"
                " error_order=1, dense_weights=None)"),
    "params": (ControllerParams, ("atol", "rtol", "dt_min"), ControllerParams(atol=1e-8, rtol=1e-6, dt_min=1e-12),
               "ControllerParams(atol=1e-08, rtol=1e-06, dt_min=1e-12)"),
    "report": (IntegrationReport, ("final_state", "final_time", "steps_accepted", "steps_rejected",
                                   "system_evaluations"),
               IntegrationReport(final_state=(1.0, 2.0), final_time=0.5, steps_accepted=3, steps_rejected=1,
                                 system_evaluations=25),
               "IntegrationReport(final_state=(1.0, 2.0), final_time=0.5, steps_accepted=3, steps_rejected=1,"
               " system_evaluations=25)"),
    "hamiltonian": (SeparableHamiltonian, ("dqdt", "dpdt"), SeparableHamiltonian(dqdt=dqdt, dpdt=dpdt),
                    f"SeparableHamiltonian(dqdt={dqdt!r}, dpdt={dpdt!r})"),
    "study": (OrderStudy, ("slope", "dts", "errors", "excluded"),
              OrderStudy(slope=2.0, dts=(0.1, 0.05), errors=(1e-3, 2.5e-4), excluded=((0.01, 0.0),)),
              "OrderStudy(slope=2.0, dts=(0.1, 0.05), errors=(0.001, 0.00025), excluded=((0.01, 0.0),))"),
}

# name: one field changed
CHANGED = {"tableau": dict(name="heun_euler"), "params": dict(atol=1e-9), "report": dict(steps_rejected=2),
           "hamiltonian": dict(dpdt=dqdt), "study": dict(slope=3.0)}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_is_a_named_tuple_of_its_fields(name):
    record, fields, built, text = RECORDS[name]
    assert record._fields == fields and isinstance(built, tuple)
    assert tuple(built) == tuple(getattr(built, field) for field in fields)
    assert record(*built) == built and repr(built) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_is_immutable(name):
    _, fields, built, _ = RECORDS[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(built, field, None)
    with pytest.raises(AttributeError):
        built.note = "no new attribute either"
    assert not hasattr(built, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_and_hash_by_field(name):
    record, fields, built, _ = RECORDS[name]
    twin = record(**{field: copy.deepcopy(getattr(built, field)) for field in fields})
    assert twin == built and hash(twin) == hash(built) and {built: 1}[twin] == 1
    assert record(**{**built._asdict(), **CHANGED[name]}) != built


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_survives_pickle_and_copies(name, duplicate):
    record, _, built, _ = RECORDS[name]
    twin = duplicate(built)
    assert type(twin) is record and twin == built and repr(twin) == repr(built)


def test_the_defaults():
    assert ControllerParams() == ControllerParams(1e-6, 1e-6, 1e-14)
    assert tuple(ControllerParams(rtol=1e-3)) == (1e-6, 1e-3, 1e-14)
    assert (EULER.b_embedded, EULER.error_order) == (None, None)
    assert OrderStudy(1.0, (0.1,), (0.01,)).excluded == ()
    with pytest.raises(TypeError):
        IntegrationReport([1.0], 1.0, 1, 0)  # no default: every counter is given
    with pytest.raises(TypeError):
        SeparableHamiltonian(dqdt)


def test_a_report_counts_its_attempts_and_holds_its_state():
    state = [1.0, 2.0]
    report = IntegrationReport(state, 1.0, 7, 2, 55)
    assert report.steps_attempted == 9 and report.final_state is state
    assert pickle.loads(pickle.dumps(report)) == report


def test_a_tableau_stores_tuples_and_keys_caches():
    lists = ButcherTableau(**{**HEUN, "a": [[1.0]], "b": [0.5, 0.5], "c": [0.0, 1.0], "b_embedded": [1.0, 0.0]})
    assert lists == ButcherTableau(**HEUN) and hash(lists) == hash(ButcherTableau(**HEUN))
    assert all(type(value) is tuple for value in (lists.a, lists.a[0], lists.b, lists.c, lists.b_embedded))
    rebuilt = ButcherTableau(*DORMAND_PRINCE_54)
    assert rebuilt == DORMAND_PRINCE_54 and rebuilt.is_fsal and rebuilt.stage_count == 7
    assert odekit.explicit._step_code(rebuilt, 3) is odekit.explicit._step_code(DORMAND_PRINCE_54, 3)


TABLEAU_ERRORS = [
    (dict(c=(0.0,)), "heun: inconsistent tableau dimensions"),
    (dict(a=()), "heun: inconsistent tableau dimensions"),
    (dict(c=(0.5, 1.0)), "heun: first node must be 0"),
    (dict(a=((0.5, 0.5),)), "heun: row 1 must hold 1 entries"),
    (dict(a=((0.5,),)), "heun: node c[1]=1.0 does not match row sum 0.5"),
    (dict(a=((math.inf,),), c=(0.0, math.inf)), "heun: node c[1]=inf does not match row sum inf"),
    (dict(b=(0.5, 0.625)), "heun: solution weights sum to 1.125, not 1"),
    (dict(b=(0.5, math.nan)), "heun: solution weights sum to nan, not 1"),
    (dict(b_embedded=(1.0,)), "heun: embedded weights length mismatch"),
    (dict(b_embedded=(1.0, 1.0)), "heun: embedded weights do not sum to 1"),
    (dict(b_embedded=(0.5, 0.5)), "heun: embedded weights equal the solution weights, so no error is estimated"),
    (dict(error_order=None), "heun: embedded order must be below 2"),
    (dict(error_order=2), "heun: embedded order must be below 2"),
    (dict(b_embedded=None), "heun: error_order given without embedded weights"),
    (dict(dense_weights=(0.5,)), "heun: dense weights must be 2 finite numbers"),
    (dict(dense_weights=(0.5, math.inf)), "heun: dense weights must be 2 finite numbers"),
]


# How a record is built from a valid one and a change of fields: each
# way runs the checks.
BUILDS = {
    "constructor": lambda valid, change: type(valid)(**{**valid._asdict(), **change}),
    "_replace": lambda valid, change: valid._replace(**change),
    "_make": lambda valid, change: type(valid)._make({**valid._asdict(), **change}.values()),
    **({"copy.replace": lambda valid, change: copy.replace(valid, **change)} if hasattr(copy, "replace") else {}),
}


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("change, message", TABLEAU_ERRORS)
def test_every_tableau_check_keeps_its_message(change, message, build):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BUILDS[build](ButcherTableau(**HEUN), change)


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_a_replaced_tableau_stores_tuples_and_keys_caches(build):
    lists = BUILDS[build](DORMAND_PRINCE_54, dict(name="dp", a=[list(row) for row in DORMAND_PRINCE_54.a],
                                                  b=list(DORMAND_PRINCE_54.b)))
    assert all(type(value) is tuple for value in (lists.a, lists.a[0], lists.b))
    assert type(lists) is ButcherTableau and lists.is_fsal and hash(lists) == hash(lists._replace())
    assert odekit.explicit._step_code(lists, 3) is odekit.explicit._step_code(lists._replace(), 3)
    with pytest.raises(TypeError, match="^Expected 8 arguments, got 5$"):
        ButcherTableau._make(tuple(DORMAND_PRINCE_54)[:5])


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("fields, message", [
    *((dict(atol=v), "tolerances must be finite nonnegative numbers, not both zero")
      for v in (-1e-6, math.nan, math.inf)),
    *((dict(rtol=v), "tolerances must be finite nonnegative numbers, not both zero")
      for v in (-1e-6, math.nan, math.inf)),
    (dict(atol=0.0, rtol=0.0), "tolerances must be finite nonnegative numbers, not both zero"),
    *((dict(dt_min=v), "dt_min must be positive") for v in (0.0, -1e-14, math.nan)),
])
def test_every_params_check_keeps_its_message(fields, message, build):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BUILDS[build](ControllerParams(), fields)


def test_no_module_imports_dataclasses():
    # A record is a named tuple: building one at import compiles nothing.
    for path in Path(odekit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
