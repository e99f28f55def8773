"""The package namespace: ``__all__`` is exactly what ``__init__``'s map
names, and each name loads only the module that defines it."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import odekit

SOURCE = Path(odekit.__file__).parent


def loaded_after(code):
    """The ``odekit`` modules loaded by ``code`` in a fresh interpreter."""
    paths = [str(SOURCE.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    probe = f"import sys\n{code}\nimport json\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('odekit'))))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_all_has_no_duplicates():
    assert len(odekit.__all__) == len(set(odekit.__all__))


def test_every_exported_name_resolves():
    assert [name for name in odekit.__all__ if not hasattr(odekit, name)] == []


def test_every_imported_name_is_exported():
    # The map is what the package imports, lazily: its names and the
    # version are __all__, and each name is its module's own object.
    assert len(odekit.__all__) == 42
    assert sorted([*odekit._HOME, "__version__"]) == sorted(odekit.__all__)
    for name, module in odekit._HOME.items():
        assert getattr(odekit, name) is getattr(importlib.import_module(f"odekit.{module}"), name), name


def test_a_bare_import_loads_no_submodule():
    assert loaded_after("import odekit") == ["odekit"]


def test_the_implicit_path_loads_its_four_modules():
    loaded = loaded_after("import odekit\nodekit.ImplicitEuler, odekit.JacobianSystem, odekit.integrate_const")
    assert loaded == ["odekit", *(f"odekit.{m}" for m in ("algebra", "errors", "implicit", "integrate"))]


def test_the_adaptive_path_loads_no_other_steppers():
    loaded = loaded_after("import odekit\nodekit.DormandPrince5, odekit.ControlledStepper, odekit.integrate_adaptive")
    assert "odekit.controlled" in loaded
    assert [m for m in loaded if m.split(".")[-1] in ("dense", "implicit", "symplectic", "systems")] == []


def test_star_import_binds_every_name():
    namespace = {}
    exec("from odekit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(odekit.__all__)


def test_dir_lists_the_public_names():
    assert set(odekit.__all__) <= set(dir(odekit))
    assert {"__all__", "__version__", "algebra", "implicit"} <= set(dir(odekit))


def test_submodules_resolve_after_a_bare_import():
    code = ("import odekit\nassert odekit.algebra.SequenceAlgebra.__name__ == 'SequenceAlgebra'\n"
            "assert (odekit.controlled.SAFETY, odekit.implicit.NEWTON_TOL) == (0.9, 1e-12)")
    assert loaded_after(code) == [f"odekit{m}" for m in ("", ".algebra", ".controlled", ".errors", ".explicit",
                                                         ".implicit", ".tableaus")]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'odekit' has no attribute 'Unknown'"):
        odekit.Unknown
    assert not hasattr(odekit, "Unknown")
    with pytest.raises(ImportError):
        exec("from odekit import Unknown", {})


def test_no_module_imports_the_package_namespace():
    # A module that imports the package would run its lazy __getattr__
    # inside another module's import, and undo the cold start.
    importers = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = ["odekit" if node.level == 1 and node.module is None else node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if "odekit" in modules:
                importers.append(path.name)
    assert importers == []


def test_only_the_algebra_implicit_euler_and_the_systems_import_numpy():
    # The algebra is the one layer that knows the container; implicit Euler's Newton matrix and the order study's
    # errors are numpy's own.  A list run through any other module loads numpy only through the algebra.
    importers = [path.stem for path in sorted(SOURCE.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
                 or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"]
    assert importers == ["algebra", "implicit", "systems"]


def test_no_stepper_module_imports_the_drivers():
    # Steppers generate plain code; the drivers own the run and its
    # counts, so the dependency runs one way only.
    importers = []
    for name in ("algebra", "explicit", "controlled", "dense", "symplectic", "implicit"):
        for node in ast.walk(ast.parse((SOURCE / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [f"{'.' * node.level}{node.module or ''}"]
                modules += [f"{modules[0].rstrip('.')}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(module in (".integrate", "odekit.integrate") for module in modules):
                importers.append(name)
    assert importers == []
