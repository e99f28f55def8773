"""The package namespace: ``__all__`` is exactly what ``__init__`` imports."""

import ast
from pathlib import Path

import odekit


def test_all_has_no_duplicates():
    assert len(odekit.__all__) == len(set(odekit.__all__))


def test_every_exported_name_resolves():
    assert [name for name in odekit.__all__ if not hasattr(odekit, name)] == []


def test_every_imported_name_is_exported():
    tree = ast.parse(Path(odekit.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in odekit.__all__] == []


def test_no_stepper_module_imports_the_drivers():
    # Steppers generate plain code; the drivers own the run and its
    # counts, so the dependency runs one way only.
    source = Path(odekit.__file__).parent
    importers = []
    for name in ("algebra", "explicit", "controlled", "dense", "symplectic", "implicit"):
        for node in ast.walk(ast.parse((source / f"{name}.py").read_text())):
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
