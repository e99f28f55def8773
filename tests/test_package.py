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
