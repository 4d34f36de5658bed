"""The package's exports and its modules' ``__all__`` lists agree: every
name ``twinbeam/__init__.py`` imports from a module is in that module's
``__all__``, and every ``__all__`` entry resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import twinbeam


def _package_imports() -> dict[str, list[str]]:
    tree = ast.parse(Path(twinbeam.__file__).read_text())
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


@pytest.mark.parametrize("module", sorted(_package_imports()))
def test_package_imports_are_in_the_module_all(module):
    listed = importlib.import_module(f"twinbeam.{module}").__all__
    assert [name for name in _package_imports()[module] if name not in listed] == []


@pytest.mark.parametrize("module", [None, *sorted(_package_imports())])
def test_every_all_entry_resolves(module):
    mod = importlib.import_module("twinbeam" if module is None else f"twinbeam.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_all_lists_every_import():
    imported = {name for names in _package_imports().values() for name in names}
    assert imported == set(twinbeam.__all__)
