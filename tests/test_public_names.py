"""Every public name of gtsim resolves: each module's ``__all__`` and each name
the package imports into its namespace. A name whose definition is removed
then fails here, not in a user's import."""

import ast
import importlib
import os
import pkgutil

import pytest

import gtsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(gtsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_resolves(name):
    module = importlib.import_module(f"gtsim.{name}")
    assert module.__all__, name
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    with open(os.path.join(os.path.dirname(gtsim.__file__), "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert getattr(importlib.import_module(f"gtsim.{module}"), name) is getattr(gtsim, name)
