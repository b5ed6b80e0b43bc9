"""Every public name of gtsim resolves in the module that defines it, and the
package itself re-exports none of them. A name whose definition is removed
then fails here, not in a user's import."""

import importlib
import pkgutil

import pytest

import gtsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(gtsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_resolves(name):
    module = importlib.import_module(f"gtsim.{name}")
    assert module.__all__, name
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_namespace_holds_only_its_modules():
    for name in MODULES:
        importlib.import_module(f"gtsim.{name}")
    assert [n for n in vars(gtsim) if n not in MODULES and n != "__version__"
            and not (n.startswith("__") and n.endswith("__"))] == []
