"""Every exported name resolves, so a retired name left in an export list fails, and
the package exports exactly what its modules list."""
import importlib
import pkgutil

import pytest

import stablepp

MODULES = ["stablepp"] + sorted(f"stablepp.{m.name}" for m in pkgutil.iter_modules(stablepp.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names what it does not define: {missing}"


def test_package_exports_exactly_the_module_lists():
    listed = [name for module_name in MODULES[1:]
              for name in getattr(importlib.import_module(module_name), "__all__", [])]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    assert sorted(stablepp.__all__) == sorted(["__version__", *listed])
