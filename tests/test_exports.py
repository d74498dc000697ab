import importlib
import pkgutil

import pytest

import blowlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(blowlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"blowlab.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
