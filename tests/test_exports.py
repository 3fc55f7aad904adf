import importlib
import pkgutil

import pytest

import setnn

_MODULES = ["setnn"] + [f"setnn.{m.name}" for m in pkgutil.iter_modules(setnn.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    """A star import raises on an `__all__` entry the module no longer defines."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), exported
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
