import importlib
import pkgutil

import pytest

import fracbspde

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracbspde.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    """A star import fails on an __all__ entry that the module does not define."""
    namespace: dict = {}
    exec(f"from fracbspde.{name} import *", namespace)
    exported = getattr(importlib.import_module(f"fracbspde.{name}"), "__all__", ())
    assert len(set(exported)) == len(exported)
    assert set(exported) <= namespace.keys()
