import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_cli_import_leaves_the_optional_scipy_modules_unloaded():
    # scipy.interpolate serves one fraclap route and scipy.stats one
    # acceptance check; each loads inside the function that needs it
    code = "import sys, fracbspde.cli; print([m for m in ('scipy.interpolate', 'scipy.stats') if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(fracbspde.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "[]\n"
