"""Every exported name resolves, so a deletion cannot leave a dangling export,
and importing the package loads only what every command runs."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mhdstab
from mhdstab import charstruct, errors, lopatinski, symbol, thermo

MODULES = (charstruct, lopatinski, symbol, thermo)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_names_resolve(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_declared_names():
    # the package has no __all__: its public names are what it imports, and
    # each must be an error class or a name some module exports
    declared = set().union(*(m.__all__ for m in MODULES))
    public = {n: v for n, v in vars(mhdstab).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    stray = [n for n, v in public.items() if n not in declared
             and not (isinstance(v, type) and issubclass(v, errors.MhdStabError))]
    assert stray == []
    assert {"classify", "nonglancing_test", "uniform_scan", "MhdStabError"} <= set(public)


def test_import_loads_no_scipy():
    # scipy serves only the per-point reference path, which imports it there
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, mhdstab; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
