import importlib
import pkgutil

import pytest

import proofplan

MODULES = sorted(info.name for info in pkgutil.iter_modules(proofplan.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"proofplan.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"proofplan.{name}.__all__ repeats a name"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"proofplan.{name}.__all__ names what the module lacks: {missing}"


def test_the_exporting_modules_are_all_found():
    exporting = {name for name in MODULES if hasattr(importlib.import_module(f"proofplan.{name}"), "__all__")}
    assert exporting == {"backends", "fol", "harness", "pipeline", "plan", "solver", "structured"}
