import ast
import importlib
import pkgutil
from pathlib import Path

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


def _sibling_imports(name):
    """The modules of the package that `proofplan.<name>` imports at its top level as it runs;
    an import under `if TYPE_CHECKING:` is not a top-level statement, so it is left out."""
    tree = ast.parse(Path(proofplan.__path__[0], f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (alias.name for alias in node.names))
    return found


def test_modules_import_one_way():
    # fol <- solver <- structured: the solver knows nothing of representations or stages
    assert not _sibling_imports("solver") & {"structured", "pipeline", "backends", "harness", "cli"}
    assert _sibling_imports("structured") <= {"errors", "fol", "solver"}
