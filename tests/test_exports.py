import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import proofplan
from proofplan.harness import compose_question, load_dataset
from proofplan.pipeline import Problem, run_pipeline, trace_to_doc

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


def _readme_python_blocks() -> list[str]:
    text = Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, re.DOTALL)


def test_readme_python_examples_run(capsys):
    # each block runs on its own, with only the names it imports
    library, custom = _readme_python_blocks()
    exec(compile(library, "README.md (Library use)", "exec"), {})
    assert capsys.readouterr().out == "U\nU\nU\n"  # the labels the block's comments give
    namespace: dict = {}
    exec(compile(custom, "README.md (custom backend)", "exec"), namespace)
    [instance] = load_dataset(Path(__file__).parent / "data" / "fig1b.json")
    problem = Problem(id=instance.id, premises=instance.premises, question=compose_question(instance))
    backend = namespace["Inspecting"]()
    result = run_pipeline(backend, problem)
    assert result.final.label == instance.gold == "F"
    # the plan call has no plan yet; the solve and replan calls get the three-step plan
    assert capsys.readouterr().out.splitlines() == ["3 facts, 0 plan steps"] + ["3 facts, 3 plan steps"] * 2
    # the replies it records are the ones trace_to_doc writes
    docs = [trace_to_doc(trace, problem.id, backend.replies) for trace in result.traces]
    assert [list(doc["raw"]) for doc in docs] == [["plan", "solve", "translate"], ["replan"]]
