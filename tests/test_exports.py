"""Every name a lexfuse module exports in ``__all__`` exists, the package
imports without ``scipy.stats``, and its modules import each other at the
top only, without a cycle."""
import ast
import graphlib
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lexfuse

MODULES = sorted(m.name for m in pkgutil.iter_modules(lexfuse.__path__))


def test_modules_found():
    assert {"fusion", "classifier", "lexicon", "pipeline", "gradcheck"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lexfuse.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"lexfuse.{name}.__all__ names missing attributes: {missing}"


def test_import_leaves_scipy_stats_unloaded():
    """Every CLI call pays the package import; ``scipy.stats`` alone would
    load some 400 more modules. Checked in a fresh interpreter, since this
    one may have imported it already."""
    src = str(Path(lexfuse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import lexfuse, sys; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def _lexfuse_imports(tree: ast.Module):
    """``(node, lexfuse module)`` for every import in ``tree``, at any
    depth, of a lexfuse module or of a name from one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ["lexfuse", node.module])) if node.level else node.module
            if source == "lexfuse":
                yield from ((node, a.name) for a in node.names)
            elif source and source.startswith("lexfuse."):
                yield node, source.split(".")[1]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "lexfuse":
                    yield node, (a.name.split(".") + ["__init__"])[1]


def test_lexfuse_imports_are_at_the_top_and_acyclic():
    """Each lexfuse-to-lexfuse import is a top-level statement before the
    module's first ``def`` or ``class``, and those edges form a DAG: no
    function-local or bottom-of-module import stands in for a cycle."""
    package = Path(lexfuse.__file__).parent
    graph: dict = {}
    misplaced = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        first_def = next(
            (i for i, n in enumerate(tree.body)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))),
            len(tree.body),
        )
        top = {id(n) for n in tree.body[:first_def]}
        for node, target in _lexfuse_imports(tree):
            if id(node) not in top:
                misplaced.append(f"{path.name}:{node.lineno}")
            graph.setdefault(path.stem, set()).add(target)
    assert not misplaced, f"lexfuse imports inside a function or after the first def/class: {misplaced}"
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as e:
        pytest.fail(f"lexfuse modules import each other in a cycle: {e.args[1]}")
