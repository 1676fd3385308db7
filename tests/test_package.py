"""Checks on the package's public surface and its module layering."""

import ast
import graphlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import hetprior

MODULES = [
    module
    for info in pkgutil.iter_modules(hetprior.__path__)
    if hasattr(module := importlib.import_module(f"hetprior.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_name_exists(module):
    # tools that walk a module's __all__ (the benchmark's tracer among them)
    # call getattr on every name, so a stale entry breaks them
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_intra_package_imports_are_module_level_and_acyclic():
    graph = {}
    nested = []
    for path in sorted(Path(hetprior.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level > 0]
        nested += [f"{path.stem}:{n.lineno}" for n in imports if id(n) not in top]
        # ``from . import x`` imports the package itself
        graph[path.stem] = {n.module or "__init__" for n in imports}
    assert nested == []
    # raises CycleError naming the cycle if there is one
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert order.index("metaanalysis") < order.index("sampler") < order.index("summarize")
