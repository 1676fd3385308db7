"""Checks on the package's public surface."""

import importlib
import pkgutil

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
