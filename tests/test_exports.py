"""Every name a lexfuse module exports in ``__all__`` exists."""
import importlib
import pkgutil

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
