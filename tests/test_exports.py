"""Every name a lexfuse module exports in ``__all__`` exists, and the
package imports without ``scipy.stats``."""
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
