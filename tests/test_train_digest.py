"""``tools/train_digest.py``: seeded training digests on perfbench's fixtures."""
import importlib.util
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "train_digest.py"


@pytest.fixture
def train_digest(monkeypatch):
    """The script as a module; the paths and BLAS settings it installs on
    import are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    spec = importlib.util.spec_from_file_location("train_digest", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_seeds(train_digest):
    assert train_digest.parse_seeds("2101,5201-5203") == [2101, 5201, 5202, 5203]


def test_digest_is_deterministic(train_digest):
    """Two runs at one seed agree on every digest, the checkpoint bytes'
    included; another seed changes every digest.  A small copy of
    ``short_posts`` keeps it fast."""
    wl = replace(train_digest.workloads.WORKLOADS["short_posts"],
                 n_train=48, n_heldout=16, n_vectors=200, n_catalog_rows=200)
    first = train_digest.digests(wl, 7)
    assert set(first) == {"weights", "heldout", "predict", "checkpoint"}
    assert train_digest.digests(wl, 7) == first
    other = train_digest.digests(wl, 8)
    assert all(other[k] != first[k] for k in first)
