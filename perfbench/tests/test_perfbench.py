"""Tests of the benchmark's own machinery at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import lexfuse  # noqa: E402
from lexfuse.embedding import SynonymSet  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- catalog oracle -----------------------------------------------------------


def _tie_table():
    """Keyword ``k`` has two exactly tied best neighbours, a zero row, and
    a zero-norm keyword ``z`` whose synonyms are ordered by word alone."""
    rng = np.random.default_rng(0)
    words = ["k", "z", "b_tie", "a_tie", "near", "zero", "far1", "far2", "far3"]
    matrix = rng.normal(size=(len(words), 6))
    q = matrix[0]
    matrix[2] = matrix[3] = q + 0.01
    matrix[4] = q + 0.3
    matrix[1] = 0.0
    matrix[5] = 0.0
    return words, matrix


def _catalog(words, matrix, h_max):
    table = lexfuse.EmbeddingTable(words, matrix)
    return lexfuse.build_synonym_catalog(["k", "z", "absent"], table, h_max)


def test_oracle_accepts_library_catalog_with_ties_and_zero_rows():
    words, matrix = _tie_table()
    catalog = _catalog(words, matrix, 3)
    assert catalog["k"].synonyms[:2] == ["a_tie", "b_tie"]
    assert catalog["z"].synonyms == ["a_tie", "b_tie", "far1"]
    assert checks.check_catalog(catalog, ["k", "z", "absent"], words, matrix, 3) == []


def _perturbed(catalog, kw, synonyms, matrix, words):
    out = dict(catalog)
    rows = [words.index(s) for s in synonyms]
    out[kw] = SynonymSet(kw, list(synonyms), matrix[rows].copy())
    return out


@pytest.mark.parametrize(
    "kw, synonyms",
    [
        ("k", ["b_tie", "a_tie", "near"]),  # tie broken against word order
        ("k", ["a_tie", "near", "b_tie"]),  # lower similarity listed first
        ("k", ["a_tie", "b_tie", "far1"]),  # a better candidate left out
        ("k", ["k", "a_tie", "b_tie"]),  # keyword lists itself
        ("k", ["a_tie", "b_tie"]),  # too few
        ("z", ["a_tie", "b_tie", "far2"]),  # zero-norm keyword: word order
        ("z", ["a_tie", "far1", "b_tie"]),
    ],
)
def test_oracle_catches_perturbed_catalog(kw, synonyms):
    words, matrix = _tie_table()
    catalog = _perturbed(_catalog(words, matrix, 3), kw, synonyms, matrix, words)
    assert checks.check_catalog(catalog, ["k", "z", "absent"], words, matrix, 3)


def test_oracle_catches_wrong_vectors_and_absent_keyword_synonyms():
    words, matrix = _tie_table()
    catalog = _catalog(words, matrix, 3)
    bad = dict(catalog)
    bad["k"] = SynonymSet("k", catalog["k"].synonyms, catalog["k"].vectors + 1.0)
    assert checks.check_catalog(bad, ["k"], words, matrix, 3)
    bad = _perturbed(catalog, "absent", ["near"], matrix, words)
    assert checks.check_catalog(bad, ["absent"], words, matrix, 3)


def test_zero_rows_have_similarity_zero():
    words, matrix = _tie_table()
    sims = checks.oracle_sims(matrix, matrix[0])
    assert sims[5] == 0.0 and sims[1] == 0.0
    assert (checks.oracle_sims(matrix, matrix[1]) == 0.0).all()


def test_other_checks_flag_bad_outputs():
    assert checks.check_probabilities([0.25, 0.75], "p") == []
    assert checks.check_probabilities([0.5, float("nan")], "p")
    assert checks.check_probabilities([0.6, 0.6], "p")
    a = {"w": np.zeros(3, dtype=np.float32)}
    b = {"w": np.array([0.0, -0.0, 0.0], dtype=np.float32)}
    assert checks.check_tensors_equal(a, dict(a), "c") == []
    assert checks.check_tensors_equal(a, b, "c")  # -0.0 is not bitwise 0.0
    labels, preds = [1, 0, 0, 0], [1, 1, 0, 0]
    assert checks.check_prf(labels, preds, lexfuse.Metrics(tp=1, fp=1, fn=0, tn=2)) == []
    assert checks.check_prf(labels, preds, lexfuse.Metrics(tp=1, fp=0, fn=0, tn=3))


# -- tracing ------------------------------------------------------------------


TINY = dataclasses.replace(
    workloads.WORKLOADS["short_posts"],
    name="tiny", n_train=16, n_heldout=16, n_vectors=50,
    n_catalog_rows=200, n_catalog_keywords=3, ckpt_vocab=64,
)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    fx = workloads.setup(TINY, 0, tmp_path_factory.mktemp("work"))
    before = {p: vars(tracing._resolve_owner(p.owner))[p.attr] for p in tracing.LAYER_PATCHES}
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        out = workloads.run_phases(fx, TINY, 0, 0.0, tracer, rounds=workloads.MIN_ROUNDS)
    return tracer, out, before


def test_traced_run_is_correct_and_sees_every_layer(traced_run):
    tracer, out, _ = traced_run
    assert out.failures == []
    names = {s.name for s in tracer.spans}
    assert {p.name for p in tracing.LAYER_PATCHES} <= names
    assert tracer.counters["pipeline.collate.slots"] > tracer.counters["pipeline.collate.pad_slots"] > 0


def test_spans_nest_and_self_times_are_non_negative(traced_run):
    tracer, _, _ = traced_run
    for s in tracer.spans:
        assert s.end >= s.start
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    for name, (self_s, calls) in tracer.self_times().items():
        assert self_s >= -1e-9, name
        assert calls >= 1
    encoder = tracer.self_times()["encoder.encoder_layer"][0]
    assert tracer.inclusive_time("encoder.encoder_layer") >= encoder
    within = tracer.self_times(within="pipeline.load_checkpoint")
    assert set(within) == {"pipeline.ModelParams.initialize"}


def test_every_wrapped_attribute_is_restored(traced_run):
    _, _, before = traced_run
    for p, raw in before.items():
        assert vars(tracing._resolve_owner(p.owner))[p.attr] is raw, p


def test_attributes_are_restored_when_the_run_raises():
    before = {p: vars(tracing._resolve_owner(p.owner))[p.attr] for p in tracing.LAYER_PATCHES}
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            collate = next(p for p in tracing.LAYER_PATCHES if p.name == "pipeline.collate")
            assert lexfuse.pipeline.collate is not before[collate]
            raise RuntimeError("boom")
    for p, raw in before.items():
        assert vars(tracing._resolve_owner(p.owner))[p.attr] is raw, p


def test_layer_flops_count_padding_only_in_computed():
    f = tracing.layer_flops(2, 4, [4, 2], d=8, d_ff=32)
    assert f["proj.computed"] == 8 * 2 * 4 * 64
    assert f["attn.computed"] == 4 * 2 * 16 * 8
    assert f["ffn.computed"] == 4 * 2 * 4 * 8 * 32
    assert f["proj.useful"] == 8 * 6 * 64
    assert f["attn.useful"] == 4 * (16 + 4) * 8
    assert f["ffn.useful"] == 4 * 6 * 8 * 32
