"""Synthetic corpus and word-vector generators reject sizes they cannot honour."""
import pytest

from lexfuse.data import SynthSpec, generate_synthetic, generate_synthetic_vectors


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_pos": 0}, "n_pos"),
        ({"vocab_size": 0}, "vocab_size"),
        ({"min_fillers": -1}, "min_fillers"),
        ({"min_fillers": 5, "max_fillers": 4}, "min_fillers"),
    ],
)
def test_synth_spec_rejects_bad_sizes(fields, message):
    with pytest.raises(ValueError, match=message):
        SynthSpec(**{"n_pos": 2, "n_neg": 2, **fields})


def test_synth_spec_edge_sizes_generate():
    ds, lex = generate_synthetic(SynthSpec(n_pos=2, n_neg=2, vocab_size=1, min_fillers=0, max_fillers=0))
    assert len(ds) == 4 and lex


def test_vectors_hold_three_variants_per_word():
    table = generate_synthetic_vectors(["ache", "rash"], dim=3)
    assert table.words == ["ache", "acheine", "acheol", "acheex", "rash", "rashine", "rashol", "rashex"]
    assert table.dim == 3


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"dim": 0}, "dim"),
        ({"dim": -3}, "dim"),
    ],
)
def test_vectors_reject_what_they_cannot_honour(kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate_synthetic_vectors(["ache"], **kwargs)
