"""Synthetic corpus and word-vector generators reject sizes they cannot
honour, dataset files load in order under their file's name, and
dataset statistics count the classes."""
import pytest

from lexfuse.data import (
    Dataset,
    DatasetStats,
    SynthSpec,
    dataset_stats,
    generate_synthetic,
    generate_synthetic_vectors,
    load_dataset,
    save_dataset,
)


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


EXAMPLES = [("felt dizzy after the dose", 1), ('no side effects, "so far"', 0), ("", 0)]


def test_jsonl_round_trip_is_named_after_the_file(tmp_path):
    save_dataset(Dataset(EXAMPLES, "ignored"), tmp_path / "adr_dev.jsonl")
    loaded = load_dataset(tmp_path / "adr_dev.jsonl")
    assert loaded.examples == EXAMPLES and loaded.name == "adr_dev"


def test_csv_loads_in_order_and_is_named_after_the_file(tmp_path):
    path = tmp_path / "adr_train.csv"
    path.write_text('id,text,label\n1,felt dizzy after the dose,1\n2,"no side effects, ""so far""",0\n3,,0\n',
                    encoding="utf-8")
    loaded = load_dataset(path, "csv")
    assert loaded.examples == EXAMPLES and loaded.name == "adr_train"


def test_dataset_stats_counts_classes_and_rounds_the_ratio():
    ds = Dataset([("pos", 1)] * 3 + [("neg", 0)] * 20)
    assert dataset_stats(ds) == DatasetStats(positive=3, negative=20, ratio="1:7")


def test_dataset_stats_without_positives():
    assert dataset_stats(Dataset([("neg", 0)] * 4)) == DatasetStats(positive=0, negative=4, ratio="1:inf")


def test_dataset_stats_rejects_an_empty_dataset():
    with pytest.raises(ValueError, match="nonempty"):
        dataset_stats(Dataset([]))
