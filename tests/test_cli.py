"""The command line, run in-process on a tiny synthetic corpus."""
import json

import pytest
import yaml

from lexfuse import cli

ENCODER = {"d_model": 8, "n_heads": 2, "d_ff": 16, "n_layers": 2, "fusion_layer": 1}
TRAINING = {"epochs": 1, "batch_size": 8, "max_len": 16, "seed": 3}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["synth", "--n-pos", "6", "--n-neg", "12", "--dim", "6",
                     "--seed", "1", "--out-dir", str(data)]) == 0
    return root, data


def write_config(root, data, training=None, **top):
    path = root / "run.yaml"
    path.write_text(yaml.safe_dump({
        "dataset": {"path": str(data / "dataset.jsonl")},
        "lexicon": str(data / "lexicon.txt"),
        "embeddings": str(data / "vectors.txt"),
        "output_dir": str(root / "run"),
        "encoder": ENCODER,
        "training": training or TRAINING,
        **top,
    }), encoding="utf-8")
    return path


def test_train_eval_predict(corpus, capsys):
    root, data = corpus
    config = write_config(root, data)
    assert cli.main(["train", "--config", str(config)]) == 0
    run = root / "run"
    for name in ("checkpoint.bin", "history.jsonl", "effective_config.yaml"):
        assert (run / name).is_file(), name
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["files"]) == {"checkpoint.bin", "history.jsonl", "effective_config.yaml"}

    ckpt = str(run / "checkpoint.bin")
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", str(data / "dataset.jsonl"),
                     "--out-dir", str(root / "eval")]) == 0
    metrics = json.loads((root / "eval" / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["tp"] + metrics["fp"] + metrics["fn"] + metrics["tn"] == 18

    capsys.readouterr()
    assert cli.main(["predict", "--checkpoint", ckpt, "--text", "a plain sentence"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["label"] in (0, 1)
    assert sum(result["probabilities"]) == pytest.approx(1.0)


def test_unknown_training_key_is_named(corpus, capsys):
    root, data = corpus
    config = write_config(root, data, dict(TRAINING, learning_rat=0.1))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "unknown training keys" in err and "learning_rat" in err


def test_train_has_no_jobs_flag(corpus, capsys):
    root, data = corpus
    config = write_config(root, data)
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--config", str(config), "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("fusion_layer", 1), ("keyword_scope", "both")])
def test_retired_training_keys_are_named(corpus, capsys, key, value):
    """The fusion layer is set under ``encoder``; keywords are always marked
    in both segments."""
    root, data = corpus
    config = write_config(root, data, dict(TRAINING, **{key: value}))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "unknown training keys" in err and key in err


@pytest.mark.parametrize("rate", [1.5, -0.2, 1.0])
def test_bad_dropout_rate_is_a_config_error_exit_code(corpus, capsys, rate):
    """An out-of-range dropout rate is rejected with the config, before the
    run directory is written."""
    root, data = corpus
    config = write_config(root, data, dict(TRAINING, dropout_rate=rate), output_dir=str(root / "bad"))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "dropout_rate" in capsys.readouterr().err
    assert not (root / "bad").exists()


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_bad_seed_is_a_config_error_exit_code(corpus, capsys, seed):
    """A seed that is not an integer >= 0 is rejected with the config, before
    the run directory is written."""
    root, data = corpus
    config = write_config(root, data, dict(TRAINING, seed=seed), output_dir=str(root / "bad"))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (root / "bad").exists()


@pytest.mark.parametrize("key", ["d_model", "n_heads", "n_layers"])
@pytest.mark.parametrize("value", [0, -2])
def test_bad_encoder_size_is_a_config_error_exit_code(corpus, capsys, key, value):
    """A non-positive size is named as such, not as a division by zero or a
    fusion-layer range error."""
    root, data = corpus
    config = write_config(root, data, encoder=dict(ENCODER, **{key: value}), output_dir=str(root / "bad"))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be >= 1" in err
    assert not (root / "bad").exists()


@pytest.mark.parametrize("value", [2.9, 2.0, True, "x", "3", 1])
def test_cv_folds_must_be_an_integer_of_at_least_two(value):
    with pytest.raises(cli.ConfigError, match="cv_folds"):
        cli.RunConfig.from_dict({"cv_folds": value})


@pytest.mark.parametrize("value", ["x", "0.2", True, None, 1.0, -0.1, float("nan")])
def test_dev_fraction_must_be_a_number_in_range(value):
    with pytest.raises(cli.ConfigError, match="dev_fraction"):
        cli.RunConfig.from_dict({"dev_fraction": value})


def test_valid_fold_count_and_dev_fraction_are_kept():
    cfg = cli.RunConfig.from_dict({"cv_folds": 3, "dev_fraction": 0})
    assert cfg.cv_folds == 3 and isinstance(cfg.cv_folds, int)
    assert cfg.dev_fraction == 0.0 and isinstance(cfg.dev_fraction, float)
    assert cli.RunConfig.from_dict({"dev_fraction": 0.25}).dev_fraction == 0.25


def test_bad_cv_folds_is_a_config_error_exit_code(corpus, capsys):
    root, data = corpus
    config = write_config(root, data, cv_folds="x")
    capsys.readouterr()
    assert cli.main(["cv", "--config", str(config)]) == 2
    assert "cv_folds" in capsys.readouterr().err


def test_absent_optional_paths_stay_none():
    cfg = cli.RunConfig.from_dict({"lexicon": None, "dataset": {"format": "csv"}})
    assert cfg.lexicon_path is None and cfg.embeddings_path is None and cfg.dataset_path is None
    assert cfg.output_dir == "lexfuse-out"


@pytest.mark.parametrize(
    "top, field",
    [
        ({"lexicon": 5}, "lexicon"),
        ({"embeddings": 5}, "embeddings"),
        ({"embeddings": ["a.txt"]}, "embeddings"),
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": None}, "output_dir"),
        ({"dataset": {"path": 5}}, "dataset.path"),
    ],
    ids=["lexicon", "embeddings", "embeddings-list", "output_dir", "output_dir-null", "dataset.path"],
)
def test_bad_path_field_is_a_config_error_exit_code(corpus, capsys, top, field):
    root, data = corpus
    config = write_config(root, data, **top)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    assert f"{field} must be a path string" in capsys.readouterr().err
