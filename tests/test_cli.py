"""The command line, run in-process on a tiny synthetic corpus."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import lexfuse
from lexfuse import cli
from lexfuse.pipeline import load_checkpoint

ENCODER = {"d_model": 8, "n_heads": 2, "d_ff": 16, "n_layers": 2, "fusion_layer": 1}
TRAINING = {"epochs": 1, "batch_size": 8, "max_len": 16, "seed": 3}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """The synthetic inputs, shared read-only; each test writes its config
    and outputs under its own ``tmp_path``."""
    data = tmp_path_factory.mktemp("cli") / "data"
    assert cli.main(["synth", "--n-pos", "6", "--n-neg", "12", "--dim", "6",
                     "--seed", "1", "--out-dir", str(data)]) == 0
    return data


def write_config(tmp_path, data, training=None, **top):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({
        "dataset": {"path": str(data / "dataset.jsonl")},
        "lexicon": str(data / "lexicon.txt"),
        "embeddings": str(data / "vectors.txt"),
        "output_dir": str(tmp_path / "run"),
        "encoder": ENCODER,
        "training": training or TRAINING,
        **top,
    }), encoding="utf-8")
    return path


def test_train_eval_predict(data, tmp_path, capsys):
    config = write_config(tmp_path, data)
    assert cli.main(["train", "--config", str(config)]) == 0
    run = tmp_path / "run"
    for name in ("checkpoint.bin", "history.jsonl", "effective_config.yaml"):
        assert (run / name).is_file(), name
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["files"]) == {"checkpoint.bin", "history.jsonl", "effective_config.yaml"}

    ckpt = str(run / "checkpoint.bin")
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", str(data / "dataset.jsonl"),
                     "--out-dir", str(tmp_path / "eval")]) == 0
    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["tp"] + metrics["fp"] + metrics["fn"] + metrics["tn"] == 18

    capsys.readouterr()
    assert cli.main(["predict", "--checkpoint", ckpt, "--text", "a plain sentence"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["label"] in (0, 1)
    assert sum(result["probabilities"]) == pytest.approx(1.0)


def test_unknown_training_key_is_named(data, tmp_path, capsys):
    config = write_config(tmp_path, data, dict(TRAINING, learning_rat=0.1))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "unknown training keys" in err and "learning_rat" in err


def test_train_has_no_jobs_flag(data, tmp_path, capsys):
    config = write_config(tmp_path, data)
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--config", str(config), "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "cv", "ablate", "gradcheck"])
def test_no_command_has_a_loss_flag(data, tmp_path, capsys, command):
    """The loss is set by ``training.gamma`` alone; gradcheck always checks
    gamma 2 and gamma 0."""
    config = [] if command == "gradcheck" else ["--config", str(write_config(tmp_path, data))]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *config, "--loss", "cross_entropy"])
    assert exc.value.code == 2
    assert "--loss" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("fusion_layer", 1), ("keyword_scope", "both"), ("loss_kind", "focal")]
)
def test_retired_training_keys_are_named(data, tmp_path, capsys, key, value):
    """The fusion layer is set under ``encoder``; keywords are always marked
    in both segments; the loss is set by ``gamma`` (0 is cross entropy)."""
    config = write_config(tmp_path, data, dict(TRAINING, **{key: value}))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "unknown training keys" in err and key in err


def test_encoder_dropout_rate_is_a_config_error_naming_the_training_key(data, tmp_path, capsys):
    """``train`` applies ``training.dropout_rate`` to the encoder, so an
    encoder rate would be ignored; it is rejected before the run directory
    is written."""
    config = write_config(tmp_path, data, encoder=dict(ENCODER, dropout_rate=0.3))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "training.dropout_rate" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    with pytest.raises(cli.ConfigError, match="training.dropout_rate"):
        cli.RunConfig.from_dict({"encoder": {"dropout_rate": 0.0}})


def test_effective_config_and_checkpoint_round_trip(data, tmp_path):
    """The echoed config loads as a run config, and a checkpoint header,
    which still records the encoder's dropout rate, loads."""
    config = write_config(tmp_path, data, dict(TRAINING, dropout_rate=0.2))
    assert cli.main(["train", "--config", str(config)]) == 0
    run = tmp_path / "run"
    echoed = cli.RunConfig.from_file(run / "effective_config.yaml")
    assert echoed.training.dropout_rate == 0.2
    assert load_checkpoint(run / "checkpoint.bin").enc_cfg.dropout_rate == 0.2


@pytest.mark.parametrize("rate", [1.5, -0.2, 1.0])
def test_bad_dropout_rate_is_a_config_error_exit_code(data, capsys, tmp_path, rate):
    """An out-of-range dropout rate is rejected with the config, before the
    run directory is written."""
    config = write_config(tmp_path, data, dict(TRAINING, dropout_rate=rate), output_dir=str(tmp_path / "bad"))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "dropout_rate" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("seed", -1, id="-1"),
        pytest.param("seed", 1.5, id="1.5"),
        pytest.param("seed", "3", id="3"),
        ("batch_size", 2.5),
        ("epochs", 1.5),
        ("h_max", 2.5),
        ("max_len", 10.5),
        ("min_freq", -3),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("gamma", float("nan")),
        ("gamma", float("inf")),
    ],
)
def test_bad_seed_is_a_config_error_exit_code(data, capsys, tmp_path, key, value):
    """A seed that is not an integer >= 0, another count that is not an
    integer in range, or a learning rate or gamma that is not finite is
    rejected with the config, before the run directory is written."""
    config = write_config(tmp_path, data, dict(TRAINING, **{key: value}), output_dir=str(tmp_path / "bad"))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "0", "epochs must be >= 1"),
    ("--seed", "-1", "seed must be >= 0"),
], ids=["epochs", "seed"])
def test_bad_flag_override_is_a_config_error_exit_code(data, capsys, tmp_path, flag, value, message):
    """A flag value is checked as the same value in the config is, before
    the run directory is written."""
    config = write_config(tmp_path, data, output_dir=str(tmp_path / "bad"))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config), flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


ENCODER_FAULTS = [
    (key, value, f"{key} must be >= 1") for value in (0, -2) for key in ("d_model", "n_heads", "n_layers")
] + [
    ("d_model", 128.0, "d_model must be an integer"),
    ("n_heads", 2.0, "n_heads must be an integer"),
    ("fusion_layer", 1.5, "fusion_layer must be an integer"),
    ("d_ff", -5, "d_ff must be >= 0"),
]


@pytest.mark.parametrize(
    "key, value, message", ENCODER_FAULTS, ids=[f"{value}-{key}" for key, value, _ in ENCODER_FAULTS]
)
def test_bad_encoder_size_is_a_config_error_exit_code(data, capsys, tmp_path, key, value, message):
    """A non-positive or non-integer size is named as such, not as a
    division by zero, a fusion-layer range error or a later TypeError."""
    config = write_config(tmp_path, data, encoder=dict(ENCODER, **{key: value}), output_dir=str(tmp_path / "bad"))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert not (tmp_path / "bad").exists()


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


def test_bad_cv_folds_is_a_config_error_exit_code(data, tmp_path, capsys):
    config = write_config(tmp_path, data, cv_folds="x")
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
def test_bad_path_field_is_a_config_error_exit_code(data, tmp_path, capsys, top, field):
    config = write_config(tmp_path, data, **top)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 2
    assert f"{field} must be a path string" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--dim", "0", "dim must be >= 1"),
    ("--dim", "-3", "dim must be >= 1"),
    ("--n-pos", "0", "n_pos"),
    ("--vocab-size", "0", "vocab_size"),
], ids=["dim-0", "dim-negative", "n-pos-0", "vocab-size-0"])
def test_bad_synth_size_is_a_config_error_exit_code(capsys, tmp_path, flag, value, message):
    """``synth`` checks every size before it writes anything, so a bad one
    leaves no run directory behind (each case writes to its own)."""
    out = tmp_path / "bad-synth"
    assert cli.main(["synth", "--out-dir", str(out), flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "cv", "ablate"])
def test_malformed_vectors_exit_2_before_the_run_directory(data, capsys, tmp_path, command):
    """The lexicon and vectors load before the run directory is created,
    so a vectors file that does not parse exits 2, names its line, and
    leaves nothing behind."""
    vectors = tmp_path / "bad-vectors.txt"
    vectors.write_text("2 3\napple 1 0 0\npear 0 1\n", encoding="utf-8")
    config = write_config(tmp_path, data, embeddings=str(vectors), output_dir=str(tmp_path / "bad"))
    capsys.readouterr()
    assert cli.main([command, "--config", str(config)]) == 2
    assert f"{vectors}:3: expected 3 components, found 2" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command", ["train", "cv", "ablate"])
def test_non_finite_vectors_exit_2_before_the_run_directory(data, capsys, tmp_path, command):
    """A ``nan`` component is a format error naming its line and token,
    like a component that does not parse."""
    vectors = tmp_path / "nan-vectors.txt"
    vectors.write_text("2 3\napple 1 0 0\npear 0 nan 1\n", encoding="utf-8")
    config = write_config(tmp_path, data, embeddings=str(vectors))
    capsys.readouterr()
    assert cli.main([command, "--config", str(config)]) == 2
    assert f"{vectors}:3: non-finite component 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


DATASET_FAULTS = [
    pytest.param('{"text": "a plain post"}\n', ":1: record must be an object with 'text' and 'label'", id="no-label"),
    pytest.param('{"text": "a", "label": 0}\n{"text": "b", "label": 2}\n', ":2: label must be 0 or 1, got 2", id="label-2"),
    pytest.param('{"text": "a", "label": 0}\nnot json\n', ":2: invalid JSON", id="not-json"),
]


@pytest.mark.parametrize("text, message", DATASET_FAULTS)
@pytest.mark.parametrize("command", ["train", "cv", "ablate"])
def test_malformed_dataset_exits_2_before_the_run_directory(data, capsys, tmp_path, command, text, message):
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text(text, encoding="utf-8")
    config = write_config(tmp_path, data, dataset={"path": str(dataset)})
    capsys.readouterr()
    assert cli.main([command, "--config", str(config)]) == 2
    assert f"{dataset}{message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, message", DATASET_FAULTS)
def test_malformed_eval_dataset_exits_2_and_writes_nothing(data, capsys, tmp_path, text, message):
    assert cli.main(["train", "--config", str(write_config(tmp_path, data))]) == 0
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text(text, encoding="utf-8")
    out = tmp_path / "eval"
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                     "--dataset", str(dataset), "--out-dir", str(out)]) == 2
    assert f"{dataset}{message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "cv", "ablate"])
def test_non_utf8_lexicon_exits_2_before_the_run_directory(data, capsys, tmp_path, command):
    """A lexicon file that is not UTF-8 is a format error naming its line,
    like a malformed vectors or dataset file."""
    lexicon = tmp_path / "latin1.txt"
    lexicon.write_bytes(b"ache\nna\xefve\n")
    config = write_config(tmp_path, data, lexicon=str(lexicon))
    capsys.readouterr()
    assert cli.main([command, "--config", str(config)]) == 2
    assert f"{lexicon}:2: not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_build_lexicon_bad_phrase_file_exits_2_and_writes_nothing(capsys, tmp_path):
    phrases = tmp_path / "latin1.txt"
    phrases.write_bytes(b"unable to walk\nna\xefve headache\n")
    out = tmp_path / "dict.txt"
    assert cli.main(["build-lexicon", str(phrases), str(out)]) == 2
    assert f"{phrases}:2: not valid UTF-8" in capsys.readouterr().err
    assert not out.exists()
    missing = tmp_path / "nope.txt"
    assert cli.main(["build-lexicon", str(missing), str(out)]) == 2
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


def test_build_lexicon_bad_min_word_length_exits_2_and_writes_nothing(capsys, tmp_path):
    phrases = tmp_path / "phrases.txt"
    phrases.write_text("unable to walk\n", encoding="utf-8")
    out = tmp_path / "dict.txt"
    assert cli.main(["build-lexicon", str(phrases), str(out), "--min-word-length", "0"]) == 2
    assert "error: min_word_length must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_truncated_checkpoint_exits_2_naming_the_file(data, capsys, tmp_path):
    assert cli.main(["train", "--config", str(write_config(tmp_path, data))]) == 0
    ckpt = tmp_path / "run" / "checkpoint.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:-3])
    out = tmp_path / "eval"
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data / "dataset.jsonl"),
                     "--out-dir", str(out)]) == 2
    assert f"error: {ckpt}: checkpoint truncated while reading data of" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--text", "a plain post"]) == 2
    assert f"error: {ckpt}: checkpoint truncated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, rule",
    [
        ("gradcheck", "--eps", "0", "must be > 0, got 0"),
        ("gradcheck", "--eps", "nan", "must be > 0, got nan"),
        ("gradcheck", "--tolerance", "-1", "must be >= 0, got -1"),
        ("cv", "--jobs", "0", "must be >= 1, got 0"),
        ("ablate", "--jobs", "-2", "must be >= 1, got -2"),
    ],
)
def test_out_of_range_flag_exits_2_naming_it(data, tmp_path, capsys, command, flag, value, rule):
    """Flags outside the run config are checked by the parser: a value out
    of range exits 2 before any work, naming the flag and its rule."""
    config = [] if command == "gradcheck" else ["--config", str(write_config(tmp_path, data))]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *config, f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: {rule}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_malformed_number_flag_keeps_argparse_message(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", "--eps", "tiny"])
    assert exc.value.code == 2
    assert "argument --eps: invalid float value: 'tiny'" in capsys.readouterr().err


BLAS_THREADS_CHILD = """
import ctypes, pathlib, sys
import numpy as np, scipy

def bundled(package, lib_dir, pattern, suffix):
    libs = sorted((pathlib.Path(package.__file__).resolve().parent.parent / lib_dir).glob(pattern))
    blas = ctypes.CDLL(str(libs[0])) if libs else None
    if blas is None or not hasattr(blas, "scipy_openblas_set_num_threads" + suffix):
        return None
    return getattr(blas, "scipy_openblas_set_num_threads" + suffix), getattr(blas, "scipy_openblas_get_num_threads" + suffix)

numpy_blas = bundled(np, "numpy.libs", "libscipy_openblas64_*.so", "64_")
if numpy_blas is None:
    print("absent")
    raise SystemExit(0)
blas = [numpy_blas] + [b for b in [bundled(scipy, "scipy.libs", "libscipy_openblas-*.so", "")] if b]
for set_threads, _ in blas:
    set_threads(2)
import lexfuse.cli
assert [get() for _, get in blas] == [2] * len(blas), "import"
assert lexfuse.cli.main(["synth", "--out-dir", sys.argv[1]]) == 0
print(*(get() for _, get in blas))
"""


@pytest.mark.parametrize(
    "variable, threads",
    [(None, 1), ("OPENBLAS_NUM_THREADS", 2), ("OMP_NUM_THREADS", 2), ("MKL_NUM_THREADS", 2)],
)
def test_cli_caps_blas_threads_unless_the_environment_sets_them(tmp_path, variable, threads):
    """In a fresh interpreter whose OpenBLAS runs 2 threads, importing the
    package changes nothing, and ``main`` sets one thread only when no BLAS
    thread variable is set.  Where scipy bundles its own OpenBLAS with a
    thread-count setter, ``main`` leaves that copy at 2 threads in every
    case: lexfuse calls no scipy BLAS routine."""
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARIABLES}
    if variable:
        env[variable] = "2"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(lexfuse.__file__).resolve().parents[1]),
                                                      os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", BLAS_THREADS_CHILD, str(tmp_path / "synth")],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    if child.stdout.split()[-1] == "absent":
        pytest.skip("numpy's bundled OpenBLAS has no thread-count symbol")
    numpy_count, *scipy_count = child.stdout.splitlines()[-1].split()
    assert numpy_count == str(threads)
    assert scipy_count in ([], ["2"])
