"""Command-line entry point.

Commands: ``build-lexicon``, ``synth``, ``train``, ``eval``, ``cv``,
``ablate``, ``predict``, ``gradcheck``.  Runs are driven by a YAML
config (strictly validated: unknown keys are rejected) with flag
overrides; every command writes its outputs into the run directory
together with a manifest of file hashes, and training-style commands
echo the effective configuration for provenance.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .data import (
    Dataset,
    DatasetFormatError,
    SynthSpec,
    dataset_stats,
    generate_synthetic,
    generate_synthetic_vectors,
    load_dataset,
    save_dataset,
)
from .embedding import EmbeddingTable, VectorFormatError, load_embedding_table
from .encoder import EncoderConfig
from .harness import (
    AblationRow,
    evaluate,
    format_metrics_table,
    run_ablation,
    run_cv,
    write_ablation_csv,
)
from .lexicon import (
    DictionaryConfig,
    PhraseFormatError,
    build_dictionary,
    build_trie,
    export_dictionary,
    read_phrase_file,
)
from .gradcheck import gradient_check
from .pipeline import CheckpointError, TrainConfig, load_checkpoint, save_checkpoint, save_history, train

__all__ = ["main", "RunConfig", "ConfigError"]


class ConfigError(ValueError):
    """Raised for invalid or unknown run-configuration values."""


def _take(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _path_field(value, name: str, optional: bool = True):
    """``value`` if it is a path string (or None where allowed), else a ConfigError."""
    if value is None and optional:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Declarative description of one experiment run."""

    dataset_path: str | None = None
    dataset_format: str = "jsonl"
    lexicon_path: str | None = None
    embeddings_path: str | None = None
    output_dir: str = "lexfuse-out"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    dev_fraction: float = 0.2
    cv_folds: int = 5

    @classmethod
    def from_dict(cls, raw: dict, base: Path | None = None) -> "RunConfig":
        _take(
            raw,
            {
                "dataset", "lexicon", "embeddings", "output_dir",
                "encoder", "training", "dev_fraction", "cv_folds",
            },
            "config",
        )
        kwargs: dict = {}
        ds = raw.get("dataset")
        if ds is not None:
            if not isinstance(ds, dict):
                raise ConfigError("dataset must be a mapping with 'path' and optional 'format'")
            _take(ds, {"path", "format"}, "dataset")
            kwargs["dataset_path"] = _path_field(ds.get("path"), "dataset.path")
            kwargs["dataset_format"] = ds.get("format", "jsonl")
            if kwargs["dataset_format"] not in ("jsonl", "csv"):
                raise ConfigError(f"dataset.format must be jsonl or csv, got {kwargs['dataset_format']!r}")
        kwargs["lexicon_path"] = _path_field(raw.get("lexicon"), "lexicon")
        kwargs["embeddings_path"] = _path_field(raw.get("embeddings"), "embeddings")
        if "output_dir" in raw:
            kwargs["output_dir"] = _path_field(raw["output_dir"], "output_dir", optional=False)
        try:
            enc = dict(raw.get("encoder", {}))
            if "dropout_rate" in enc:
                # train() applies training.dropout_rate to the encoder, so an
                # encoder rate would be accepted and then ignored.
                raise ConfigError("encoder.dropout_rate is not a setting; set training.dropout_rate")
            _take(enc, {f.name for f in fields(EncoderConfig)}, "encoder")
            kwargs["encoder"] = EncoderConfig(**enc)
            tr = dict(raw.get("training", {}))
            _take(tr, {f.name for f in fields(TrainConfig)}, "training")
            kwargs["training"] = TrainConfig(**tr)
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e
        if "dev_fraction" in raw:
            frac = raw["dev_fraction"]
            if isinstance(frac, bool) or not isinstance(frac, (int, float)) or not 0.0 <= frac < 1.0:
                raise ConfigError(f"dev_fraction must be a number in [0, 1), got {frac!r}")
            kwargs["dev_fraction"] = float(frac)
        if "cv_folds" in raw:
            folds = raw["cv_folds"]
            if isinstance(folds, bool) or not isinstance(folds, int) or folds < 2:
                raise ConfigError(f"cv_folds must be an integer >= 2, got {folds!r}")
            kwargs["cv_folds"] = folds
        cfg = cls(**kwargs)
        if base is not None:
            for attr in ("dataset_path", "lexicon_path", "embeddings_path"):
                value = getattr(cfg, attr)
                if value is not None and not Path(value).is_absolute():
                    setattr(cfg, attr, str(base / value))
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            raw = yaml.safe_load(path.read_text(encoding="utf-8"))
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: invalid YAML ({e})") from e
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        return cls.from_dict(raw, base=path.parent)

    def validate_paths(self) -> None:
        if self.dataset_path is None:
            raise ConfigError("config has no dataset.path")
        if not Path(self.dataset_path).exists():
            raise ConfigError(f"dataset path does not exist: {self.dataset_path}")
        for label, p in (("lexicon", self.lexicon_path), ("embeddings", self.embeddings_path)):
            if p is not None and not Path(p).exists():
                raise ConfigError(f"{label} path does not exist: {p}")

    def as_dict(self) -> dict:
        return {
            "dataset": {"path": self.dataset_path, "format": self.dataset_format},
            "lexicon": self.lexicon_path,
            "embeddings": self.embeddings_path,
            "output_dir": self.output_dir,
            "encoder": {k: v for k, v in asdict(self.encoder).items() if k != "dropout_rate"},
            "training": asdict(self.training),
            "dev_fraction": self.dev_fraction,
            "cv_folds": self.cv_folds,
        }


class _RunDir:
    """Output directory that records a sha256 manifest of written files."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.files: dict = {}

    def register(self, name: str) -> Path:
        self.files[name] = None
        return self.path / name

    def finalize(self) -> None:
        manifest = {}
        for name in sorted(self.files):
            digest = hashlib.sha256((self.path / name).read_bytes()).hexdigest()
            manifest[name] = digest
        (self.path / "manifest.json").write_text(
            json.dumps({"files": manifest}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _echo_config(cfg: RunConfig, rundir: _RunDir) -> None:
    path = rundir.register("effective_config.yaml")
    path.write_text(yaml.safe_dump(cfg.as_dict(), sort_keys=True), encoding="utf-8")


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    changes: dict = {}
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        changes["epochs"] = args.epochs
    if getattr(args, "no_keywords", False):
        changes["enable_keywords"] = False
    if getattr(args, "no_synonyms", False):
        changes["enable_synonyms"] = False
    try:
        cfg.training = replace(cfg.training, **changes)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if getattr(args, "out_dir", None) is not None:
        cfg.output_dir = args.out_dir
    return cfg


def _start_run(args):
    """Config, inputs and run directory of ``train`` / ``cv`` / ``ablate``.

    Every input is loaded before the run directory is created, so a bad
    config or input file leaves nothing behind; :func:`main` turns a
    malformed dataset or vectors file, which names ``path:line``, into
    exit status 2.
    """
    cfg = _apply_overrides(RunConfig.from_file(args.config), args)
    cfg.validate_paths()
    dataset = load_dataset(cfg.dataset_path, cfg.dataset_format)
    trie = None
    if cfg.lexicon_path:
        trie = build_trie(build_dictionary(read_phrase_file(cfg.lexicon_path)))
    table: EmbeddingTable | None = None
    if cfg.embeddings_path:
        table = load_embedding_table(cfg.embeddings_path)
    rundir = _RunDir(cfg.output_dir)
    _echo_config(cfg, rundir)
    return cfg, dataset, trie, table, rundir


def _stratified_dev_split(dataset: Dataset, fraction: float, seed: int):
    if fraction <= 0.0:
        return dataset, None
    labels = dataset.labels()
    rng = np.random.default_rng(seed)
    dev_idx: list = []
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        n_dev = int(round(fraction * len(idx)))
        if len(idx) > 1:
            n_dev = min(max(n_dev, 1), len(idx) - 1)
        else:
            n_dev = 0
        dev_idx.extend(idx[:n_dev])
    dev_idx = sorted(dev_idx)
    train_idx = sorted(set(range(len(dataset))) - set(dev_idx))
    return dataset.subset(train_idx, dataset.name + "-train"), (
        dataset.subset(dev_idx, dataset.name + "-dev") if dev_idx else None
    )


# -- commands ------------------------------------------------------------


def cmd_build_lexicon(args) -> int:
    try:
        cfg = DictionaryConfig(min_word_length=args.min_word_length, strip_digits=not args.keep_digits)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    words = build_dictionary(read_phrase_file(args.phrases), cfg)
    if not words:
        print("warning: dictionary is empty", file=sys.stderr)
    export_dictionary(words, args.out)
    print(f"{len(words)} words")
    return 0


def cmd_synth(args) -> int:
    try:  # everything is generated before the run directory, so bad sizes write nothing
        spec = SynthSpec(
            n_pos=args.n_pos,
            n_neg=args.n_neg,
            vocab_size=args.vocab_size,
            keyword_signal=args.keyword_signal,
            seed=args.seed if args.seed is not None else 0,
        )
        dataset, lexicon = generate_synthetic(spec)
        table = generate_synthetic_vectors(lexicon, dim=args.dim, seed=spec.seed) if args.vectors else None
    except ValueError as e:
        raise ConfigError(str(e)) from e
    rundir = _RunDir(args.out_dir or "lexfuse-out")
    save_dataset(dataset, rundir.register("dataset.jsonl"))
    export_dictionary(lexicon, rundir.register("lexicon.txt"))
    if table is not None:
        table.save(rundir.register("vectors.txt"))
    rundir.finalize()
    stats = dataset_stats(dataset)
    print(f"wrote {len(dataset)} examples to {rundir.path} "
          f"(positive {stats.positive}, negative {stats.negative}, ratio {stats.ratio})")
    return 0


def cmd_train(args) -> int:
    cfg, dataset, trie, table, rundir = _start_run(args)
    train_ds, dev_ds = _stratified_dev_split(dataset, cfg.dev_fraction, cfg.training.seed)
    result = train(cfg.training, cfg.encoder, train_ds, dev_ds, trie=trie, table=table)
    save_checkpoint(result.model, rundir.register("checkpoint.bin"))
    save_history(result.history, rundir.register("history.jsonl"))
    rundir.finalize()
    last = result.history[-1]
    print(f"trained {cfg.training.epochs} epochs; final train_loss={last['train_loss']:.4f} "
          f"dev_f1={last['dev_f1']:.4f}")
    print(f"outputs in {rundir.path}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.dataset, args.format)
    if len(dataset) == 0:
        print("error: evaluation dataset is empty", file=sys.stderr)
        return 2
    metrics = evaluate(model, dataset)
    rundir = _RunDir(args.out_dir or "lexfuse-out")
    rundir.register("metrics.json").write_text(
        json.dumps(metrics.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    table = format_metrics_table(
        [metrics.as_dict()], ["tp", "fp", "fn", "tn", "precision", "recall", "f1"]
    )
    rundir.register("metrics.txt").write_text(table + "\n", encoding="utf-8")
    rundir.finalize()
    print(table)
    return 0


def cmd_cv(args) -> int:
    cfg, dataset, trie, table, rundir = _start_run(args)
    result = run_cv(
        cfg.training, cfg.encoder, dataset, cfg.cv_folds,
        trie=trie, table=table, jobs=args.jobs,
    )
    rundir.register("cv_metrics.json").write_text(
        json.dumps(result.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    rows = [dict(fold=i, **m.as_dict()) for i, m in enumerate(result.fold_metrics)]
    rows.append(
        dict(fold="mean", tp="-", fp="-", fn="-", tn="-",
             precision=result.mean_precision, recall=result.mean_recall, f1=result.mean_f1)
    )
    table_txt = format_metrics_table(rows, ["fold", "precision", "recall", "f1"])
    rundir.register("cv_metrics.txt").write_text(table_txt + "\n", encoding="utf-8")
    rundir.finalize()
    print(table_txt)
    return 0


def cmd_ablate(args) -> int:
    cfg, dataset, trie, table, rundir = _start_run(args)
    rows = run_ablation(
        cfg.training, cfg.encoder, dataset, cfg.cv_folds,
        trie=trie, table=table, jobs=args.jobs,
    )
    write_ablation_csv(rows, rundir.register("ablation.csv"))
    records = [r.as_dict() for r in rows]
    rundir.register("ablation.json").write_text(
        json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    table_txt = format_metrics_table(records, [f.name for f in fields(AblationRow)])
    rundir.register("ablation.txt").write_text(table_txt + "\n", encoding="utf-8")
    rundir.finalize()
    print(table_txt)
    return 0


def cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    result = model.predict(args.text)
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    ok = True
    for gamma in (2.0, 0.0):  # the focal-loss default, and cross entropy
        report = gradient_check(
            gamma=gamma,
            tolerance=args.tolerance,
            eps_fd=args.eps,
            inject_fault=args.inject_fault,
        )
        print(report.format())
        ok = ok and report.passed
    return 0 if ok else 1


def _bounded(convert, test, rule: str):
    """An argparse ``type``: ``convert`` the text, and reject a value that
    fails ``test``, so the parser exits 2 naming the flag and ``rule``."""

    def parse(text: str):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_JOBS = _bounded(int, lambda v: v >= 1, ">= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexfuse",
        description="Lexicon-fused transformer for ADR text classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-lexicon", help="compile a phrase file into a domain dictionary")
    p.add_argument("phrases", help="UTF-8 phrase file, one phrase per line")
    p.add_argument("out", help="output path for the sorted one-word-per-line dictionary")
    p.add_argument("--min-word-length", type=int, default=3)
    p.add_argument("--keep-digits", action="store_true", help="keep tokens containing digits")
    p.set_defaults(func=cmd_build_lexicon)

    p = sub.add_parser("synth", help="generate a synthetic dataset, lexicon, and word vectors")
    p.add_argument("--n-pos", type=int, default=8)
    p.add_argument("--n-neg", type=int, default=64)
    p.add_argument("--vocab-size", type=int, default=30)
    p.add_argument("--keyword-signal", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--vectors", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--dim", type=int, default=12, help="word-vector dimension")
    p.set_defaults(func=cmd_synth)

    def training_flags(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--no-keywords", action="store_true")
        p.add_argument("--no-synonyms", action="store_true")

    p = sub.add_parser("train", help="train a model from a run config")
    training_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="stratified cross-validation")
    training_flags(p)
    p.add_argument("--jobs", type=_JOBS, default=1)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("ablate", help="run the six-variant ablation grid")
    training_flags(p)
    p.add_argument("--jobs", type=_JOBS, default=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one raw text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "gradcheck",
        help="verify analytic gradients against finite differences, for focal loss at "
        "gamma 2 and for cross entropy (gamma 0)",
    )
    p.add_argument("--tolerance", type=_bounded(float, lambda v: v >= 0, ">= 0"), default=1e-4)
    p.add_argument("--eps", type=_bounded(float, lambda v: v > 0, "> 0"), default=1e-5)
    p.add_argument("--inject-fault", default=None, help="corrupt this tensor's gradient (self-test)")
    p.set_defaults(func=cmd_gradcheck)

    return parser


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_blas_thread() -> None:
    """Cap the OpenBLAS that numpy's wheel bundles at one thread, unless
    the environment sets a BLAS thread count.

    Evaluation runs two batches at once, one on a helper thread, and
    OpenBLAS's own worker threads would compete with it for the cores.
    perfbench sets the same cap.  scipy's bundled copy is left as it is,
    because lexfuse calls none of its BLAS routines.  A numpy built against
    another BLAS, or an OpenBLAS without the setter, is left as it is.
    """
    if any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
        return
    lib_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(lib_dir.glob("libscipy_openblas64_*.so")):
        set_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            break


def main(argv=None) -> int:
    _one_blas_thread()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError, DatasetFormatError, VectorFormatError, PhraseFormatError, CheckpointError, FileNotFoundError
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # surface runtime failures with a clean message
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
