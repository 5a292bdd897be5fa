"""Experiment harness: stratified cross-validation, evaluation, ablations.

Each fold rebuilds every training-side artifact (vocabulary, keyword
extraction, synonym catalog) from its training portion only; a leakage
guard recomputes those sets independently and fails the run if anything
from the held-out fold influenced them.  The guard collects every
violation before it raises, so one error lists each kind of leak
(vocabulary, synonym catalog) with its count.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import Dataset
from .embedding import EmbeddingTable, RESERVED
from .encoder import EncoderConfig
from .lexicon import extract_keywords
from .metrics import Metrics, metrics_from_predictions
from .params import TrainConfig
from .pipeline import (
    TrainedModel,
    predict_labels,
    prepare_dataset,
    train,
)
from .preprocessing import PreprocessRules, preprocess

__all__ = [
    "FoldPlan",
    "LeakageError",
    "CVResult",
    "AblationRow",
    "ABLATION_VARIANTS",
    "stratified_kfold",
    "evaluate",
    "run_cv",
    "run_ablation",
    "format_metrics_table",
    "write_ablation_csv",
]


class LeakageError(AssertionError):
    """Raised when a held-out fold influenced a training-side artifact."""


@dataclass(frozen=True)
class FoldPlan:
    """Example index -> fold id, stratified by class."""

    assignments: np.ndarray
    k: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def stratified_kfold(dataset: Dataset, k: int, seed: int = 0) -> FoldPlan:
    """Seeded stratified fold assignment.

    Indices of each class are shuffled and dealt round-robin, so per-fold
    positive counts differ by at most one.  Each class must have at least
    ``k`` examples.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    labels = dataset.labels()
    rng = np.random.default_rng(seed)
    assignments = np.full(len(dataset), -1, dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        if 0 < len(idx) < k:
            raise ValueError(f"class {cls} has {len(idx)} examples, fewer than k={k}")
        rng.shuffle(idx)
        assignments[idx] = np.arange(len(idx)) % k
    return FoldPlan(assignments, k)


def evaluate(model: TrainedModel, dataset: Dataset, rules: PreprocessRules | None = None) -> Metrics:
    """Positive-class precision/recall/F1 of argmax predictions."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    inputs, contexts, labels = prepare_dataset(model, dataset, rules)
    return metrics_from_predictions(labels, predict_labels(model, inputs, contexts))


def _check_fold_isolation(model: TrainedModel, train_texts: list, trie: frozenset | None) -> None:
    """Recompute training-side artifacts independently and compare.

    The model's vocabulary must only contain words of the training fold,
    and its synonym catalog must only cover keywords extracted from the
    training fold.  Both checks always run; if either finds a violation,
    a single ``LeakageError`` lists each kind found with its count and
    its first five words, sorted.
    """
    train_tokens: set = set()
    train_keywords: set = set()
    for text in train_texts:
        toks = preprocess(text)
        train_tokens.update(toks)
        if trie is not None:
            train_keywords.update(extract_keywords(toks, trie))
    vocab_words = set(model.vocab.id_to_word) - set(RESERVED)
    leaks = {
        "vocabulary contains non-training words": vocab_words - train_tokens,
        "synonym catalog covers non-training keywords": set(model.keyword_syn_ids) - train_keywords,
    }
    violations = [
        f"{what} ({len(words)}): {sorted(words)[:5]}" for what, words in leaks.items() if words
    ]
    if violations:
        raise LeakageError("; ".join(violations))


@dataclass
class CVResult:
    fold_metrics: list

    @property
    def mean_precision(self) -> float:
        return float(np.mean([m.precision for m in self.fold_metrics]))

    @property
    def mean_recall(self) -> float:
        return float(np.mean([m.recall for m in self.fold_metrics]))

    @property
    def mean_f1(self) -> float:
        return float(np.mean([m.f1 for m in self.fold_metrics]))

    def as_dict(self) -> dict:
        return {
            "folds": [m.as_dict() for m in self.fold_metrics],
            "mean": {
                "precision": self.mean_precision,
                "recall": self.mean_recall,
                "f1": self.mean_f1,
            },
        }


def _fold_seed(base_seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([base_seed, fold]).generate_state(1)[0])


def _run_fold(args) -> Metrics:
    """Train fold ``fold`` on its training part, with no dev set, check it
    for leakage, and score it once on its held-out part."""
    (fold, train_cfg, enc_cfg, dataset, plan, trie, table) = args
    train_ds = dataset.subset(plan.train_indices(fold), f"{dataset.name}-train{fold}")
    test_ds = dataset.subset(plan.test_indices(fold), f"{dataset.name}-test{fold}")
    fold_cfg = replace(train_cfg, seed=_fold_seed(train_cfg.seed, fold))
    model = train(fold_cfg, enc_cfg, train_ds, trie=trie, table=table).model
    _check_fold_isolation(model, train_ds.texts(), trie)
    return evaluate(model, test_ds)


def run_cv(
    train_cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    dataset: Dataset,
    k: int = 5,
    trie: frozenset | None = None,
    table: EmbeddingTable | None = None,
    jobs: int = 1,
) -> CVResult:
    """Stratified k-fold cross-validation.

    Every fold trains from scratch on its own training portion and is
    scored once, after training, on its held-out part; results are
    averaged over folds.  Fold seeds derive deterministically from the
    base seed, so results do not depend on ``jobs``.
    """
    plan = stratified_kfold(dataset, k, train_cfg.seed)
    tasks = [(fold, train_cfg, enc_cfg, dataset, plan, trie, table) for fold in range(k)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return CVResult(list(pool.map(_run_fold, tasks)))
    return CVResult([_run_fold(t) for t in tasks])


ABLATION_VARIANTS = (
    ("full", {}),
    ("no_keywords", {"enable_keywords": False}),
    ("no_synonyms", {"enable_synonyms": False}),
    ("cross_entropy", {"gamma": 0.0}),
    ("no_keywords_no_synonyms", {"enable_keywords": False, "enable_synonyms": False}),
    ("baseline", {"enable_keywords": False, "enable_synonyms": False, "gamma": 0.0}),
)


@dataclass(frozen=True)
class AblationRow:
    variant: str
    precision: float
    recall: float
    f1: float
    delta_f1: float

    def as_dict(self) -> dict:
        return asdict(self)


def run_ablation(
    train_cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    dataset: Dataset,
    k: int = 5,
    trie: frozenset | None = None,
    table: EmbeddingTable | None = None,
    jobs: int = 1,
) -> list:
    """Cross-validate the six model variants and report F1 deltas.

    Rows: the full model, keyword segment removed, synonym fusion
    removed, focal loss replaced by cross entropy (i.e. ``gamma=0``),
    both knowledge paths removed, and the plain encoder baseline, which
    also trains with cross entropy.
    """
    rows: list = []
    full_f1 = None
    for variant, overrides in ABLATION_VARIANTS:
        cfg = replace(train_cfg, **overrides)
        cv = run_cv(cfg, enc_cfg, dataset, k, trie=trie, table=table, jobs=jobs)
        if full_f1 is None:
            full_f1 = cv.mean_f1
        rows.append(
            AblationRow(
                variant=variant,
                precision=cv.mean_precision,
                recall=cv.mean_recall,
                f1=cv.mean_f1,
                delta_f1=cv.mean_f1 - full_f1,
            )
        )
    return rows


def format_metrics_table(rows: list, headers: list) -> str:
    """Aligned-column text table from dict rows."""
    def fmt(v):
        return f"{v:.4f}" if isinstance(v, float) else str(v)

    cells = [[fmt(r[h]) for h in headers] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def write_ablation_csv(rows: list, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=[fl.name for fl in fields(AblationRow)])
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_dict())
