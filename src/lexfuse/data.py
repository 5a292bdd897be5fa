"""Dataset ingestion, statistics, and a synthetic corpus generator.

Datasets are flat lists of (raw_text, binary label) pairs.  Two file
formats are supported: JSONL with ``text`` and ``label`` fields, and CSV
with a ``text,label`` header.  The synthetic generator builds desk-scale
corpora whose positive class requires the co-occurrence of a drug token
and a side-effect keyword, so keyword presence alone does not determine
the label.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .embedding import EmbeddingTable

__all__ = [
    "Dataset",
    "DatasetStats",
    "DatasetFormatError",
    "load_dataset",
    "save_dataset",
    "dataset_stats",
    "SynthSpec",
    "generate_synthetic",
    "generate_synthetic_vectors",
]


class DatasetFormatError(ValueError):
    """Raised for malformed dataset records."""


@dataclass
class Dataset:
    """Examples in input order: (raw_text, label) with label in {0, 1}."""

    examples: list
    name: str = "dataset"

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator:
        return iter(self.examples)

    def texts(self) -> list:
        return [t for t, _ in self.examples]

    def labels(self) -> np.ndarray:
        return np.array([y for _, y in self.examples], dtype=np.int64)

    def subset(self, indices: Sequence[int], name: str | None = None) -> "Dataset":
        return Dataset([self.examples[i] for i in indices], name or self.name)


def _check_label(value, where: str) -> int:
    if isinstance(value, bool):
        pass
    elif isinstance(value, int) and value in (0, 1):
        return value
    elif isinstance(value, float) and value in (0.0, 1.0):
        return int(value)
    elif isinstance(value, str) and value.strip() in ("0", "1"):
        return int(value.strip())
    raise DatasetFormatError(f"{where}: label must be 0 or 1, got {value!r}")


def load_dataset(path: str | Path, format: str = "jsonl") -> Dataset:
    """Read a dataset file, preserving input order; the dataset is named
    after the file's stem.

    Malformed records raise :class:`DatasetFormatError` with the line
    number; labels other than 0/1 are rejected.
    """
    path = Path(path)
    examples: list = []
    if format == "jsonl":
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DatasetFormatError(f"{path}:{lineno}: invalid JSON ({e})") from e
                if not isinstance(rec, dict) or "text" not in rec or "label" not in rec:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: record must be an object with 'text' and 'label'"
                    )
                examples.append((str(rec["text"]), _check_label(rec["label"], f"{path}:{lineno}")))
    elif format == "csv":
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or not {"text", "label"} <= set(reader.fieldnames):
                raise DatasetFormatError(f"{path}: CSV header must contain 'text' and 'label'")
            for lineno, rec in enumerate(reader, start=2):
                examples.append((rec["text"], _check_label(rec["label"], f"{path}:{lineno}")))
    else:
        raise ValueError(f"unknown dataset format {format!r} (expected 'jsonl' or 'csv')")
    return Dataset(examples, path.stem)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as JSONL."""
    with open(path, "w", encoding="utf-8") as f:
        for text, label in dataset:
            f.write(json.dumps({"text": text, "label": int(label)}) + "\n")


@dataclass(frozen=True)
class DatasetStats:
    positive: int
    negative: int
    ratio: str  # negative:positive, rounded, e.g. "1:8"


def dataset_stats(dataset: Dataset) -> DatasetStats:
    """Class counts and the rounded negative:positive ratio."""
    if len(dataset) == 0:
        raise ValueError("dataset_stats requires a nonempty dataset")
    labels = dataset.labels()
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    ratio = f"1:{round(neg / pos)}" if pos else "1:inf"
    return DatasetStats(pos, neg, ratio)


# -- synthetic corpus ---------------------------------------------------

_CONSONANTS = "bcdfglmnprstvz"
_VOWELS = "aeiou"
_VARIANT_SUFFIXES = ("ine", "ol", "ex")
_N_KEYWORDS = 6
_N_DRUGS = 3


def _pseudo_words(rng: np.random.Generator, count: int, taken: set, syllables: int = 3) -> list:
    """Distinct pronounceable pseudo-words, deterministic under the RNG."""
    words: list = []
    while len(words) < count:
        w = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        )
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a synthetic corpus.

    ``keyword_signal`` in [0, 1] is the probability that an example
    follows the label rule (positives = drug + side-effect keyword); the
    remaining examples draw their content independently of the label, so
    0 produces labels with no learnable signal.
    """

    n_pos: int
    n_neg: int
    vocab_size: int = 30
    keyword_signal: float = 1.0
    seed: int = 0
    min_fillers: int = 3
    max_fillers: int = 7

    def __post_init__(self):
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError("n_pos and n_neg must be >= 1")
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if not (0 <= self.min_fillers <= self.max_fillers):
            raise ValueError(
                f"need 0 <= min_fillers <= max_fillers, got {self.min_fillers} and {self.max_fillers}"
            )
        if not (0.0 <= self.keyword_signal <= 1.0):
            raise ValueError(f"keyword_signal must be in [0, 1], got {self.keyword_signal}")


def generate_synthetic(spec: SynthSpec):
    """Build a synthetic dataset and its side-effect lexicon.

    Returns ``(dataset, lexicon_words)``.  Positive texts contain a drug
    token plus at least one side-effect keyword; negatives contain
    keywords without a drug, or neither, so the model must learn the
    conjunction rather than bare keyword presence.
    """
    rng = np.random.default_rng(spec.seed)
    taken: set = set()
    keywords = _pseudo_words(rng, _N_KEYWORDS, taken)
    drugs = _pseudo_words(rng, _N_DRUGS, taken)
    fillers = _pseudo_words(rng, spec.vocab_size, taken, syllables=2)

    def fill(n: int) -> list:
        return [fillers[i] for i in rng.integers(len(fillers), size=n)]

    def make_content(kind: str) -> list:
        toks = fill(int(rng.integers(spec.min_fillers, spec.max_fillers + 1)))
        if kind == "pos":
            toks.append(drugs[rng.integers(len(drugs))])
            toks.append(keywords[rng.integers(len(keywords))])
            if rng.random() < 0.3:
                toks.append(keywords[rng.integers(len(keywords))])
        elif kind == "kw_only":
            toks.append(keywords[rng.integers(len(keywords))])
        rng.shuffle(toks)
        return toks

    labels = [1] * spec.n_pos + [0] * spec.n_neg
    rng.shuffle(labels)
    kinds = ("pos", "kw_only", "plain")
    examples: list = []
    for y in labels:
        if rng.random() < spec.keyword_signal:
            kind = "pos" if y == 1 else ("kw_only" if rng.random() < 0.5 else "plain")
        else:
            kind = kinds[rng.integers(3)]
        examples.append((" ".join(make_content(kind)), y))
    return Dataset(examples, "synthetic"), keywords


def generate_synthetic_vectors(lexicon_words: Sequence[str], dim: int = 12, seed: int = 0) -> EmbeddingTable:
    """Word vectors where each lexicon word has close synonym variants.

    Each lexicon word gets three suffixed forms (``-ine``, ``-ol``,
    ``-ex``) placed near it in vector space, so cosine nearest-neighbor
    lookup recovers them as synonyms.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    words: list = []
    rows: list = []
    for w in lexicon_words:
        base = rng.normal(size=dim)
        base /= np.linalg.norm(base)
        words.append(w)
        rows.append(base)
        for sfx in _VARIANT_SUFFIXES:
            words.append(w + sfx)
            rows.append(base + rng.normal(scale=0.05, size=dim))
    return EmbeddingTable(words, np.array(rows))
