"""Output checks that recompute what they check without lexfuse code.

Each check returns a list of failure messages; an empty list means the
outputs are correct.  The benchmark counts every message as one failed
operation.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "oracle_sims",
    "check_catalog",
    "check_probabilities",
    "check_prf",
    "check_tensors_equal",
]

# Cosine similarities closer than this are one tie group: the oracle
# computes them in another order than the library, so exact float
# equality between tied candidates cannot be assumed.
SIM_TIE_TOL = 1e-9


def oracle_sims(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cosine similarity of every row with ``query``; 0 where either
    vector has zero norm."""
    matrix = np.asarray(matrix, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    q_norm = math.sqrt(float(np.dot(query, query)))
    row_norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    sims = np.zeros(matrix.shape[0])
    if q_norm == 0.0:
        return sims
    ok = row_norms > 0
    sims[ok] = np.einsum("ij,j->i", matrix[ok], query) / (row_norms[ok] * q_norm)
    return sims


def check_catalog(catalog: dict, keywords, words: list, matrix: np.ndarray, h_max: int) -> list:
    """Compare a synonym catalog with a brute-force top-``h_max`` search.

    The expected synonyms of a keyword are the other words ordered by
    ``(-similarity, word)``, with zero-norm rows at similarity 0; a
    keyword absent from the table has none.  Candidates whose similarity
    is within :data:`SIM_TIE_TOL` of the cut-off tie and are ordered by
    word.
    """
    failures: list = []
    index = {w: i for i, w in enumerate(words)}
    word_arr = np.asarray(words, dtype=object)
    for kw in sorted(set(keywords)):
        got = catalog.get(kw)
        if got is None:
            failures.append(f"catalog: keyword {kw!r} missing")
            continue
        if kw not in index:
            if got.synonyms:
                failures.append(f"catalog: {kw!r} is not in the table but has synonyms")
            continue
        sims = oracle_sims(matrix, matrix[index[kw]])
        sims[index[kw]] = -np.inf  # the keyword itself is never a candidate
        want_len = min(h_max, len(words) - 1)
        if len(got.synonyms) != want_len:
            failures.append(f"catalog: {kw!r} has {len(got.synonyms)} synonyms, want {want_len}")
            continue
        if len(set(got.synonyms)) != want_len or any(s not in index for s in got.synonyms):
            failures.append(f"catalog: {kw!r} synonyms repeat or are not table words")
            continue
        got_idx = np.array([index[s] for s in got.synonyms], dtype=np.int64)
        if kw in got.synonyms:
            failures.append(f"catalog: {kw!r} lists itself")
            continue
        # ordering inside the result: similarity descending, ties by word
        for a, b in zip(got_idx[:-1], got_idx[1:]):
            gap = sims[a] - sims[b]
            if gap < -SIM_TIE_TOL or (abs(gap) <= SIM_TIE_TOL and words[a] > words[b]):
                failures.append(f"catalog: {kw!r} lists {words[a]!r} before {words[b]!r}")
                break
        # nothing left out beats the last chosen candidate
        last = got_idx[-1]
        rest = np.ones(len(words), dtype=bool)
        rest[got_idx] = False
        rest[index[kw]] = False
        better = rest & (sims > sims[last] + SIM_TIE_TOL)
        tied = rest & (np.abs(sims - sims[last]) <= SIM_TIE_TOL)
        tied_before = tied & (word_arr < words[last])
        if better.any() or tied_before.any():
            missed = word_arr[better | tied_before][0]
            failures.append(f"catalog: {kw!r} omits {missed!r}")
            continue
        if not np.array_equal(np.asarray(got.vectors), matrix[got_idx]):
            failures.append(f"catalog: {kw!r} vectors are not the table rows")
    return failures


def check_probabilities(probs, where: str) -> list:
    """Two finite probabilities in [0, 1] that sum to 1."""
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (2,) or not np.isfinite(p).all():
        return [f"{where}: probabilities {probs!r} not two finite numbers"]
    if (p < 0).any() or (p > 1).any() or abs(p.sum() - 1.0) > 1e-6:
        return [f"{where}: probabilities {probs!r} not a distribution"]
    return []


def check_prf(labels, preds, got) -> list:
    """Positive-class precision, recall and F1 recomputed from labels."""
    labels = [int(v) for v in labels]
    preds = [int(v) for v in preds]
    tp = sum(1 for y, p in zip(labels, preds) if y == 1 and p == 1)
    fp = sum(1 for y, p in zip(labels, preds) if y == 0 and p == 1)
    fn = sum(1 for y, p in zip(labels, preds) if y == 1 and p == 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    want = (precision, recall, f1)
    have = (got.precision, got.recall, got.f1)
    if any(abs(a - b) > 1e-12 for a, b in zip(want, have)):
        return [f"evaluate: metrics {have} differ from recomputed {want}"]
    return []


def check_tensors_equal(a: dict, b: dict, where: str) -> list:
    """Same names, dtypes, shapes and bytes."""
    if list(a) != list(b):
        return [f"{where}: tensor names differ"]
    for name in a:
        x, y = a[name], b[name]
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return [f"{where}: tensor {name!r} is not bitwise equal"]
    return []
