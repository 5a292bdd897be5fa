"""Vocabulary, fused input composition, and pretrained word vectors.

The composed input for one text is ``[CLS] S1 [SEP] S2 [SEP]`` where S1
is the preprocessed token sequence and S2 the extracted domain keywords.
Segment ids separate the two parts, and a keyword mask marks every
position holding a domain keyword so the deep-fusion layer knows where
to inject synonym information.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autodiff import Tensor, embedding as embedding_lookup

__all__ = [
    "Vocab",
    "ModelInput",
    "EmbeddingTable",
    "SynonymSet",
    "VectorFormatError",
    "build_vocab",
    "compose_input",
    "load_embedding_table",
    "nearest_synonyms",
    "build_synonym_catalog",
    "batch_embed",
]

logger = logging.getLogger(__name__)

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED = (PAD, UNK, CLS, SEP)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3


class Vocab:
    """Word/id bijection with four reserved tokens at ids 0..3."""

    def __init__(self, words: Sequence[str]):
        self.id_to_word: list = list(RESERVED) + [w for w in words if w not in RESERVED]
        self.word_to_id: dict = {w: i for i, w in enumerate(self.id_to_word)}

    def id(self, word: str) -> int:
        return self.word_to_id.get(word, UNK_ID)

    def __len__(self) -> int:
        return len(self.id_to_word)

    def encode(self, tokens: Iterable[str]) -> list:
        return [self.id(t) for t in tokens]


def build_vocab(token_sequences: Iterable[Sequence[str]], min_freq: int = 1) -> Vocab:
    """Build a vocabulary from training-fold token sequences.

    Keeps every token with frequency >= ``min_freq``.  Id assignment is
    deterministic: frequency descending, then lexicographic.
    """
    freq: dict = {}
    n_seqs = 0
    for seq in token_sequences:
        n_seqs += 1
        for tok in seq:
            freq[tok] = freq.get(tok, 0) + 1
    if n_seqs == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (w for w, c in freq.items() if c >= min_freq and w not in RESERVED),
        key=lambda w: (-freq[w], w),
    )
    return Vocab(kept)


@dataclass
class ModelInput:
    """One composed sequence ``[CLS] S1 [SEP] S2 [SEP]``, unpadded.

    ``token_ids``, ``segment_ids`` and ``keyword_mask`` share the composed
    length; ``pipeline.collate`` pads a batch to its longest row and
    derives the attention mask from the row lengths.  The position of a
    token is its index.  ``tokens`` holds the composed token strings.
    Two-segment composition carries two separators; the single-segment
    baseline composition (``keywords=None``) carries one.
    """

    token_ids: np.ndarray
    segment_ids: np.ndarray
    keyword_mask: np.ndarray
    label: int = 0
    tokens: list = field(default_factory=list)


def compose_input(
    s1_tokens: Sequence[str],
    keywords: Sequence[str] | None,
    vocab: Vocab,
    max_len: int,
) -> ModelInput:
    """Compose ``[CLS] S1 [SEP] S2 [SEP]`` for one text within ``max_len`` tokens.

    When the budget is exceeded, S1 is truncated first so the extracted
    keywords survive; S2 is truncated only if it alone exceeds the budget.
    With ``keywords=None`` the sequence is the single-segment
    ``[CLS] S1 [SEP]``.  The keyword mask marks every position holding one
    of ``keywords``, in S1 and in the keyword segment S2 alike.
    """
    if max_len < 4:
        raise ValueError(f"max_len must be >= 4, got {max_len}")
    if keywords is None:
        s1 = list(s1_tokens)[: max_len - 2]
        tokens = [CLS] + s1 + [SEP]
        kw: set = set()
    else:
        s1, s2 = list(s1_tokens), list(keywords)
        budget = max_len - 3
        s1_keep = min(len(s1), max(0, budget - len(s2)))
        s2_keep = min(len(s2), budget - s1_keep)
        s1 = s1[:s1_keep]
        tokens = [CLS] + s1 + [SEP] + s2[:s2_keep] + [SEP]
        kw = set(s2)
    segment_ids = np.zeros(len(tokens), dtype=np.int64)
    segment_ids[len(s1) + 2 :] = 1
    return ModelInput(
        token_ids=np.array(vocab.encode(tokens), dtype=np.int64),
        segment_ids=segment_ids,
        keyword_mask=np.array([tok in kw for tok in tokens], dtype=np.int64),
        tokens=tokens,
    )


class VectorFormatError(ValueError):
    """Raised when a word-vector file does not parse."""


class EmbeddingTable:
    """Pretrained word vectors: a (n_words, dim) matrix plus a word index.

    Construction does the synonym-search work that depends only on the
    table, once: the row norms, the indices of the zero-norm rows, each
    row's rank in stable word order (equal words rank in row order), and
    the rows of every word that occurs more than once.  Each
    :func:`nearest_synonyms` call then costs one matrix-vector product
    over the table plus numpy selections; pickling keeps all of it, so a
    ``run_cv(jobs>1)`` worker recomputes none.  ``matrix`` is a
    read-only, C-contiguous view, so the stored norms cannot go stale
    through it and every table, loaded, built or unpickled, has one
    layout; build a new table to change a vector.
    """

    def __init__(self, words: Sequence[str], matrix: np.ndarray):
        if matrix.ndim != 2 or len(words) != matrix.shape[0]:
            raise ValueError("words and matrix rows must align")
        if matrix.shape[0] == 0:
            raise ValueError("no vectors found")
        if matrix.shape[1] == 0:
            raise ValueError("no vector components")
        self.words = list(words)
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float64).view()
        self.matrix.flags.writeable = False
        self.dim = matrix.shape[1]
        self._norms = _row_norms(self.matrix)
        # a NaN or Inf entry makes its row's norm non-finite, so most tables skip the full scan
        if not np.isfinite(self._norms).all() and not np.isfinite(self.matrix).all():
            raise ValueError("embedding table contains NaN or Inf entries")
        self._zero_rows = np.flatnonzero(self._norms == 0)
        self._rank = _word_ranks(self.words)
        self._index: dict = {}
        self._repeats: dict = {}  # word -> every row holding it, for repeated words only
        for i, w in enumerate(self.words):
            first = self._index.setdefault(w, i)  # a repeated word keeps its first row
            if first != i:
                self._repeats.setdefault(w, [first]).append(i)

    def __setstate__(self, state: dict) -> None:
        # numpy unpickles arrays writable; ``run_cv(jobs>1)`` sends tables to workers this way
        self.__dict__.update(state)
        self.matrix.flags.writeable = False

    def __len__(self) -> int:
        return len(self.words)

    def get(self, word: str) -> np.ndarray | None:
        i = self._index.get(word)
        return None if i is None else self.matrix[i]

    def save(self, path: str | Path) -> None:
        """Write the table in word2vec text format, with its ``count dim`` header.

        Raises ``ValueError`` naming the word, before the file is opened,
        if a word is empty or contains whitespace: the format could not
        hold it, and :func:`load_embedding_table` would reject the file.
        """
        for w in self.words:
            if w.split() != [w]:
                raise ValueError(f"cannot save word {w!r}: a word must be non-empty, with no whitespace")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{len(self.words)} {self.dim}\n")
            for w, row in zip(self.words, self.matrix.tolist()):
                f.write(w + " " + " ".join(map(repr, row)) + "\n")


def _data_lines(f, words: list, linenos: list):
    """Yield the vector lines of an open word2vec file, recording each
    line's word and 1-based line number.

    Line 1 is skipped when it is a ``count dim`` header (two integers);
    blank lines are skipped everywhere.
    """
    for lineno, line in enumerate(f, start=1):
        parts = line.split(None, 1)
        if not parts:
            continue
        if lineno == 1 and _is_header(line):
            continue
        words.append(parts[0])
        linenos.append(lineno)
        yield line


def _is_header(line: str) -> bool:
    head = line.split()
    if len(head) != 2:
        return False
    try:
        int(head[0]), int(head[1])
    except ValueError:
        return False
    return True


def _word_placeholder(word: str) -> float:
    return 0.0


def _parse_rows(lines) -> np.ndarray:
    """``(rows, 1 + dim)`` float64 array of word2vec lines; column 0 holds
    0.0 in place of the word.  numpy's C reader rejects any row whose
    column count differs from the first row's, or with a component that
    is not a float."""
    return np.loadtxt(
        lines,
        dtype=np.float64,
        comments=None,
        converters={0: _word_placeholder},
        ndmin=2,
        encoding=None,  # str lines as they are; numpy < 2 would re-encode them as latin-1
    )


def _first_bad_line(path: Path) -> str | None:
    """The error for the first line of ``path`` that :func:`_parse_rows`
    rejects, or None.  Parses line by line, so it runs only after the
    one-pass parse has failed."""
    dim: int | None = None
    linenos: list = []
    with open(path, encoding="utf-8") as f:
        for line in _data_lines(f, [], linenos):
            where, comps = f"{path}:{linenos[-1]}", line.split()[1:]
            if dim is None:
                dim = len(comps)
                if dim == 0:
                    return f"{where}: no vector components"
            elif len(comps) != dim:
                return f"{where}: expected {dim} components, found {len(comps)}"
            try:
                _parse_rows([line])
            except ValueError as e:
                bad = next((c for c in comps if not _parses(c)), None)
                return f"{where}: {e}" if bad is None else f"{where}: non-numeric component {bad!r}"
    return None


def _parses(component: str) -> bool:
    try:
        _parse_rows(["w " + component])
    except ValueError:
        return False
    return True


def load_embedding_table(path: str | Path) -> EmbeddingTable:
    """Parse a word2vec text file (optional ``count dim`` header line).

    Every other non-blank line is ``word v1 ... v_dim``.  Lines end in
    ``\n``, ``\r\n`` or ``\r``; within a line, fields are separated by
    runs of whitespace as :meth:`str.split` defines it (spaces, tabs,
    ``\xa0``, ``\u3000``, ...), so leading and repeated blanks are fine.
    A component is an ASCII decimal or exponent float, converted to the
    same float64 as :func:`float` gives.  Unlike :func:`float`, the
    loader rejects underscores (``1_0``) and non-ASCII digits.

    The file is read in one streaming pass by numpy's C reader into one
    float64 matrix, with no Python object per component.  The first
    occurrence of a duplicated word wins, and each dropped line is
    logged as a warning naming it.  A line with a different number of
    components, a non-numeric component, or no components at all is a
    :class:`VectorFormatError` naming ``path:line``; so is a kept line
    with a non-finite component (``nan``, ``inf``, or a number beyond the
    float64 range such as ``1e999``), which also names the token, and a
    file with no vector lines.
    """
    path = Path(path)
    words: list = []
    linenos: list = []
    with open(path, encoding="utf-8") as f:
        lines = _data_lines(f, words, linenos)
        first = next(lines, None)
        if first is None:
            raise VectorFormatError(f"{path}: no vectors found")
        try:
            rows = _parse_rows(itertools.chain([first], lines))
        except ValueError as e:
            raise VectorFormatError(_first_bad_line(path) or f"{path}: {e}") from e
    if rows.shape[1] == 1:
        raise VectorFormatError(f"{path}:{linenos[0]}: no vector components")
    index: dict = {}
    for i, word in enumerate(words):
        if index.setdefault(word, i) != i:
            logger.warning("duplicate word %r at %s:%d ignored (first wins)", word, path, linenos[i])
    keep = list(index.values())
    if len(keep) < len(words):
        words, rows = [words[i] for i in keep], rows[keep]
    matrix = rows[:, 1:]
    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        lineno = linenos[keep[row]]
        raise VectorFormatError(f"{path}:{lineno}: non-finite component {_component(path, lineno, col)!r}")
    return EmbeddingTable(words, matrix)


def _component(path: Path, lineno: int, col: int) -> str:
    """Component ``col`` (0-based, after the word) of line ``lineno`` of ``path``."""
    with open(path, encoding="utf-8") as f:
        return next(itertools.islice(f, lineno - 1, None)).split()[1 + col]


@dataclass
class SynonymSet:
    """Nearest neighbors of one keyword in the embedding table."""

    keyword: str
    synonyms: list
    vectors: np.ndarray  # (h, dim)


NORM_BLOCK_ROWS = 1024  # rows per temporary when computing table row norms


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, ``NORM_BLOCK_ROWS`` rows at a time.

    Per row this is the same arithmetic as ``np.linalg.norm(matrix,
    axis=1)``, so the result is bitwise equal, but the squared
    temporary is one block instead of the whole table.  A row whose sum
    of squares overflows (a component above about 1.3e154) is scaled by
    its largest magnitude first, so its norm is finite unless the norm
    itself exceeds the float64 range.  A row holding NaN or Inf gets a
    non-finite norm.
    """
    norms = np.empty(matrix.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # invalid: Inf / Inf when scaling an Inf row
        for start in range(0, matrix.shape[0], NORM_BLOCK_ROWS):
            block = matrix[start : start + NORM_BLOCK_ROWS]
            norms[start : start + NORM_BLOCK_ROWS] = np.sqrt(np.add.reduce(block * block, axis=1))
        huge = np.flatnonzero(np.isinf(norms))
        if len(huge):
            rows = matrix[huge]
            scale = np.abs(rows).max(axis=1)
            scaled = rows / scale[:, None]
            norms[huge] = scale * np.sqrt(np.add.reduce(scaled * scaled, axis=1))
    return norms


def _word_ranks(words: list) -> np.ndarray:
    """Each row's position when the rows are sorted stably by word, so
    equal words rank in row order."""
    ranks = np.empty(len(words), dtype=np.intp)
    ranks[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
    return ranks


def nearest_synonyms(keyword: str, table: EmbeddingTable, h_max: int) -> SynonymSet:
    """The up-to-``h_max`` words most cosine-similar to ``keyword``.

    The search is exact.  The row norms, the zero-norm rows, the word
    ranks and the rows of repeated words come from the table, which
    computes them once; per keyword the cost is one matrix-vector product
    over the table (none for a zero-norm keyword), a numpy partition that
    finds the ``h_max``-th largest similarity, a lexsort of the rows
    strictly above it by ``(-similarity, word rank)``, and a partition of
    the rows tied with it by word rank.  So the order is ``(-similarity,
    word)``, with equal words in row order, and no Python code runs per
    table row.  Every row holding the keyword itself is excluded; a
    keyword absent from the table yields an empty set.  Zero-norm vectors
    are treated as having similarity 0 to everything.  Where a norm or a
    dot product overflows (components above about 1.3e154), the query or
    those rows are scaled by their largest magnitude, so huge vectors keep
    finite, correct similarities; other tables take the plain path.
    """
    if h_max < 1:
        raise ValueError(f"h_max must be >= 1, got {h_max}")
    row = table._index.get(keyword)
    if row is None:
        return SynonymSet(keyword, [], np.zeros((0, table.dim)))
    own = table._repeats.get(keyword, [row])
    k = min(h_max, len(table) - len(own))
    if k == 0:
        return SynonymSet(keyword, [], np.zeros((0, table.dim)))
    query = table.matrix[row]
    with np.errstate(over="ignore"):
        qn = np.linalg.norm(query)
    if qn == 0:
        sims = np.zeros(len(table))
    else:
        if np.isinf(qn):
            # The query's sum of squares overflows.  Cosine does not depend
            # on the query's scale, so divide by its largest magnitude.
            query = query / np.abs(query).max()
            qn = np.linalg.norm(query)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sims = table.matrix @ query / (table._norms * qn)
        sims[table._zero_rows] = 0.0
        huge = np.flatnonzero(~np.isfinite(sims))
        if len(huge):
            # A dot product overflowed: scale those rows to a largest
            # magnitude of 1 as well.
            rows = table.matrix[huge]
            rows = rows / np.abs(rows).max(axis=1)[:, None]
            sims[huge] = rows @ query / (np.linalg.norm(rows, axis=1) * qn)
    # The keyword's own rows score -inf, below every real similarity, so
    # the k-th largest score is the k-th largest among the other rows.
    # Fewer than k rows lie strictly above it; the rest of the k slots go
    # to the rows tied with it, lowest word rank first.  Ranks are
    # distinct, so this equals ``sorted(..., key=(-sim, word))[:k]``.
    sims[own] = -np.inf
    kth = np.partition(sims, len(sims) - k)[len(sims) - k]
    rank = table._rank
    above = np.flatnonzero(sims > kth)
    above = above[np.lexsort((rank[above], -sims[above]))]
    tied = np.flatnonzero(sims == kth)
    need = k - len(above)
    if need < len(tied):
        tied = tied[np.argpartition(rank[tied], need - 1)[:need]]
    chosen = np.concatenate([above, tied[np.argsort(rank[tied])]])
    return SynonymSet(keyword, [table.words[i] for i in chosen.tolist()], table.matrix[chosen])


def build_synonym_catalog(keywords: Iterable[str], table: EmbeddingTable, h_max: int) -> dict:
    """Map each keyword to its (possibly empty) :class:`SynonymSet`.

    Each keyword is searched exactly by :func:`nearest_synonyms`, in
    ``(-similarity, word)`` order.  The table computed its row norms,
    zero-norm rows, word ranks and repeated-word rows once, when it was
    built, so a catalog costs one matrix-vector product over the table per
    keyword plus numpy selections, and rebuilding it from the same table
    (once per fold and variant in ``run_cv`` / ``run_ablation``)
    recomputes none of them.  Keywords absent from the table get empty
    sets and later pass through the fusion layer unchanged.
    """
    return {kw: nearest_synonyms(kw, table, h_max) for kw in sorted(set(keywords))}


def batch_embed(
    token_ids: np.ndarray,
    segment_ids: np.ndarray,
    tok_emb: Tensor,
    seg_emb: Tensor,
    pos_emb: Tensor,
) -> Tensor:
    """Sum token, segment, and position embeddings over (B, T) id arrays.

    Position ids are ``0..T-1`` in every row.
    """
    B, T = token_ids.shape
    pos_ids = np.broadcast_to(np.arange(T), (B, T))
    t = embedding_lookup(tok_emb, token_ids)
    s = embedding_lookup(seg_emb, segment_ids)
    p = embedding_lookup(pos_emb, pos_ids)
    return t + s + p
