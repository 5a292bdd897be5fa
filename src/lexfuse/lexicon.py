"""Domain dictionary construction and keyword extraction.

A side-effect phrase file (one phrase per line) is normalized into a flat
set of single words, held as a ``frozenset`` (the lexicon), and matched
against preprocessed input tokens to pull out the domain keywords of a
sentence as a plain list, in first-occurrence order.

Matching is whole-token exact match: a dictionary word is reported only
when it appears as a complete token of the input, never as a substring
of a longer token.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

__all__ = [
    "PhraseFormatError",
    "DictionaryConfig",
    "default_stopwords",
    "build_dictionary",
    "build_trie",
    "extract_keywords",
    "read_phrase_file",
    "export_dictionary",
]

_NON_ALPHA = re.compile(r"[^a-z]")
_DIGIT = re.compile(r"[0-9]")


class PhraseFormatError(ValueError):
    """Raised when a phrase file is not valid UTF-8."""


@functools.cache
def default_stopwords() -> frozenset:
    """The stopword list shipped with the package (~180 common English words).

    Read once per process; every caller shares the same frozenset.
    """
    text = resources.files("lexfuse").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


@dataclass(frozen=True)
class DictionaryConfig:
    """Normalization rules for building the domain dictionary.

    ``min_word_length`` keeps only words of at least that many characters
    (default 3, which drops most abbreviations and stray fragments);
    ``strip_digits`` removes any token containing a digit.
    """

    min_word_length: int = 3
    strip_digits: bool = True

    def __post_init__(self):
        if self.min_word_length < 1:
            raise ValueError(f"min_word_length must be >= 1, got {self.min_word_length}")


def build_dictionary(raw_phrases: Iterable[str], cfg: DictionaryConfig | None = None) -> set:
    """Normalize raw side-effect phrases into a flat set of dictionary words.

    Each phrase is split on whitespace and every token is lowercased,
    checked for digits, stripped of any character outside a–z, and kept
    only if it is not one of :func:`default_stopwords` and meets the
    minimum length.
    """
    cfg = cfg or DictionaryConfig()
    stopwords = default_stopwords()
    words: set = set()
    for phrase in raw_phrases:
        for token in phrase.split():
            token = token.lower()
            if cfg.strip_digits and _DIGIT.search(token):
                continue
            token = _NON_ALPHA.sub("", token)
            if not token or token in stopwords:
                continue
            if len(token) < cfg.min_word_length:
                continue
            words.add(token)
    return words


def build_trie(words: Iterable[str]) -> frozenset:
    """The lexicon of already-normalized words: an immutable set.

    Membership is whole-word: prefixes and extensions of a stored word do
    not match.  The name is kept for the callers of the former trie class.
    """
    return frozenset(words)


def extract_keywords(tokens: Iterable[str], lexicon: frozenset) -> list:
    """The distinct input tokens found in the dictionary, as a list.

    Order follows first occurrence in ``tokens``; duplicates are dropped.
    """
    seen: set = set()
    keywords: list = []
    for tok in tokens:
        if tok not in seen and tok in lexicon:
            seen.add(tok)
            keywords.append(tok)
    return keywords


def read_phrase_file(path: str | Path) -> list:
    """Read a UTF-8 phrase file, one phrase per line; blank lines are skipped.

    A line that is not valid UTF-8 raises :class:`PhraseFormatError` naming
    ``path:line``; a missing file raises ``FileNotFoundError``.
    """
    path = Path(path)
    phrases: list = []
    for lineno, line in enumerate(path.read_bytes().split(b"\n"), start=1):
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise PhraseFormatError(f"{path}:{lineno}: not valid UTF-8 ({e})") from e
        if text:
            phrases.append(text)
    return phrases


def export_dictionary(words: Iterable[str], path: str | Path) -> None:
    """Write dictionary words one per line, sorted, for stable diffing."""
    Path(path).write_text("".join(w + "\n" for w in sorted(words)), encoding="utf-8")

