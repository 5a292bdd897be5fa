"""Text normalization for social-media posts.

Every text goes through one fixed cleanup order: URLs, user mentions and
reserved tweet tokens, emoji, lowercasing, in-place punctuation
deletion, whitespace split, digit-token removal, stopword removal.  The
only setting is the stopword list; an empty list keeps every word.  An
empty token list is a legal result.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .lexicon import default_stopwords

__all__ = ["PreprocessRules", "preprocess"]

_URL = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION = re.compile(r"@\w+")
_RESERVED = re.compile(r"\b(?:RT|FAV)\b")
# the common emoji / pictograph / symbol blocks
_EMOJI = re.compile(
    "["
    "\U0001f000-\U0001faff"
    "\U00002600-\U000027bf"
    "\U0001f1e6-\U0001f1ff"
    "←-⇿"
    "⬀-⯿"
    "︎️"
    "]+"
)
_PUNCT = re.compile(r"[^a-z0-9\s]")
_DIGIT = re.compile(r"[0-9]")


@dataclass(frozen=True)
class PreprocessRules:
    """The stopwords that :func:`preprocess` drops (the packaged list by default)."""

    stopword_list: frozenset = field(default_factory=default_stopwords)


def preprocess(raw_text: str, rules: PreprocessRules | None = None) -> list:
    """Normalize one text into a clean lowercase token list."""
    stopwords = (rules or PreprocessRules()).stopword_list
    text = _URL.sub(" ", raw_text)
    text = _MENTION.sub(" ", text)
    text = _RESERVED.sub(" ", text)
    text = _EMOJI.sub(" ", text)
    text = _PUNCT.sub("", text.lower())
    return [tok for tok in text.split() if not _DIGIT.search(tok) and tok not in stopwords]
