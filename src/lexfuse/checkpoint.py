"""The checkpoint file format and every check on it.

A checkpoint (format 1, little-endian) is the magic bytes ``LEXFUSE\0``,
a ``u32`` version, a ``u32``-length JSON header holding the configs,
vocabularies, synonym ids and ``d_w``, then a ``u32`` tensor count and
each tensor in :func:`~lexfuse.params.param_shapes` order: a ``u16``-length
UTF-8 name, a ``u8`` ndim, one ``u32`` per dimension, a ``u8`` dtype code
(4 float32, 8 float64) and the C-order bytes.

This module writes and reads a trained model's fields; it knows nothing of
:class:`~lexfuse.pipeline.TrainedModel`, which
:func:`lexfuse.pipeline.load_checkpoint` builds from :func:`read_checkpoint`.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .embedding import RESERVED, Vocab
from .encoder import EncoderConfig
from .params import ModelParams, TrainConfig

__all__ = ["CheckpointError", "save_checkpoint", "read_checkpoint"]


class CheckpointError(ValueError):
    """Raised for unreadable, corrupt, or mismatching checkpoint files."""


_MAGIC = b"LEXFUSE\x00"
_VERSION = 1
_DTYPES = {4: np.float32, 8: np.float64}
_DTYPE_CODES = {np.dtype(np.float32): 4, np.dtype(np.float64): 8}
_HEADER_FIELDS = ("encoder", "train", "vocab", "lexicon", "syn_vocab", "keyword_syn_ids", "d_w")


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"{f.name}: checkpoint truncated while reading {what}")
    return data


def _header_config(path: Path, key: str, raw, cls):
    """Build ``cls`` from the header mapping ``raw``; each fault names ``key``."""
    if not isinstance(raw, dict):
        raise CheckpointError(f"{path}: header field {key!r} is not a mapping")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: header field {key!r}: {e}") from e


def _check_header_fields(path: Path, meta: dict) -> None:
    """Raise a :class:`CheckpointError` naming the first header field
    whose type is not the one :func:`save_checkpoint` writes."""

    def strings(v) -> bool:
        return isinstance(v, list) and all(isinstance(s, str) for s in v)

    n_syn = len(meta["syn_vocab"]) if strings(meta["syn_vocab"]) else 0
    ids = meta["keyword_syn_ids"]
    for key, ok, expected in (
        ("vocab", strings(meta["vocab"]), "a list of strings"),
        ("lexicon", strings(meta["lexicon"]), "a list of strings"),
        ("syn_vocab", strings(meta["syn_vocab"]), "a list of strings"),
        ("keyword_syn_ids", isinstance(ids, dict) and all(
            isinstance(row, list) and all(type(i) is int and 0 <= i < n_syn for i in row)
            for row in ids.values()
        ), "a mapping of keyword to a list of syn_vocab indices"),
        ("d_w", type(meta["d_w"]) is int and meta["d_w"] > 0, "a positive integer"),
    ):
        if not ok:
            raise CheckpointError(f"{path}: header field {key!r} is not {expected}")


def save_checkpoint(model, path: str | Path) -> None:
    """Serialize a trained model's fields; the round trip is bit-exact."""
    meta = {
        "encoder": asdict(model.enc_cfg),
        "train": asdict(model.train_cfg),
        "vocab": model.vocab.id_to_word,
        "lexicon": model.lexicon_words,
        "syn_vocab": model.syn_vocab,
        "keyword_syn_ids": {k: list(map(int, v)) for k, v in model.keyword_syn_ids.items()},
        "d_w": model.d_w,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    tensors = list(model.params.named_tensors())
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(tensors)))
        for name, t in tensors:
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", t.data.ndim))
            for dim in t.data.shape:
                f.write(struct.pack("<I", dim))
            f.write(struct.pack("<B", _DTYPE_CODES[t.data.dtype]))
            f.write(np.ascontiguousarray(t.data).astype(t.data.dtype, copy=False).tobytes())


def read_checkpoint(path: str | Path) -> dict:
    """The fields of the saved model, as keyword arguments of a
    :class:`~lexfuse.pipeline.TrainedModel`; validates structure and shapes.

    Draws nothing: :meth:`ModelParams.initialize` checks the stored arrays'
    names and shapes against the header's config and wraps them as they
    are read, in their stored dtype.
    """
    path = Path(path)
    with open(path, "rb") as f:
        if _read_exact(f, len(_MAGIC), "magic") != _MAGIC:
            raise CheckpointError(f"{path}: not a lexfuse checkpoint (bad magic bytes)")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        (json_len,) = struct.unpack("<I", _read_exact(f, 4, "header length"))
        try:
            meta = json.loads(_read_exact(f, json_len, "header"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise CheckpointError(f"{path}: corrupt JSON header ({e})") from e
        (n_tensors,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
        tensors: dict = {}
        size = os.fstat(f.fileno()).st_size
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "tensor name length"))
            try:
                name = _read_exact(f, name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"{path}: corrupt tensor name ({e})") from e
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, f"ndim of {name}"))
            shape = tuple(
                struct.unpack("<I", _read_exact(f, 4, f"shape of {name}"))[0] for _ in range(ndim)
            )
            (code,) = struct.unpack("<B", _read_exact(f, 1, f"dtype of {name}"))
            if code not in _DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name}")
            dtype = np.dtype(_DTYPES[code])
            nbytes = math.prod(shape) * dtype.itemsize
            left = size - f.tell()
            if nbytes > left:  # checked before reading: a corrupt dimension can claim terabytes
                raise CheckpointError(
                    f"{path}: checkpoint truncated while reading data of {name}: shape {shape} "
                    f"needs {nbytes} bytes, {left} left in the file"
                )
            data = np.frombuffer(_read_exact(f, nbytes, f"data of {name}"), dtype=dtype)
            tensors[name] = data.reshape(shape).copy()
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last tensor")

    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    missing = [k for k in _HEADER_FIELDS if k not in meta]
    if missing:
        raise CheckpointError(f"{path}: header lacks fields {missing}")
    enc_cfg = _header_config(path, "encoder", meta["encoder"], EncoderConfig)
    train = meta["train"]
    if isinstance(train, dict):
        # Older format-1 files also store three fields TrainConfig no longer
        # has: fusion_layer, whose value the stored encoder config holds;
        # keyword_scope, of which only "both" can be reproduced; and
        # loss_kind, where "cross_entropy" is focal loss at gamma 0.
        train = {k: v for k, v in train.items() if k != "fusion_layer"}
        scope = train.pop("keyword_scope", "both")
        if scope != "both":
            raise CheckpointError(
                f"{path}: header field 'train.keyword_scope' is {scope!r}; only 'both' can be loaded"
            )
        loss_kind = train.pop("loss_kind", "focal")
        if loss_kind == "cross_entropy":
            train["gamma"] = 0.0
        elif loss_kind != "focal":
            raise CheckpointError(
                f"{path}: header field 'train.loss_kind' is {loss_kind!r}; "
                "only 'focal' or 'cross_entropy' can be loaded"
            )
    train_cfg = _header_config(path, "train", train, TrainConfig)
    _check_header_fields(path, meta)
    vocab = Vocab(meta["vocab"][4:])
    if tuple(meta["vocab"][:4]) != RESERVED or len(vocab.word_to_id) != len(meta["vocab"]):
        raise CheckpointError(
            f"{path}: header field 'vocab' must list {list(RESERVED)} first and no word twice"
        )
    try:
        params = ModelParams.initialize(
            enc_cfg, vocab_size=len(vocab), max_len=train_cfg.max_len, d_w=meta["d_w"],
            n_syn=len(meta["syn_vocab"]), tensors=tensors,
        )
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from e
    return dict(
        params=params,
        vocab=vocab,
        enc_cfg=enc_cfg,
        train_cfg=train_cfg,
        lexicon_words=list(meta["lexicon"]),
        syn_vocab=list(meta["syn_vocab"]),
        keyword_syn_ids={k: list(v) for k, v in meta["keyword_syn_ids"].items()},
        d_w=meta["d_w"],
    )
