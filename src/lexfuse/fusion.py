"""Deep fusion: inject attention-weighted synonym vectors at keyword positions.

For a keyword position with hidden state x and synonym vectors
v_1..v_h from the word-vector table, the layer

    1. aligns each synonym into model space:  u_j = W1 v_j + b1
    2. scores relevance with a bilinear form:  r = softmax(x W2 [u_1..u_h]^T)
    3. adds the weighted summary back:         x~ = x + sum_j r_j u_j

Positions without a synonym set pass through bitwise unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "FusionParams",
    "FusionContext",
    "align_synonyms",
    "char_to_word_attention",
    "fuse_position",
    "deep_fusion",
    "collate_fusion",
]


@dataclass
class FusionParams:
    """Trainable fusion tensors: alignment W1 (d_model, d_w), b1 (d_model,),
    and the attention bilinear form W2 (d_model, d_model)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor


@dataclass
class FusionContext:
    """Synonym ids per fused position of one sequence.

    ``entries`` maps position -> integer array of row indices into the
    model's trainable synonym-vector matrix.  Only positions whose token
    is a domain keyword with a non-empty synonym set appear.
    """

    entries: dict

    def __bool__(self):
        return bool(self.entries)

    @staticmethod
    def empty() -> "FusionContext":
        return FusionContext({})


def align_synonyms(vectors, params: FusionParams) -> Tensor:
    """Map raw synonym vectors (h, d_w) into model space (h, d_model)."""
    v = ad.as_tensor(vectors)
    if v.shape[-1] != params.w1.shape[1]:
        raise ValueError(
            f"synonym vectors have dim {v.shape[-1]}, alignment expects {params.w1.shape[1]}"
        )
    return v @ params.w1.T + params.b1


def char_to_word_attention(x_i, u_i, w2) -> Tensor:
    """Relevance weights over one position's aligned synonyms.

    ``x_i`` is the (d_model,) hidden state, ``u_i`` the (h, d_model)
    aligned synonyms; the scores x_i W2 u_i^T are softmaxed with no
    additional scaling.
    """
    x_i = ad.as_tensor(x_i)
    u_i = ad.as_tensor(u_i)
    w2 = ad.as_tensor(w2)
    scores = (x_i.reshape(1, -1) @ w2 @ u_i.swapaxes(-1, -2)).reshape(u_i.shape[0])
    return ad.softmax(scores, axis=-1)


def fuse_position(x_i, u_i, r_i) -> Tensor:
    """Residual enrichment: x_i plus the r-weighted sum of aligned synonyms."""
    x_i = ad.as_tensor(x_i)
    u_i = ad.as_tensor(u_i)
    r_i = ad.as_tensor(r_i)
    summary = (r_i.reshape(1, -1) @ u_i).reshape(x_i.shape)
    return x_i + summary


def collate_fusion(contexts: list, h_max: int):
    """Flatten per-example fusion entries into batch arrays.

    Returns ``(batch_idx, pos_idx, syn_ids, syn_mask)`` where ``syn_ids``
    is (k, h_max) padded with zeros and ``syn_mask`` marks real slots, or
    None when no position in the batch has synonyms.
    """
    b_idx: list = []
    p_idx: list = []
    ids_rows: list = []
    mask_rows: list = []
    for b, ctx in enumerate(contexts):
        if ctx is None:
            continue
        for pos in sorted(ctx.entries):
            ids = np.asarray(ctx.entries[pos], dtype=np.int64)
            h = ids.shape[0]
            if h == 0:
                continue
            if h > h_max:
                raise ValueError(f"synonym set of size {h} exceeds h_max={h_max}")
            row = np.zeros(h_max, dtype=np.int64)
            row[:h] = ids
            m = np.zeros(h_max, dtype=bool)
            m[:h] = True
            b_idx.append(b)
            p_idx.append(pos)
            ids_rows.append(row)
            mask_rows.append(m)
    if not b_idx:
        return None
    return (
        np.asarray(b_idx, dtype=np.int64),
        np.asarray(p_idx, dtype=np.int64),
        np.stack(ids_rows),
        np.stack(mask_rows),
    )


def deep_fusion(
    x: Tensor,
    keyword_mask: np.ndarray,
    contexts,
    params: FusionParams,
    syn_table: Tensor,
) -> Tensor:
    """Apply align -> attention -> residual sum at every fused position.

    ``x`` is (B, T, d_model) (a single (T, d_model) sequence is accepted
    and returned in kind); ``contexts`` is one :class:`FusionContext` per
    batch element; ``syn_table`` holds the trainable synonym vectors.
    Positions without synonyms are returned bitwise unchanged.
    """
    x = ad.as_tensor(x)
    single = x.ndim == 2
    if single:
        x = x.reshape(1, *x.shape)
        contexts = [contexts] if isinstance(contexts, FusionContext) else contexts
    keyword_mask = np.atleast_2d(np.asarray(keyword_mask))
    for b, ctx in enumerate(contexts):
        if ctx is not None and ctx.entries:
            bad = [p for p in ctx.entries if not keyword_mask[b, p]]
            if bad:
                raise ValueError(f"fusion positions {bad} are not keyword positions")
    h_max = max(
        (len(ctx.entries[p]) for ctx in contexts if ctx is not None for p in ctx.entries),
        default=0,
    )
    collated = collate_fusion(contexts, h_max) if h_max > 0 else None
    if collated is None:
        return x.reshape(*x.shape[1:]) if single else x
    b_idx, p_idx, syn_ids, syn_mask = collated
    xk = ad.gather2(x, b_idx, p_idx)  # (k, d_model)
    v = ad.embedding(syn_table, syn_ids)  # (k, h, d_w)
    u = v @ params.w1.T + params.b1  # (k, h, d_model)
    q = xk @ params.w2  # (k, d_model)
    scores = (u @ q.reshape(*q.shape, 1)).reshape(syn_ids.shape)  # (k, h)
    scores = ad.where_mask(scores, syn_mask, -np.inf)
    r = ad.softmax(scores, axis=-1)  # padded slots get exact zeros
    summary = (r.reshape(r.shape[0], 1, r.shape[1]) @ u).reshape(xk.shape)
    out = ad.scatter_add2(x, b_idx, p_idx, summary)
    return out.reshape(*out.shape[1:]) if single else out
