"""Deep fusion: inject attention-weighted synonym vectors at keyword positions.

For a keyword position with hidden state x and synonym vectors
v_1..v_h from the word-vector table, the layer

    1. aligns each synonym into model space:  u_j = W1 v_j + b1
    2. scores relevance with a bilinear form:  r = softmax(x W2 [u_1..u_h]^T)
    3. adds the weighted summary back:         x~ = x + sum_j r_j u_j

Positions without a synonym set pass through bitwise unchanged.
:func:`deep_fusion` applies the three steps to every fused position of a
(B, T, d_model) batch at once; the tests hold a per-position loop as its
reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "FusionParams",
    "FusionContext",
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


def collate_fusion(contexts: list):
    """Flatten per-example fusion entries into batch arrays.

    Returns ``(batch_idx, pos_idx, syn_ids, syn_mask)`` where ``syn_ids``
    is (k, h_max) padded with zeros, ``h_max`` being the largest synonym
    set in the batch, and ``syn_mask`` marks real slots, or None when no
    position in the batch has synonyms.
    """
    b_idx: list = []
    p_idx: list = []
    ids_rows: list = []
    for b, ctx in enumerate(contexts):
        for pos in sorted(ctx.entries):
            ids = ctx.entries[pos]
            if len(ids):
                b_idx.append(b)
                p_idx.append(pos)
                ids_rows.append(ids)
    if not b_idx:
        return None
    lengths = np.array([len(ids) for ids in ids_rows])
    syn_mask = np.arange(lengths.max()) < lengths[:, None]
    syn_ids = np.zeros(syn_mask.shape, dtype=np.int64)
    syn_ids[syn_mask] = np.concatenate(ids_rows)
    return np.array(b_idx, dtype=np.int64), np.array(p_idx, dtype=np.int64), syn_ids, syn_mask


def deep_fusion(
    x: Tensor,
    keyword_mask: np.ndarray,
    contexts,
    params: FusionParams,
    syn_table: Tensor,
) -> Tensor:
    """Apply align -> attention -> residual sum at every fused position.

    ``x`` is (B, T, d_model); ``contexts`` is one :class:`FusionContext`
    per batch element; ``syn_table`` holds the trainable synonym
    vectors.  Positions without synonyms are returned bitwise unchanged.
    """
    for b, ctx in enumerate(contexts):
        bad = [p for p in ctx.entries if not keyword_mask[b, p]]
        if bad:
            raise ValueError(f"fusion positions {bad} are not keyword positions")
    collated = collate_fusion(contexts)
    if collated is None:
        return x
    b_idx, p_idx, syn_ids, syn_mask = collated
    xk = ad.gather2(x, b_idx, p_idx)  # (k, d_model)
    v = ad.embedding(syn_table, syn_ids)  # (k, h, d_w)
    u = v @ params.w1.T + params.b1  # (k, h, d_model)
    q = xk @ params.w2  # (k, d_model)
    scores = (u @ q.reshape(*q.shape, 1)).reshape(syn_ids.shape)  # (k, h)
    if not syn_mask.all():
        scores = ad.where_mask(scores, syn_mask, -np.inf)
    r = ad.softmax(scores, axis=-1)  # padded slots get exact zeros
    summary = (r.reshape(r.shape[0], 1, r.shape[1]) @ u).reshape(xk.shape)
    return ad.scatter_add2(x, b_idx, p_idx, summary)
