"""Transformer encoder stack with a between-layer fusion hook.

Each layer applies multi-head attention and a feed-forward network in
the post-layer-norm arrangement:

    G   = LN(X + MHA(X))
    X'  = LN(G + FFN(G))

``run_encoder`` threads the hidden states through all layers and applies
an optional transformation (the deep-fusion layer) to the hidden states
after a chosen layer, before the remaining layers run.

Which rows each sublayer computes:

- Every layer but the last runs attention and both layer norms on all T
  rows of each example.  Its FFN runs on all rows too when no key of the
  batch is masked (``predict``, or a batch of equal lengths).  On a
  padded batch it runs only on the unmasked rows and each example's
  position 0, packed into one (N, d_model) matrix, and a padded row of
  the output is ``LN(G)``.  A later layer reads a padded row only as a
  masked key, with weight exactly 0, so every row it does read, every
  logit and every gradient is bitwise what an FFN over all rows gives.
- The classifier reads only the final ``[CLS]`` state, so the last layer
  computes that one query row per example: its keys and values still
  come from every position, but its Q projection, attention weights, O
  projection, layer norms and FFN run on one row instead of T.  No other
  row of the last layer reaches the logits, so the result is exact up to
  float rounding.

The Q/K/V/O projections and both FFN layers are ``autodiff.linear`` (one
GEMM over all batch rows), the attention between the Q/K/V and O
projections is one ``autodiff.attention`` node, and each LN is one
``autodiff.layer_norm`` node.
``layer_norm``, ``multi_head_attention`` and ``feed_forward`` stay
module-level functions, looked up at call time, so a profiler can wrap
each sub-layer.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "EncoderConfig",
    "LayerParams",
    "Dropout",
    "layer_norm",
    "multi_head_attention",
    "feed_forward",
    "encoder_layer",
    "run_encoder",
    "layer_param_shapes",
]


def _require_integers(cfg, minimums: dict) -> None:
    """Raise ``ValueError`` naming the first field of ``cfg`` that is not an
    integer (bool excluded) or is below its minimum in ``minimums``."""
    for name, lo in minimums.items():
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < lo:
            raise ValueError(f"{name} must be >= {lo}, got {value}")


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters.

    ``fusion_layer`` is the layer index l after which synonym fusion is
    injected (hidden states of layers 1..l are computed, fused, then fed
    to layers l+1..n_layers).  ``d_ff`` defaults to 4 * d_model.  Every
    size is an integer.
    """

    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 0
    n_layers: int = 4
    fusion_layer: int = 1
    dropout_rate: float = 0.1

    def __post_init__(self):
        _require_integers(self, {"d_model": 1, "n_heads": 1, "n_layers": 1, "d_ff": 0, "fusion_layer": 1})
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if not (1 <= self.fusion_layer < self.n_layers):
            raise ValueError(
                f"fusion_layer must be in [1, {self.n_layers - 1}], got {self.fusion_layer}"
            )
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @classmethod
    def desk_scale(cls, **overrides) -> "EncoderConfig":
        """Small configuration that trains in seconds on a CPU."""
        return cls(**{"d_model": 128, "n_heads": 4, "n_layers": 4, "fusion_layer": 1, **overrides})



@dataclass
class LayerParams:
    """Trainable tensors of one encoder layer."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    w_ff1: Tensor
    b_ff1: Tensor
    w_ff2: Tensor
    b_ff2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


def layer_param_shapes(cfg: EncoderConfig) -> dict:
    """Name -> ``(shape, init kind)`` of one layer's tensors, in field order.

    Kinds are ``"weight"`` (random draw) for projections, ``"zeros"`` for
    biases, and gain ``"ones"`` / bias ``"zeros"`` for the layer norms.
    """
    d, f = cfg.d_model, cfg.d_ff
    return {
        "wq": ((d, d), "weight"), "bq": ((d,), "zeros"),
        "wk": ((d, d), "weight"), "bk": ((d,), "zeros"),
        "wv": ((d, d), "weight"), "bv": ((d,), "zeros"),
        "wo": ((d, d), "weight"), "bo": ((d,), "zeros"),
        "w_ff1": ((d, f), "weight"), "b_ff1": ((f,), "zeros"),
        "w_ff2": ((f, d), "weight"), "b_ff2": ((d,), "zeros"),
        "ln1_gain": ((d,), "ones"), "ln1_bias": ((d,), "zeros"),
        "ln2_gain": ((d,), "ones"), "ln2_bias": ((d,), "zeros"),
    }


class Dropout:
    """Inverted dropout driven by a dedicated RNG; None disables it."""

    def __init__(self, rng: np.random.Generator, rate: float):
        self.rng = rng
        self.rate = float(rate)

    def __call__(self, x: Tensor) -> Tensor:
        keep = (self.rng.random(x.shape) >= self.rate).astype(x.dtype)
        return x * Tensor(keep / (1.0 - self.rate))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row over the feature dimension, then scale and shift.

    One tape node: :func:`lexfuse.autodiff.layer_norm`.
    """
    return ad.layer_norm(x, gain, bias, eps)


def multi_head_attention(
    x: Tensor,
    attention_mask: np.ndarray,
    params: LayerParams,
    cfg: EncoderConfig,
    queries: Tensor | None = None,
) -> Tensor:
    """Scaled dot-product attention over all heads.

    ``x`` is (..., T, d_model) and supplies the keys and values;
    ``attention_mask`` is (..., T) with 0 at padding positions.  The
    output is computed at ``queries`` (..., Tq, d_model), which defaults
    to ``x``; the last encoder layer passes only the ``[CLS]`` rows.
    Between the Q/K/V and O projections, one :func:`lexfuse.autodiff.attention`
    node splits the heads, gives masked keys -inf logits before the
    softmax, and merges the heads again.  A row whose every key is masked
    has zero output, whatever the other rows of its batch.
    """
    x = ad.as_tensor(x)
    queries = x if queries is None else ad.as_tensor(queries)
    keys = np.asarray(attention_mask, dtype=bool)
    empty = None
    if not keys.all():
        # An empty row attends over all its keys, so its softmax stays
        # finite; its output is then replaced by zeros.
        empty = ~keys.any(axis=-1)
        keys = keys | empty[..., None]
    ctx = ad.attention(
        ad.linear(queries, params.wq, params.bq),
        ad.linear(x, params.wk, params.bk),
        ad.linear(x, params.wv, params.bv),
        keys,
        cfg.n_heads,
        1.0 / math.sqrt(cfg.d_head),
    )
    out = ad.linear(ctx, params.wo, params.bo)
    if empty is not None and empty.any():
        out = ad.where_mask(out, ~empty[..., None, None], 0.0)
    return out


def feed_forward(x: Tensor, params: LayerParams, rows: np.ndarray | None = None) -> Tensor:
    """Position-wise two-layer network with GELU activation.

    With ``rows`` (distinct flat indices into the rows of ``x`` (..., d)),
    only those rows are computed: :func:`lexfuse.autodiff.take_rows` packs
    them into an (N, d) matrix, and :func:`lexfuse.autodiff.put_rows`
    returns the output in the shape of ``x``, zero at every other row.
    """
    h = x if rows is None else ad.take_rows(x, rows)
    hidden = ad.gelu(ad.linear(h, params.w_ff1, params.b_ff1))
    out = ad.linear(hidden, params.w_ff2, params.b_ff2)
    return out if rows is None else ad.put_rows(out, rows, x.shape)


def _read_rows(attention_mask: np.ndarray, shape: tuple) -> np.ndarray | None:
    """Flat indices of the rows of a full layer's output that a later layer
    reads other than as a masked key: every unmasked position and each
    example's position 0 (its ``[CLS]`` query).  None when no key is masked."""
    keep = np.array(attention_mask, dtype=bool)
    if keep.all():
        return None
    keep = keep.reshape(shape)
    keep[..., 0] = True
    return np.flatnonzero(keep)


def encoder_layer(
    x: Tensor,
    attention_mask: np.ndarray,
    params: LayerParams,
    cfg: EncoderConfig,
    dropout: Dropout | None = None,
    queries: Tensor | None = None,
) -> Tensor:
    """One post-LN encoder layer; dropout applies to sublayer outputs.

    The output is computed at ``queries`` (default ``x``), attending over
    every row of ``x``: ``G = LN(Q + MHA(Q; X))``, ``LN(G + FFN(G))``.
    Without ``queries`` and with some key masked, the FFN runs only on the
    rows :func:`_read_rows` names, and every other (padded) row is
    ``LN(G)``: a later layer reads such a row only as a masked key, with
    weight exactly 0, so no read row and no gradient changes.  Dropout
    draws masks in the queries' shape.
    """
    rows = None if queries is not None else _read_rows(attention_mask, x.shape[:-1])
    queries = ad.as_tensor(x if queries is None else queries)
    attn = multi_head_attention(x, attention_mask, params, cfg, queries)
    if dropout is not None:
        attn = dropout(attn)
    g = layer_norm(queries + attn, params.ln1_gain, params.ln1_bias)
    ff = feed_forward(g, params, rows)
    if dropout is not None:
        ff = dropout(ff)
    return layer_norm(g + ff, params.ln2_gain, params.ln2_bias)


def run_encoder(
    embedded: Tensor,
    attention_mask: np.ndarray,
    layers: list,
    cfg: EncoderConfig,
    fusion_hook=None,
    dropout: Dropout | None = None,
) -> Tensor:
    """Run all layers and return the final ``[CLS]`` state (..., d_model).

    ``embedded`` is (..., T, d_model) with ``[CLS]`` at position 0.
    ``fusion_hook`` is a callable Tensor -> Tensor (or None to disable),
    applied to every position after layer ``fusion_layer``; with it
    disabled this is a plain encoder.  Every layer but the last runs on
    all T rows.  The last layer computes only the ``[CLS]`` query row,
    attending over every position, because no other row of it reaches
    the classifier.  With dropout, that layer therefore draws masks for
    the ``[CLS]`` rows only, so a seeded run at a dropout rate above 0
    follows another random stream than a last layer over all rows would.
    """
    x = ad.as_tensor(embedded)
    attention_mask = np.asarray(attention_mask, dtype=bool)
    *batch, T, d = x.shape
    *body, last = layers
    for i, layer in enumerate(body, start=1):
        x = encoder_layer(x, attention_mask, layer, cfg, dropout)
        if i == cfg.fusion_layer and fusion_hook is not None:
            x = fusion_hook(x)
    n = math.prod(batch)
    cls = ad.gather2(x.reshape(n, T, d), np.arange(n), np.zeros(n, dtype=np.int64))
    x = encoder_layer(x, attention_mask, last, cfg, dropout, cls.reshape(*batch, 1, d))
    return x.reshape(*batch, d)
