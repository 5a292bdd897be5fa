"""The model's parameters: the training config, the registry of trainable
tensors, and their initial draw.

:func:`param_shapes` names every trainable tensor with its shape and init
kind, in one order that is the random draw order, the tensor order of a
checkpoint and the order of :meth:`ModelParams.named_tensors`.
:class:`ModelParams` holds the tensors and the per-layer, fusion and head
groups that share them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri_exp

from .autodiff import Tensor
from .classifier import HeadParams
from .encoder import EncoderConfig, LayerParams, _require_integers, layer_param_shapes
from .fusion import FusionParams

__all__ = ["TrainConfig", "ModelParams", "param_shapes"]


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol knobs.

    ``enable_keywords`` switches the S2 keyword segment on or off and
    ``enable_synonyms`` the deep-fusion layer, giving the ablation grid.
    ``gamma`` is the focal-loss exponent and the one loss setting: at
    ``gamma=0`` the loss is cross entropy.  The architecture, fusion layer
    included, lives in :class:`EncoderConfig`; :func:`~lexfuse.pipeline.train`
    copies only ``dropout_rate`` onto it.  Counts and sizes are integers,
    the two switches are bools, and the three float settings are real
    numbers other than bools; ``learning_rate`` and ``gamma`` are finite.
    """

    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 15
    dropout_rate: float = 0.1
    gamma: float = 2.0
    h_max: int = 5
    seed: int = 0
    enable_keywords: bool = True
    enable_synonyms: bool = True
    max_len: int = 48
    min_freq: int = 1

    def __post_init__(self):
        for name in ("enable_keywords", "enable_synonyms"):
            if not isinstance(value := getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        for name in ("learning_rate", "gamma", "dropout_rate"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        _require_integers(
            self, {"batch_size": 1, "epochs": 1, "h_max": 1, "max_len": 4, "min_freq": 1, "seed": 0}
        )


def param_shapes(
    enc_cfg: EncoderConfig, vocab_size: int, max_len: int, d_w: int, n_syn: int
) -> dict:
    """Name -> ``(shape, init kind)`` of every trainable tensor.

    The order is the random draw order of :meth:`ModelParams.initialize`:
    every layer, the embeddings, fusion, head, then the synonym vectors.
    """
    d = enc_cfg.d_model
    layer = layer_param_shapes(enc_cfg)
    spec = {f"layer{i}.{n}": s for i in range(enc_cfg.n_layers) for n, s in layer.items()}
    spec.update({
        "tok_emb": ((vocab_size, d), "weight"),
        "seg_emb": ((2, d), "weight"),
        "pos_emb": ((max_len, d), "weight"),
        "fusion.w1": ((d, d_w), "weight"),
        "fusion.b1": ((d,), "zeros"),
        "fusion.w2": ((d, d), "weight"),
        "head.w_class": ((2, d), "weight"),
        "head.b_class": ((2,), "zeros"),
        "syn_emb": ((n_syn, d_w), "weight"),
    })
    return spec


def _group(tensors: dict, prefix: str) -> dict:
    return {n[len(prefix):]: t for n, t in tensors.items() if n.startswith(prefix)}


# log Phi(-2) and the log Gaussian mass of [-2, 2], by the float ops of
# scipy's truncnorm, which recomputes both for every element it draws
_LOG_CDF_A = float(log_ndtr(-2.0))
_LOG_MASS = float(np.log1p(-ndtr(-2.0) - ndtr(-2.0)))


def _truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """``std`` times a standard normal truncated to [-2, 2], by inverse CDF.

    For ``u`` uniform on [0, 1) the quantile is ``ndtri_exp(log(Phi(-2) +
    u * mass))``. The log of that sum is ``log1p(exp(lo - hi)) + hi`` over
    its two log terms ``log_ndtr(-2)`` and ``log(u) + log(mass)``, which
    stays accurate in the tail. ``u = 0`` gives ``log(u) = -inf`` and the
    quantile -2, one float64 ulp below it as scipy rounds it.
    """
    u = rng.uniform(size=shape)
    with np.errstate(divide="ignore"):
        x = np.log(u) + _LOG_MASS
    hi = np.maximum(x, _LOG_CDF_A)
    return ndtri_exp(np.log1p(np.exp(np.minimum(x, _LOG_CDF_A) - hi)) + hi) * std


class ModelParams:
    """All trainable tensors of one model instance.

    ``tensors`` maps every :func:`param_shapes` name to its tensor, in spec
    order; the attributes and the per-layer, fusion and head groups share
    those tensors.
    """

    def __init__(self, tensors: dict):
        self._tensors = tensors
        self.tok_emb = tensors["tok_emb"]
        self.seg_emb = tensors["seg_emb"]
        self.pos_emb = tensors["pos_emb"]
        self.syn_emb = tensors["syn_emb"]
        self.layers: list = []
        while layer := _group(tensors, f"layer{len(self.layers)}."):
            self.layers.append(LayerParams(**layer))
        self.fusion = FusionParams(**_group(tensors, "fusion."))
        self.head = HeadParams(**_group(tensors, "head."))

    @classmethod
    def initialize(
        cls,
        enc_cfg: EncoderConfig,
        vocab_size: int,
        max_len: int,
        d_w: int,
        n_syn: int,
        seed: int = 0,
        dtype=np.float32,
        init_std: float = 0.02,
        tensors: dict | None = None,
    ) -> "ModelParams":
        """Truncated-normal (clipped at 2 std) weights, zero biases, unit gains.

        Each weight tensor takes one ``rng.uniform(size=shape)`` draw ``u``,
        in :func:`param_shapes` order, and maps it through the inverse CDF
        of the standard normal truncated to [-2, 2], scaled by ``init_std``
        (see :func:`_truncated_normal`). These are the float64 operations
        of ``scipy.stats.truncnorm.rvs(-2, 2, scale=init_std, size=shape,
        random_state=rng)``, so the weights equal its draw bitwise.

        With ``tensors`` (name -> array) nothing is drawn and ``seed``,
        ``dtype`` and ``init_std`` are unused: the arrays must be exactly
        the :func:`param_shapes` names at exactly those shapes, and each is
        wrapped as it is (no copy, no dtype change), in spec order. A
        missing name, an unexpected name or a shape the arguments do not
        imply raises :class:`ValueError` naming the tensor.
        """
        spec = param_shapes(enc_cfg, vocab_size, max_len, d_w, n_syn)
        if tensors is not None:
            for name, (shape, _) in spec.items():
                if name not in tensors:
                    raise ValueError(f"missing tensor {name!r}")
                if tensors[name].shape != shape:
                    raise ValueError(f"tensor {name!r} has shape {tensors[name].shape}, config implies {shape}")
            if extra := set(tensors) - set(spec):
                raise ValueError(f"unexpected tensors {sorted(extra)}")
            return cls({name: Tensor(tensors[name], requires_grad=True) for name in spec})
        rng = np.random.default_rng(np.random.SeedSequence(seed))

        def make(shape, kind):
            if kind == "weight":
                data = _truncated_normal(rng, shape, init_std)
            else:
                data = {"zeros": np.zeros, "ones": np.ones}[kind](shape)
            return Tensor(data.astype(dtype), requires_grad=True)

        return cls({name: make(shape, kind) for name, (shape, kind) in spec.items()})

    def named_tensors(self):
        return self._tensors.items()

    def zero_grad(self) -> None:
        for _, t in self.named_tensors():
            t.grad = None
