"""Classification head and the focal / cross-entropy losses.

The head maps the final [CLS] hidden state to two class probabilities.
Focal loss down-weights well-classified examples by the modulating
factor (1 - p_t)^gamma, where p_t is the probability assigned to the
true class; gamma = 0 recovers plain cross entropy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "HeadParams",
    "FocalConfig",
    "classify",
    "head_logits",
    "focal_loss",
    "cross_entropy",
    "focal_loss_from_logits",
    "cross_entropy_from_logits",
]

PROB_FLOOR = 1e-12


@dataclass
class HeadParams:
    """Output projection: w_class (2, d_model), b_class (2,)."""

    w_class: Tensor
    b_class: Tensor


@dataclass(frozen=True)
class FocalConfig:
    gamma: float = 2.0
    floor: float = PROB_FLOOR

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not (0 < self.floor < 1):
            raise ValueError(f"floor must be in (0, 1), got {self.floor}")


def head_logits(x_cls: Tensor, params: HeadParams) -> Tensor:
    """Raw class scores for (B, d_model) or (d_model,) hidden states."""
    x = ad.as_tensor(x_cls)
    single = x.ndim == 1
    if single:
        x = x.reshape(1, -1)
    logits = x @ params.w_class.T + params.b_class
    return logits.reshape(2) if single else logits


def _softmax_np(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def classify(x_cls, params: HeadParams) -> np.ndarray:
    """Class probabilities (p0, p1) for one hidden state or a batch."""
    x = x_cls.data if isinstance(x_cls, Tensor) else np.asarray(x_cls)
    with ad.no_grad():
        logits = head_logits(Tensor(x), params)
    return _softmax_np(logits.data)


def _true_class_prob(p, y) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if p.ndim == 1:
        return p[y.reshape(())]
    return p[np.arange(p.shape[0]), y]


def focal_loss(p, y, cfg: FocalConfig | None = None) -> float:
    """Mean focal loss of probability pairs ``p`` against labels ``y``.

    Per example: -(1 - p_t)^gamma * log(p_t) with p_t clamped below by
    ``cfg.floor`` so a zero probability stays finite.
    """
    cfg = cfg or FocalConfig()
    pt = np.maximum(_true_class_prob(p, y), cfg.floor)
    return float(np.mean(-((1.0 - pt) ** cfg.gamma) * np.log(pt)))


def cross_entropy(p, y, floor: float = PROB_FLOOR) -> float:
    """Mean negative log probability of the true class."""
    pt = np.maximum(_true_class_prob(p, y), floor)
    return float(np.mean(-np.log(pt)))


def focal_loss_from_logits(
    logits: Tensor, y: np.ndarray, gamma: float, floor: float = PROB_FLOOR
) -> Tensor:
    """Differentiable batch-mean focal loss on raw logits (B, 2)."""
    y = np.asarray(y, dtype=np.int64)
    probs = ad.softmax(logits, axis=-1)
    pt = ad.gather2(probs, np.arange(y.shape[0]), y)
    pt = ad.clip_min(pt, floor)
    return (-((1.0 - pt) ** float(gamma)) * ad.log(pt)).mean()


def cross_entropy_from_logits(logits: Tensor, y: np.ndarray, floor: float = PROB_FLOOR) -> Tensor:
    """Differentiable batch-mean cross entropy on raw logits (B, 2)."""
    y = np.asarray(y, dtype=np.int64)
    probs = ad.softmax(logits, axis=-1)
    pt = ad.clip_min(ad.gather2(probs, np.arange(y.shape[0]), y), floor)
    return (-ad.log(pt)).mean()
