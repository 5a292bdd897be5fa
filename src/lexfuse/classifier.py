"""Classification head and the focal loss.

The head maps the final [CLS] hidden states (B, d_model) to two class
logits.  Focal loss down-weights well-classified examples by the
modulating factor (1 - p_t)^gamma, where p_t is the probability assigned
to the true class.  Cross entropy is focal loss at gamma = 0, where the
factor is exactly 1 and its gradient exactly 0, so it needs neither a
function nor a setting of its own: ``TrainConfig.gamma`` is the one
loss setting.  The loss is a differentiable function of the logits; the
tests hold its probability-form references.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "HeadParams",
    "head_logits",
    "focal_loss_from_logits",
]

PROB_FLOOR = 1e-12


@dataclass
class HeadParams:
    """Output projection: w_class (2, d_model), b_class (2,)."""

    w_class: Tensor
    b_class: Tensor


def head_logits(x_cls: Tensor, params: HeadParams) -> Tensor:
    """Raw class scores (B, 2) for (B, d_model) hidden states."""
    return ad.as_tensor(x_cls) @ params.w_class.T + params.b_class


def focal_loss_from_logits(logits: Tensor, y: np.ndarray, gamma: float) -> Tensor:
    """Differentiable batch-mean focal loss on raw logits (B, 2)."""
    y = np.asarray(y, dtype=np.int64)
    probs = ad.softmax(logits, axis=-1)
    pt = ad.gather2(probs, np.arange(y.shape[0]), y)
    pt = ad.clip_min(pt, PROB_FLOOR)
    return (-((1.0 - pt) ** float(gamma)) * ad.log(pt)).mean()

