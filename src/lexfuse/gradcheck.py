"""Gradient verification: analytic gradients against finite differences.

:func:`gradient_check` runs a tiny double-precision model over a fixed
micro-batch that reaches every model path, perturbs every element of
every trainable tensor, and reports the worst relative error per tensor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .embedding import ModelInput
from .encoder import EncoderConfig
from .fusion import FusionContext
from .pipeline import ModelParams, TrainConfig, backward, batch_loss, collate

__all__ = ["GradCheckReport", "gradient_check"]


@dataclass
class GradCheckRow:
    tensor: str
    max_rel_err: float
    n_elements: int

    def ok(self, tolerance: float) -> bool:
        return self.max_rel_err <= tolerance


@dataclass
class GradCheckReport:
    rows: list
    tolerance: float
    eps_fd: float
    gamma: float

    @property
    def passed(self) -> bool:
        return all(r.ok(self.tolerance) for r in self.rows)

    @property
    def failures(self) -> list:
        return [r.tensor for r in self.rows if not r.ok(self.tolerance)]

    def format(self) -> str:
        lines = [f"gradient check (gamma={self.gamma:g}, eps={self.eps_fd:g}, tol={self.tolerance:g})"]
        width = max(len(r.tensor) for r in self.rows)
        for r in self.rows:
            flag = "ok  " if r.ok(self.tolerance) else "FAIL"
            lines.append(f"  {flag} {r.tensor:<{width}} max_rel_err={r.max_rel_err:.3e} ({r.n_elements} elems)")
        lines.append("PASS" if self.passed else f"FAIL: {', '.join(self.failures)}")
        return "\n".join(lines)


def _gradcheck_fixture():
    """A fixed micro-batch covering every model path: two segments,
    keywords in both, synonym fusion at two positions, and a shorter
    second row that :func:`collate` pads."""
    ex1 = ModelInput(
        token_ids=np.array([2, 4, 5, 3, 5, 3]),  # [CLS] w kw [SEP] kw [SEP]
        segment_ids=np.array([0, 0, 0, 0, 1, 1]),
        keyword_mask=np.array([0, 0, 1, 0, 1, 0]),
        label=1,
    )
    ctx1 = FusionContext({2: np.array([0, 1]), 4: np.array([0, 1])})
    ex2 = ModelInput(
        token_ids=np.array([2, 6, 3, 7, 3]),  # [CLS] w [SEP] kw [SEP]
        segment_ids=np.array([0, 0, 0, 1, 1]),
        keyword_mask=np.array([0, 0, 0, 1, 0]),
        label=0,
    )
    ctx2 = FusionContext({3: np.array([2, 3])})
    return [ex1, ex2], [ctx1, ctx2]


def gradient_check(
    gamma: float = 2.0,
    tolerance: float = 1e-4,
    eps_fd: float = 1e-5,
    inject_fault: str | None = None,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    The loss is focal loss at exponent ``gamma``; ``gamma=0`` checks
    cross entropy.  Runs a tiny double-precision model (d_model=8, T=6,
    2 layers, 2 heads, 2 synonyms per fused position) and perturbs every
    element of every trainable tensor.  Parameters are drawn at a generic scale
    (std 0.4) so that attention scores are non-degenerate and every path
    carries a measurable gradient; at the training init scale the
    score-path gradients sit below finite-difference resolution and the
    relative comparison is vacuous.  ``inject_fault`` corrupts the
    analytic gradient of the named tensor so the detection path itself
    can be tested.
    """
    enc_cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=2, fusion_layer=1, dropout_rate=0.0)
    train_cfg = TrainConfig(gamma=gamma, dropout_rate=0.0, h_max=2, max_len=6)
    inputs, contexts = _gradcheck_fixture()
    params = ModelParams.initialize(
        enc_cfg, vocab_size=8, max_len=6, d_w=6, n_syn=4, seed=0, dtype=np.float64,
        init_std=0.4,
    )
    batch = collate(inputs, contexts)
    _, grads = backward(batch, params, enc_cfg, train_cfg)
    if inject_fault is not None:
        if inject_fault not in grads:
            raise ValueError(f"unknown tensor {inject_fault!r} for fault injection")
        grads[inject_fault] = grads[inject_fault] + 0.5

    def loss_value() -> float:
        with ad.no_grad():
            return batch_loss(batch, params, enc_cfg, train_cfg).item()

    rows: list = []
    for name, tensor in params.named_tensors():
        analytic = grads[name]
        fd = np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps_fd
            up = loss_value()
            flat[i] = orig - eps_fd
            down = loss_value()
            flat[i] = orig
            fd_flat[i] = (up - down) / (2.0 * eps_fd)
        if analytic.size:
            # The denominator floor forgives only absolute disagreements below
            # floor * tolerance (~1e-10): finite-difference noise on tensors
            # whose true gradient is structurally zero (e.g. the key bias,
            # which softmax shift invariance makes inert) must not register.
            floor = max(1e-6, 0.01 * float(np.abs(fd).max()))
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
            max_rel = float((np.abs(analytic - fd) / denom).max())
        else:
            max_rel = 0.0
        rows.append(GradCheckRow(name, max_rel, analytic.size))
    return GradCheckReport(rows, tolerance, eps_fd, gamma)
