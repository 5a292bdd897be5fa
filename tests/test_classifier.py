"""Classification head and loss functions.

The focal-loss reference values are hand evaluations of
-(1 - p)^gamma * log(p): at p = 0.5, gamma = 0 gives ln 2 and gamma = 2
gives ln(2)/4.  Every loss property is checked on the library's logit
form, fed ``logits = log p`` so that its softmax returns ``p``, and on
the probability-form references below.  The library has no separate
cross entropy: its cross-entropy form is focal loss at gamma = 0.
"""
import math

import numpy as np
import pytest

from lexfuse.autodiff import Tensor, softmax_forward
from lexfuse.classifier import (
    PROB_FLOOR,
    HeadParams,
    focal_loss_from_logits,
    head_logits,
)
from lexfuse.encoder import EncoderConfig
from lexfuse.gradcheck import _gradcheck_fixture
from lexfuse.pipeline import ModelParams, TrainConfig, batch_loss, collate, forward_logits

LN2 = math.log(2.0)


def _true_class_prob(p, y) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if p.ndim == 1:
        return p[y.reshape(())]
    return p[np.arange(p.shape[0]), y]


def focal_loss(p, y, gamma: float = 2.0, floor: float = PROB_FLOOR) -> float:
    """Reference: mean of -(1 - p_t)^gamma * log(p_t), p_t clamped below by ``floor``."""
    pt = np.maximum(_true_class_prob(p, y), floor)
    return float(np.mean(-((1.0 - pt) ** gamma) * np.log(pt)))


def cross_entropy(p, y, floor: float = PROB_FLOOR) -> float:
    """Reference: mean negative log probability of the true class."""
    pt = np.maximum(_true_class_prob(p, y), floor)
    return float(np.mean(-np.log(pt)))


def _from_logits(loss_fn, p, y, **kwargs) -> float:
    """A library loss fed ``logits = log p``, so that its softmax returns ``p``."""
    with np.errstate(divide="ignore"):
        logits = Tensor(np.log(np.atleast_2d(np.asarray(p, dtype=np.float64))))
    return loss_fn(logits, np.atleast_1d(y), **kwargs).item()


def focal_forms(gamma: float):
    """The focal loss as the library's logit form and as the reference."""
    return (
        lambda p, y: _from_logits(focal_loss_from_logits, p, y, gamma=gamma),
        lambda p, y: focal_loss(p, y, gamma),
    )


CE_FORMS = (lambda p, y: _from_logits(focal_loss_from_logits, p, y, gamma=0.0), cross_entropy)


def make_head(d=4, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    return HeadParams(
        w_class=Tensor(scale * rng.normal(size=(2, d)), requires_grad=True),
        b_class=Tensor(np.zeros(2), requires_grad=True),
    )


def head_probs(x, head) -> np.ndarray:
    return softmax_forward(head_logits(Tensor(np.asarray(x, dtype=np.float64)), head).data)


class TestClassify:
    def test_zero_head_is_uniform(self):
        head = make_head()
        head.w_class.data[:] = 0.0
        probs = head_probs(np.ones((3, 4)), head)
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)

    def test_bias_only_softmax(self):
        head = make_head()
        head.w_class.data[:] = 0.0
        head.b_class.data = np.array([0.0, 10.0])
        probs = head_probs(np.zeros((1, 4)), head)[0]
        expected = math.exp(10) / (1 + math.exp(10))
        np.testing.assert_allclose(probs[1], expected, atol=1e-12)
        assert probs[1] > 0.9999

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(1)
        head = make_head(seed=2)
        probs = head_probs(rng.normal(size=(50, 4)), head)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_batched_matches_single(self):
        """Each row of a batch scores as it does alone in a batch of one."""
        rng = np.random.default_rng(3)
        head = make_head(seed=4)
        xs = rng.normal(size=(5, 4))
        batch = head_probs(xs, head)
        for i in range(5):
            np.testing.assert_allclose(head_probs(xs[i : i + 1], head)[0], batch[i], atol=1e-15)


class TestFocalLoss:
    def test_perfect_prediction_is_zero(self):
        for gamma in (0.0, 0.5, 2.0, 5.0):
            for loss in focal_forms(gamma):
                assert loss([0.0, 1.0], 1) == 0.0

    def test_gamma_zero_at_half_is_ln2(self):
        for loss in focal_forms(0.0):
            got = loss([0.5, 0.5], 1)
            np.testing.assert_allclose(got, LN2, atol=1e-12)
            np.testing.assert_allclose(got, 0.693147, atol=1e-6)

    def test_gamma_two_at_half(self):
        for loss in focal_forms(2.0):
            got = loss([0.5, 0.5], 0)
            np.testing.assert_allclose(got, 0.25 * LN2, atol=1e-12)
            np.testing.assert_allclose(got, 0.173287, atol=1e-6)

    def test_equals_cross_entropy_at_gamma_zero(self):
        """Sweep 1000 random probability pairs and labels."""
        rng = np.random.default_rng(0)
        p1 = rng.uniform(1e-6, 1 - 1e-6, size=1000)
        y = rng.integers(2, size=1000)
        for focal, ce in zip(focal_forms(0.0), CE_FORMS):
            for i in range(1000):
                p = [1 - p1[i], p1[i]]
                assert abs(focal(p, y[i]) - ce(p, y[i])) <= 1e-12

    def test_monotone_nonincreasing_in_pt(self):
        for gamma in (0.0, 1.0, 2.0):
            for loss in focal_forms(gamma):
                pts = np.linspace(0.01, 0.999, 200)
                losses = [loss([1 - p, p], 1) for p in pts]
                assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))

    def test_down_weights_by_squared_complement(self):
        """For p_t < 1 and gamma = 2 the focal loss is exactly
        (1 - p_t)^2 times the cross entropy, hence strictly smaller."""
        rng = np.random.default_rng(1)
        p1s = rng.uniform(0.01, 0.99, size=200)
        for focal, ce in zip(focal_forms(2.0), CE_FORMS):
            for p1 in p1s:
                fl = focal([1 - p1, p1], 1)
                c = ce([1 - p1, p1], 1)
                np.testing.assert_allclose(fl, (1 - p1) ** 2 * c, rtol=1e-12)
                assert fl < c

    def test_zero_probability_clamped_finite(self):
        for loss in focal_forms(2.0) + CE_FORMS:
            got = loss([1.0, 0.0], 1)
            assert np.isfinite(got)
            np.testing.assert_allclose(got, -math.log(1e-12), rtol=1e-9)

    def test_batch_mean(self):
        p = np.array([[0.5, 0.5], [0.0, 1.0]])
        y = np.array([1, 1])
        for loss in focal_forms(0.0):
            np.testing.assert_allclose(loss(p, y), LN2 / 2, atol=1e-12)

    def test_config_validation(self):
        """The focal exponent is validated by the training config."""
        for gamma in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gamma"):
                TrainConfig(gamma=gamma)
        assert TrainConfig(gamma=0.0).gamma == 0.0


class TestCrossEntropy:
    def test_perfect(self):
        for loss in CE_FORMS:
            assert loss([0.0, 1.0], 1) == 0.0

    def test_half(self):
        for loss in CE_FORMS:
            np.testing.assert_allclose(loss([0.5, 0.5], 0), LN2, atol=1e-12)

    def test_batch_loss_at_gamma_zero_is_cross_entropy(self):
        """``TrainConfig(gamma=0)`` trains on cross entropy; the default
        ``gamma=2`` gives the smaller focal loss."""
        enc = EncoderConfig(d_model=8, n_heads=2, n_layers=2, fusion_layer=1, dropout_rate=0.0)
        params = ModelParams.initialize(
            enc, vocab_size=8, max_len=6, d_w=6, n_syn=4, dtype=np.float64, init_std=0.4
        )
        batch = collate(*_gradcheck_fixture())
        p = softmax_forward(forward_logits(batch, params, enc).data)
        want = cross_entropy(p, batch.labels)
        ce = batch_loss(batch, params, enc, TrainConfig(gamma=0.0)).item()
        np.testing.assert_allclose(ce, want, rtol=1e-12)
        focal = batch_loss(batch, params, enc, TrainConfig()).item()
        assert focal < want


class TestLogitLosses:
    def test_focal_from_logits_matches_probability_form(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 2)) * 2
        y = rng.integers(2, size=6)
        z = logits - logits.max(axis=-1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        want = focal_loss(p, y, gamma=2.0)
        got = focal_loss_from_logits(Tensor(logits), y, gamma=2.0).item()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_gradient_wrt_logits_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        y = np.array([1, 0, 1])
        for gamma in (2.0, 0.0):
            def fn(t):
                return focal_loss_from_logits(t, y, gamma)

            logits = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            loss = fn(logits)
            loss.backward()
            eps = 1e-6
            fd = np.zeros_like(logits.data)
            flat = logits.data.reshape(-1)
            for i in range(flat.size):
                o = flat[i]
                flat[i] = o + eps
                up = fn(Tensor(logits.data)).item()
                flat[i] = o - eps
                dn = fn(Tensor(logits.data)).item()
                flat[i] = o
                fd.reshape(-1)[i] = (up - dn) / (2 * eps)
            np.testing.assert_allclose(logits.grad, fd, rtol=1e-4, atol=1e-10)

    def test_head_gradient_through_logits(self):
        """End-to-end head: d(loss)/d(W_class) matches finite differences."""
        rng = np.random.default_rng(4)
        head = make_head(seed=5)
        x = Tensor(rng.normal(size=(4, 4)))
        y = np.array([0, 1, 1, 0])

        def f():
            return focal_loss_from_logits(head_logits(x, head), y, gamma=2.0)

        loss = f()
        loss.backward()
        eps = 1e-6
        for t in (head.w_class, head.b_class):
            fd = np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                o = flat[i]
                flat[i] = o + eps
                up = f().item()
                flat[i] = o - eps
                dn = f().item()
                flat[i] = o
                fd.reshape(-1)[i] = (up - dn) / (2 * eps)
            np.testing.assert_allclose(t.grad, fd, rtol=1e-5, atol=1e-10)
