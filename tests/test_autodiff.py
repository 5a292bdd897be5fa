"""Unit tests for the reverse-mode engine.

Every operation's backward rule is validated against central finite
differences on random inputs, plus structural checks (broadcasting,
graph reuse, dtype preservation, no_grad).
"""
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import lexfuse

from lexfuse import autodiff as ad
from lexfuse.encoder import EncoderConfig, LayerParams, encoder_layer, layer_param_shapes, multi_head_attention


def finite_diff(f, tensor, eps=1e-6):
    """Central-difference gradient of scalar-valued ``f`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f().item()
        flat[i] = orig - eps
        down = f().item()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def assert_grad_matches(f, tensors, rtol=1e-6, atol=1e-9):
    loss = f()
    loss.backward()
    for t in tensors:
        fd = finite_diff(f, t)
        np.testing.assert_allclose(t.grad, fd, rtol=rtol, atol=atol)


class TestArithmetic:
    def test_add_mul_neg_chain(self):
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)

        def f():
            return ((a * b + -(a * a) + 2.0 * a + 0.5) * (1.0 - b)).mean()

        assert_grad_matches(f, [a, b])

    def test_broadcast_bias(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=(4,)), requires_grad=True)

        def f():
            return ((x + bias) * (x * bias)).mean()

        assert_grad_matches(f, [x, bias])

    def test_pow_and_reciprocal(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)

        def f():
            return (x**3 + x**-0.5 + x**-1).mean()

        assert_grad_matches(f, [x])

    def test_pow_zero_exponent_is_constant_one(self):
        x = ad.Tensor(np.array([0.0, 0.5, 2.0]), requires_grad=True)
        y = x**0
        np.testing.assert_array_equal(y.data, np.ones(3))
        y.mean().backward()
        np.testing.assert_array_equal(x.grad, np.zeros(3))


class TestMatmul:
    def test_2d(self):
        rng = np.random.default_rng(3)
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert_grad_matches(lambda: (a @ b).mean(), [a, b])

    def test_batched_against_unbatched(self):
        rng = np.random.default_rng(4)
        a = ad.Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        assert_grad_matches(lambda: ((a @ w) * (a @ w)).mean(), [a, w])

    def test_rejects_vectors(self):
        with pytest.raises(ValueError):
            ad.Tensor(np.ones(3)) @ ad.Tensor(np.ones((3, 2)))


class TestPointwise:
    def test_log(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.uniform(0.1, 3.0, size=(6,)), requires_grad=True)
        assert_grad_matches(lambda: ad.log(x).mean(), [x])

    def test_gelu_matches_reference(self):
        import math

        x = np.linspace(-4, 4, 33)
        out = ad.gelu(ad.Tensor(x)).data
        ref = np.array([0.5 * v * (1 + math.erf(v / math.sqrt(2))) for v in x])
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_gelu_grad(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.normal(size=(10,)), requires_grad=True)
        assert_grad_matches(lambda: ad.gelu(x).mean(), [x])

    def test_clip_min(self):
        x = ad.Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        y = ad.clip_min(x, 0.0)
        np.testing.assert_array_equal(y.data, [0.0, 0.5, 2.0])
        y.mean().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1 / 3, 1 / 3])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.normal(size=(8, 5)) * 10)
        s = ad.softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_masked_entries_are_exact_zero(self):
        x = ad.Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        masked = ad.where_mask(x, np.array([[True, False, True]]), -np.inf)
        s = ad.softmax(masked, axis=-1)
        assert s.data[0, 1] == 0.0
        np.testing.assert_allclose(s.data.sum(), 1.0, atol=1e-15)

    def test_grad(self):
        rng = np.random.default_rng(8)
        x = ad.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        c = ad.Tensor(rng.normal(size=(4, 6)))
        assert_grad_matches(lambda: (ad.softmax(x, axis=-1) * c).mean(), [x])

    def test_masked_grad_is_zero(self):
        x = ad.Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        mask = np.array([[True, False, True]])
        s = ad.softmax(ad.where_mask(x, mask, -np.inf), axis=-1)
        s.mean().backward()
        assert x.grad[0, 1] == 0.0


def reference_softmax(x, axis=-1):
    """The softmax that ``ad.softmax``, ``ad.attention`` and the class
    probabilities each composed before the library had one: ``exp(x − max)``
    over its sum, every step into a new array."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def reference_softmax_grad(w, g, axis=-1):
    """The composed softmax backward of ``ad.softmax`` and ``ad.attention``."""
    dot = (g * w).sum(axis=axis, keepdims=True)
    return w * (g - dot)


def softmax_case(kind, dtype, seed=0):
    """Scores of 64 rows at the shape each caller uses, with the -inf
    entries it produces: masked keys of attention (B, H, Tq, T), padded
    synonym slots of fusion (k, h_max), and the class logits (B, 2)."""
    rng = np.random.default_rng(seed)
    shape = {"attention": (64, 4, 12, 48), "fusion": (64, 5), "classifier": (64, 2)}[kind]
    x = (rng.normal(size=shape) * 3).astype(dtype)
    if kind == "attention":  # each example attends to its first 1..48 keys
        keep = np.arange(48) < rng.integers(1, 49, size=64)[:, None]
        x = np.where(keep[:, None, None, :], x, np.asarray(-np.inf, dtype=dtype))
    elif kind == "fusion":  # each position has 1..5 real synonym slots
        x = np.where(np.arange(5) < rng.integers(1, 6, size=64)[:, None], x, np.asarray(-np.inf, dtype=dtype))
    return x, rng.normal(size=shape).astype(dtype)


class TestSoftmaxHelper:
    """The library's one softmax, forward and backward, byte for byte
    against the composed expressions it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("kind", ["attention", "fusion", "classifier"])
    def test_bitwise_equal_to_composed(self, kind, dtype):
        x, g = softmax_case(kind, dtype)
        got = ad.softmax_forward(x)
        want = reference_softmax(x)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        grad = ad.softmax_backward(got, g)
        assert grad.dtype == dtype
        assert grad.tobytes() == reference_softmax_grad(want, g).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("kind", ["attention", "fusion", "classifier"])
    def test_tape_node_is_the_helper(self, kind, dtype):
        x, g = softmax_case(kind, dtype, seed=1)
        leaf = ad.Tensor(x, requires_grad=True)
        out = ad.softmax(leaf)
        out._backward(g)
        assert out.data.tobytes() == reference_softmax(x).tobytes()
        assert leaf.grad.tobytes() == reference_softmax_grad(reference_softmax(x), g).tobytes()

    def test_input_is_not_written(self):
        x, _ = softmax_case("fusion", np.float64)
        before = x.copy()
        ad.softmax_forward(x)
        assert x.tobytes() == before.tobytes()


class TestGatherScatter:
    def test_embedding_accumulates_repeated_rows(self):
        table = ad.Tensor(np.eye(4), requires_grad=True)
        out = ad.embedding(table, np.array([[1, 1], [2, 0]]))
        (out * 3.0).mean().backward()  # 16 entries; row 1 is looked up twice
        np.testing.assert_array_equal(table.grad[1], [0.375, 0.375, 0.375, 0.375])
        np.testing.assert_array_equal(table.grad[3], [0.0, 0.0, 0.0, 0.0])

    def test_embedding_grad_fd(self):
        rng = np.random.default_rng(9)
        table = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([[0, 2], [2, 4]])
        c = ad.Tensor(rng.normal(size=(2, 2, 3)))
        assert_grad_matches(lambda: (ad.embedding(table, ids) * c).mean(), [table])

    def test_gather2_and_scatter_add2_fd(self):
        rng = np.random.default_rng(10)
        x = ad.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        rows = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        i0 = np.array([0, 1, 1])
        i1 = np.array([2, 0, 3])

        def f():
            y = ad.scatter_add2(x, i0, i1, rows)
            picked = ad.gather2(y, i0, i1)
            return (picked * picked).mean()

        assert_grad_matches(f, [x, rows])


class TestGraphMechanics:
    def test_diamond_reuse_accumulates(self):
        # y = x*x + x*x reuses the same node twice; gradient must be 4x
        x = ad.Tensor(np.array([3.0]), requires_grad=True)
        h = x * x
        y = (h + h).mean()
        y.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_backward_requires_scalar(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_no_grad_suppresses_graph(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = (x * 2.0).mean()
        assert y.requires_grad is False
        assert y._backward is None

    def test_no_grad_is_per_thread(self):
        """Thread A enters ``no_grad``, thread B enters, A exits, then B
        exits: recording must be back on everywhere afterwards."""
        step = threading.Barrier(2, timeout=30)
        seen = {}

        def run(name, exit_second):
            with ad.no_grad():
                step.wait()  # both inside
                if exit_second:
                    step.wait()  # the other has left
                seen[name] = (ad.Tensor(np.ones(2), requires_grad=True) * 2.0).requires_grad
            if not exit_second:
                step.wait()

        threads = [threading.Thread(target=run, args=("a", False)), threading.Thread(target=run, args=("b", True))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert seen == {"a": False, "b": False}
        w = ad.Tensor(np.ones(3), requires_grad=True)
        (w * 2.0).mean().backward()
        np.testing.assert_array_equal(w.grad, np.full(3, 2.0 / 3.0))

    def test_constants_build_no_graph(self):
        a = ad.Tensor(np.ones(3))
        b = a * 2.0 + 1.0
        assert b.requires_grad is False

    def test_float32_stays_float32(self):
        x = ad.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = ad.softmax(ad.gelu(x * 0.5) + 1.0, axis=-1).mean()
        assert y.dtype == np.float32
        y.backward()
        assert x.grad.dtype == np.float32


class TestTapeFreeing:
    """``backward()`` consumes the graph it walks."""

    def leaves(self, seed):
        rng = np.random.default_rng(seed)
        return (
            ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True),
            ad.Tensor(rng.normal(size=(5, 6)), requires_grad=True),
            ad.Tensor(rng.normal(size=(6,)), requires_grad=True),
        )

    def test_interior_activation_freed_when_backward_returns(self):
        x, w, b = self.leaves(40)
        h = ad.gelu(ad.linear(x, w, b))
        alive = weakref.ref(h.data)
        loss = (h * h).mean()
        del h
        assert alive() is not None  # the tape keeps it for backward
        loss.backward()
        assert alive() is None

    def test_only_leaves_keep_grad(self):
        x, w, b = self.leaves(41)
        h = ad.linear(x, w, b)
        loss = (h * h).mean()
        loss.backward()
        for leaf in (x, w, b):
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        for node in (h, loss):
            assert node.grad is None and node._parents == ()

    def test_second_backward_raises(self):
        x, w, b = self.leaves(42)
        h = ad.linear(x, w, b)
        loss = (h * h).mean()
        loss.backward()
        want = x.grad.copy()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (h * 3.0).mean().backward()  # a new root over a consumed node
        np.testing.assert_array_equal(x.grad, want)


# -- fused ops against their composed forms -----------------------------


def composed_linear(x, w, b):
    """``ad.linear`` as two tape nodes: a (batched) matmul and a bias add."""
    return ad.as_tensor(x) @ w + b


def composed_layer_norm(x, gain, bias, eps=1e-5):
    """``ad.layer_norm`` as ten tape nodes.  ``x + (-mu)`` is bitwise
    ``x - mu``: IEEE subtraction is addition of the negation."""
    x = ad.as_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x + (-mu)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * gain + bias


def composed_attention(q, k, v, key_mask, n_heads, scale):
    """``ad.attention`` as fourteen tape nodes: the head split, scores,
    masking, softmax, weighted sum and head merge that
    ``multi_head_attention`` recorded before the fused node."""
    *batch, _, d = q.shape
    dh = d // n_heads

    def split_heads(t):
        # (..., rows, d) -> (..., H, rows, dh)
        return t.reshape(*batch, t.shape[-2], n_heads, dh).swapaxes(-2, -3)

    qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
    logits = (qh @ kh.swapaxes(-1, -2)) * scale
    keep = np.asarray(key_mask, dtype=bool).reshape(*batch, 1, 1, k.shape[-2])
    weights = ad.softmax(ad.where_mask(logits, keep, -np.inf), axis=-1)
    return (weights @ vh).swapaxes(-2, -3).reshape(q.shape)


def fused_inputs(shape, out_dim, seed, kind, dtype=np.float64, x_grad=True, pad_row=False):
    """Fresh leaves ``(x, p1, p2)``: a weight and bias for ``linear``, a
    gain and bias for ``layer_norm``.  ``pad_row`` zeroes the first row of
    x, as an all-padding row; layer norm then sees zero variance."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if pad_row:
        x[0] = 0.0
    d = shape[-1]
    if kind == "linear":
        p1, p2 = rng.normal(size=(d, out_dim)), rng.normal(size=(out_dim,))
    else:
        p1, p2 = rng.normal(1.0, 0.3, size=(d,)), rng.normal(size=(d,))
    return (
        ad.Tensor(x.astype(dtype), requires_grad=x_grad),
        ad.Tensor(p1.astype(dtype), requires_grad=True),
        ad.Tensor(p2.astype(dtype), requires_grad=True),
    )


FUSED = {"linear": (ad.linear, composed_linear), "layer_norm": (ad.layer_norm, composed_layer_norm)}
FUSED_CASES = [
    ((3, 5, 8), {}),
    ((1, 5, 8), {}),
    ((3, 1, 8), {}),
    ((1, 1, 8), {}),
    ((7, 8), {}),
    ((3, 5, 8), {"pad_row": True}),
    ((3, 5, 8), {"x_grad": False}),
]
FUSED_IDS = ["3d", "B1", "T1", "B1-T1", "2d", "padding-row", "x-no-grad"]


def run_and_backward(fn, leaves, seed):
    """``fn(*leaves)`` and the gradients of ``mean(out * r)`` for a fixed
    random ``r``; ``None`` for a leaf that does not require a gradient."""
    out = fn(*leaves)
    r = np.random.default_rng(seed).normal(size=out.shape).astype(out.dtype)
    (out * ad.Tensor(r)).mean().backward()
    return out.data, [t.grad for t in leaves]


class TestFusedOps:
    @pytest.mark.parametrize("kind", sorted(FUSED))
    @pytest.mark.parametrize("shape, opts", FUSED_CASES, ids=FUSED_IDS)
    def test_matches_composed_float64(self, kind, shape, opts):
        fused, composed = FUSED[kind]
        got, got_grads = run_and_backward(fused, fused_inputs(shape, 6, 10, kind, **opts), 11)
        want, want_grads = run_and_backward(composed, fused_inputs(shape, 6, 10, kind, **opts), 11)
        if kind == "layer_norm":
            np.testing.assert_array_equal(got, want)  # the same float ops in the same order
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for name, g, w in zip(("x", "p1", "p2"), got_grads, want_grads):
            if w is None:
                assert g is None, name
            else:
                assert g.shape == w.shape, name
                np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("kind", sorted(FUSED))
    def test_float32_stays_float32(self, kind):
        fused, composed = FUSED[kind]
        leaves = fused_inputs((4, 3, 8), 5, 12, kind, dtype=np.float32)
        got, grads = run_and_backward(fused, leaves, 13)
        want, _ = run_and_backward(composed, fused_inputs((4, 3, 8), 5, 12, kind, dtype=np.float32), 13)
        assert got.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads)
        if kind == "layer_norm":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("kind", sorted(FUSED))
    def test_grad_fd(self, kind):
        fused, _ = FUSED[kind]
        leaves = fused_inputs((2, 3, 4), 3, 14, kind)
        r = ad.Tensor(np.random.default_rng(15).normal(size=(2, 3, 3 if kind == "linear" else 4)))
        assert_grad_matches(lambda: (fused(*leaves) * r).mean(), list(leaves))

    @pytest.mark.parametrize("kind", sorted(FUSED))
    def test_one_tape_node(self, kind):
        leaves = fused_inputs((2, 3, 4), 5, 16, kind)
        out = FUSED[kind][0](*leaves)
        assert set(map(id, out._parents)) == set(map(id, leaves))

    def test_no_grad_records_nothing(self):
        x, w, b = fused_inputs((2, 3, 4), 5, 18, "linear")
        with ad.no_grad():
            out = ad.layer_norm(ad.linear(x, w, b), ad.Tensor(np.ones(5)), ad.Tensor(np.zeros(5)))
        assert out.requires_grad is False and out._backward is None

    @pytest.mark.parametrize("shape", [(3, 5, 8), (1, 5, 8), (3, 1, 8), (5, 8)], ids=["3d", "B1", "T1", "2d"])
    def test_encoder_layer_matches_composed(self, monkeypatch, shape):
        """An encoder layer on the fused ops agrees with the same layer on
        their composed forms: values, and float64 gradients of the input and
        of all 16 layer tensors, with a padded key in every row."""
        cfg = EncoderConfig(d_model=8, n_heads=2, d_ff=16, n_layers=2, fusion_layer=1, dropout_rate=0.0)
        mask = np.ones(shape[:-1], dtype=np.int64)
        if shape[-2] > 1:
            mask[..., -1] = 0

        def run():
            rng = np.random.default_rng(20)
            init = {"weight": lambda s: 0.5 * rng.normal(size=s), "zeros": np.zeros, "ones": np.ones}
            p = LayerParams(**{
                n: ad.Tensor(init[kind](s), requires_grad=True)
                for n, (s, kind) in layer_param_shapes(cfg).items()
            })
            x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
            out = encoder_layer(x, mask, p, cfg)
            (out * ad.Tensor(rng.normal(size=shape))).mean().backward()
            return out.data, x.grad, {n: getattr(p, n).grad for n in layer_param_shapes(cfg)}

        calls = {"linear": 0, "layer_norm": 0}

        def counted(name):
            op = getattr(ad, name)

            def wrapper(*args):
                calls[name] += 1
                return op(*args)

            return wrapper

        with monkeypatch.context() as m:
            for name in calls:
                m.setattr(ad, name, counted(name))
            got, got_x, got_p = run()
        assert calls == {"linear": 6, "layer_norm": 2}  # Q, K, V, O, two FFN layers; two LNs
        with monkeypatch.context() as m:
            m.setattr(ad, "linear", composed_linear)
            m.setattr(ad, "layer_norm", composed_layer_norm)
            want, want_x, want_p = run()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_x, want_x, rtol=1e-10, atol=1e-12)
        for name, g in got_p.items():
            np.testing.assert_allclose(g, want_p[name], rtol=1e-10, atol=1e-12, err_msg=name)


def assert_bitwise(got, want, name=""):
    assert got.shape == want.shape and got.dtype == want.dtype, name
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), name


def random_layer(cfg, rng, dtype=np.float64):
    """Layer tensors at a generic scale, so every path carries gradient:
    weights std 0.4, biases std 0.1, gains 1 ± 0.1."""
    init = {
        "weight": lambda s: 0.4 * rng.normal(size=s),
        "zeros": lambda s: 0.1 * rng.normal(size=s),
        "ones": lambda s: 1.0 + 0.1 * rng.normal(size=s),
    }
    return LayerParams(**{
        n: ad.Tensor(init[kind](s).astype(dtype), requires_grad=True)
        for n, (s, kind) in layer_param_shapes(cfg).items()
    })


def cls_rows(x):
    """The ``[CLS]`` query rows (B, 1, d) of ``x`` (B, T, d), as
    ``run_encoder`` takes them for the last layer."""
    n, _, d = x.shape
    return ad.gather2(x, np.arange(n), np.zeros(n, dtype=np.int64)).reshape(n, 1, d)


class TestAttentionNode:
    CFG = EncoderConfig(d_model=16, n_heads=4, d_ff=32, n_layers=2, fusion_layer=1, dropout_rate=0.0)

    def run_attention(self, batch, t, dtype, cls, empty_row, seed=50):
        """``multi_head_attention`` and the gradients of ``mean(out * r)``
        for the input and every layer tensor (None where unused)."""
        rng = np.random.default_rng(seed)
        p = random_layer(self.CFG, rng, dtype)
        x = ad.Tensor(rng.normal(size=(batch, t, self.CFG.d_model)).astype(dtype), requires_grad=True)
        lengths = rng.integers(1, t + 1, size=batch)
        mask = (np.arange(t) < lengths[:, None]).astype(np.int64)
        if empty_row:
            mask[batch // 2] = 0
        out = multi_head_attention(x, mask, p, self.CFG, cls_rows(x) if cls else None)
        r = rng.normal(size=out.shape).astype(dtype)
        (out * ad.Tensor(r)).mean().backward()
        return out.data, x.grad, {n: getattr(p, n).grad for n in layer_param_shapes(self.CFG)}

    @pytest.mark.parametrize("empty_row", [False, True], ids=["full", "empty-row"])
    @pytest.mark.parametrize("cls", [False, True], ids=["all-rows", "cls-rows"])
    @pytest.mark.parametrize("t", [1, 5, 12, 48])
    @pytest.mark.parametrize("batch", [1, 3, 8, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_bitwise_equal_to_composed(self, monkeypatch, dtype, batch, t, cls, empty_row):
        """The fused node gives the same output and the same gradient of
        the input and of every layer tensor, bit for bit, as the composed
        nodes it replaces."""
        got, got_x, got_p = self.run_attention(batch, t, dtype, cls, empty_row)
        with monkeypatch.context() as m:
            m.setattr(ad, "attention", composed_attention)
            want, want_x, want_p = self.run_attention(batch, t, dtype, cls, empty_row)
        assert_bitwise(got, want, "out")
        assert_bitwise(got_x, want_x, "x")
        for name, w in want_p.items():
            if w is None:
                assert got_p[name] is None, name
            else:
                assert_bitwise(got_p[name], w, name)

    def test_one_tape_node(self):
        rng = np.random.default_rng(51)
        q, k, v = (ad.Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True) for _ in range(3))
        out = ad.attention(q, k, v, np.ones((2, 3), dtype=bool), 2, 0.5)
        assert out._parents == (q, k, v)

    def test_grad_fd(self):
        rng = np.random.default_rng(52)
        q = ad.Tensor(rng.normal(size=(2, 2, 8)), requires_grad=True)
        k, v = (ad.Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True) for _ in range(2))
        mask = np.array([[1, 1, 0, 1], [1, 0, 0, 0]], dtype=bool)
        r = ad.Tensor(rng.normal(size=(2, 2, 8)))
        assert_grad_matches(lambda: (ad.attention(q, k, v, mask, 2, 0.5) * r).mean(), [q, k, v])


class TestInputsUnchanged:
    """``layer_norm`` and ``attention`` work in place only in buffers they
    allocate: every array passed in, and the upstream gradient, keeps its
    bytes through forward and backward."""

    @staticmethod
    def snapshot(arrays):
        return [np.array(a, copy=True) for a in arrays]

    @staticmethod
    def assert_unchanged(arrays, before):
        for i, (a, b) in enumerate(zip(arrays, before)):
            assert_bitwise(np.asarray(a), b, f"input {i}")

    @pytest.mark.parametrize("pad_row", [False, True], ids=["full", "padding-row"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_layer_norm(self, dtype, pad_row):
        leaves = fused_inputs((3, 5, 8), 8, 60, "layer_norm", dtype=dtype, pad_row=pad_row)
        arrays = [t.data for t in leaves]
        before = self.snapshot(arrays)
        out = ad.layer_norm(*leaves)
        assert not any(np.shares_memory(out.data, a) for a in arrays)
        g = np.random.default_rng(61).normal(size=out.shape).astype(dtype)
        g_before = g.copy()
        out._backward(g)
        self.assert_unchanged(arrays + [g], before + [g_before])
        assert all(t.grad is not None for t in leaves)

    @pytest.mark.parametrize("tq", [1, 6], ids=["cls-query", "all-queries"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_attention(self, dtype, tq):
        rng = np.random.default_rng(62)
        q = ad.Tensor(rng.normal(size=(3, tq, 8)).astype(dtype), requires_grad=True)
        k, v = (ad.Tensor(rng.normal(size=(3, 6, 8)).astype(dtype), requires_grad=True) for _ in range(2))
        key_mask = np.array([[1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0], [1] * 6], dtype=bool)
        arrays = [q.data, k.data, v.data, key_mask]
        before = self.snapshot(arrays)
        out = ad.attention(q, k, v, key_mask, 2, 0.5)
        g = rng.normal(size=out.shape).astype(dtype)
        g_before = g.copy()
        out._backward(g)
        self.assert_unchanged(arrays + [g], before + [g_before])
        assert all(t.grad is not None for t in (q, k, v))

    @pytest.mark.parametrize("cls", [False, True], ids=["all-rows", "cls-rows"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_attention_with_an_all_masked_row(self, dtype, cls):
        """Through ``multi_head_attention``, whose middle row has no key."""
        cfg = TestAttentionNode.CFG
        rng = np.random.default_rng(63)
        p = random_layer(cfg, rng, dtype)
        x = ad.Tensor(rng.normal(size=(3, 7, cfg.d_model)).astype(dtype), requires_grad=True)
        mask = np.array([[1] * 4 + [0] * 3, [0] * 7, [1] * 7])
        arrays = [x.data, mask, *(getattr(p, n).data for n in layer_param_shapes(cfg))]
        before = self.snapshot(arrays)
        out = multi_head_attention(x, mask, p, cfg, cls_rows(x) if cls else None)
        assert not out.data[1].any()
        (out * ad.Tensor(rng.normal(size=out.shape).astype(dtype))).mean().backward()
        self.assert_unchanged(arrays, before)
        assert x.grad is not None


@pytest.mark.parametrize("cls", [False, True], ids=["all-rows", "cls-rows"])
def test_encoder_layer_grad_fd_padded_batch(cls):
    """Finite differences in float64 over the input and all 16 tensors of
    one encoder layer, at a padded batch (B=3, T=7) whose second row is
    all padding, computed at every row or at the ``[CLS]`` rows only."""
    cfg = EncoderConfig(d_model=8, n_heads=2, d_ff=16, n_layers=2, fusion_layer=1, dropout_rate=0.0)
    rng = np.random.default_rng(53)
    p = random_layer(cfg, rng)
    x = ad.Tensor(rng.normal(size=(3, 7, 8)), requires_grad=True)
    mask = np.array([[1] * 4 + [0] * 3, [0] * 7, [1] * 7])
    r = ad.Tensor(rng.normal(size=(3, 1 if cls else 7, 8)))

    def f():
        return (encoder_layer(x, mask, p, cfg, queries=cls_rows(x) if cls else None) * r).mean()

    assert_grad_matches(f, [x, *(getattr(p, n) for n in layer_param_shapes(cfg))])


# -- GELU against its composed form ----------------------------------------

SQRT2 = float(np.sqrt(2.0))
INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def composed_gelu(x, g):
    """``ad.gelu``'s forward and input gradient as the plain numpy
    expressions the op evaluated before its in-place chains."""
    cdf = 0.5 * (1.0 + erf(x / SQRT2))
    return x * cdf, g * (cdf + x * (INV_SQRT_2PI * np.exp(-0.5 * x * x)))


GELU_SHAPES = {
    "1d": (33,),
    "1d-split-odd": (ad._SPLIT_SIZE + 1,),
    "3d": (3, 5, 7),
    "3d-split-odd-rows": (3, 87, 512),
    "rows-255": (255, 512),
    "rows-256": (256, 512),
    "rows-257": (257, 512),
}


def gelu_input(case, dtype, seed):
    rng = np.random.default_rng(seed)
    if case == "non-contiguous":
        x = rng.normal(size=(512, 301)).astype(dtype).T  # a (301, 512) view, above the split size
    else:
        x = (rng.normal(size=GELU_SHAPES[case]) * 2.0).astype(dtype)
    return x, rng.normal(size=x.shape).astype(dtype)


class TestGelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("case", [*GELU_SHAPES, "non-contiguous"])
    def test_bitwise_equal_to_composed(self, case, dtype):
        x, g = gelu_input(case, dtype, 60)
        want_y, want_gx = composed_gelu(x, g)
        xt = ad.Tensor(x, requires_grad=True)
        y = ad.gelu(xt)
        with ad.no_grad():
            y_eval = ad.gelu(ad.Tensor(x))
        y._backward(g)
        assert_bitwise(y.data, want_y, "forward")
        assert_bitwise(y_eval.data, want_y, "no_grad forward")
        assert_bitwise(xt.grad, want_gx, "x.grad")
        assert (x.size >= ad._SPLIT_SIZE) == (case not in ("1d", "3d", "rows-255"))

    @pytest.mark.parametrize("shape", [(2, 5), (256, 512)], ids=["serial", "split"])
    def test_broadcast_upstream_gradient(self, shape):
        """``mean`` hands back a broadcast (zero-stride) gradient."""
        x, _ = gelu_input("3d", np.float32, 61)
        x = np.resize(x, shape)
        xt = ad.Tensor(x, requires_grad=True)
        ad.gelu(xt).mean().backward()
        g = np.broadcast_to(np.ones((), np.float32), shape) / np.float32(x.size)
        assert_bitwise(xt.grad, composed_gelu(x, g)[1])

    @pytest.mark.parametrize("where", ["caller-half", "helper-half"])
    def test_errstate_reaches_both_halves(self, where):
        """An overflow in ``x * x`` raises under ``np.errstate(over="raise")``
        in whichever half, the helper's (the second) included."""
        x, g = gelu_input("rows-256", np.float32, 62)
        x.reshape(-1)[x.size // 2 + 5 if where == "helper-half" else 5] = 3e19
        xt = ad.Tensor(x, requires_grad=True)
        y = ad.gelu(xt)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            y._backward(g)

    def test_forked_child_computes_split_gelu(self):
        """A child forked after the helper started gets its own helper."""
        if not hasattr(os, "fork"):
            pytest.skip("needs os.fork")
        code = """
import os, numpy as np
from lexfuse import autodiff as ad
x = np.random.default_rng(63).normal(size=(256, 512)).astype(np.float32)
ad.gelu(ad.Tensor(x))  # starts the helper in the parent
pid = os.fork()
if pid == 0:
    xt = ad.Tensor(x, requires_grad=True)
    y = ad.gelu(xt)
    y._backward(np.ones_like(x))
    os._exit(0 if np.array_equal(y.data, ad.gelu(ad.Tensor(x)).data) else 3)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""
        assert run_fresh(code, timeout=60).returncode == 0

    def test_concurrent_callers_share_one_helper(self):
        """Four threads (more than the cores of a small VM) race to start the
        helper and then share it: never more than one helper thread, and
        every result exact."""
        code = """
import sys, threading
import numpy as np
from lexfuse import autodiff as ad
from scipy.special import erf
x = np.random.default_rng(64).normal(size=(256, 512)).astype(np.float32)
want = x * (0.5 * (1.0 + erf(x / float(np.sqrt(2.0)))))
bad, helpers = [], []
start = threading.Barrier(4, timeout=30)

def work():
    start.wait()
    for _ in range(20):
        with ad.no_grad():
            if not np.array_equal(ad.gelu(ad.Tensor(x)).data, want):
                bad.append(1)
        helpers.append(sum(t.name.startswith("lexfuse-gelu") for t in threading.enumerate()))

prev = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
finally:
    sys.setswitchinterval(prev)
assert not bad and max(helpers) == 1, (len(bad), max(helpers))
"""
        assert run_fresh(code, timeout=120).returncode == 0

    def test_no_thread_after_import_or_predict_sized_calls(self):
        code = """
import threading
import lexfuse
assert threading.active_count() == 1, "import"
import numpy as np
from lexfuse import autodiff as ad
for rows in (1, 45):
    xt = ad.Tensor(np.ones((rows, 512), np.float32), requires_grad=True)
    ad.gelu(xt).mean().backward()
    with ad.no_grad():
        ad.gelu(ad.Tensor(np.ones((rows, 512), np.float32)))
    assert threading.active_count() == 1, rows
"""
        assert run_fresh(code, timeout=60).returncode == 0


def join_or_fail(target, timeout=60):
    """Run ``target`` on a daemon thread and return what it returned or
    raised; a thread still running after ``timeout`` (a deadlock) fails
    the test instead of hanging it."""
    box = {}

    def work():
        try:
            box["value"] = target()
        except BaseException as e:  # handed back to the test thread
            box["error"] = e

    t = threading.Thread(target=work, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), f"still running after {timeout} s: deadlock"
    if "error" in box:
        raise box["error"]
    return box["value"]


def where():
    return threading.current_thread().name, ad._in_pair.get()


class TestPair:
    def test_runs_second_on_the_helper_and_returns_both(self):
        caller, (first, second) = join_or_fail(lambda: (where()[0], ad._pair(where, where)))
        assert first == (caller, True)
        assert second[0].startswith("lexfuse-gelu") and second[1]
        assert not ad._in_pair.get()

    def test_pair_inside_a_pair_runs_serially_and_finishes(self):
        """A pair started inside a pair, on either side, runs both parts on
        its own thread instead of queueing behind the helper's own work; a
        split-sized GELU in the helper's half is such a pair.  Run in a
        fresh interpreter that leaves through ``os._exit``, so a deadlocked
        helper fails the test instead of blocking the exit."""
        code = """
import os
import numpy as np
from lexfuse import autodiff as ad
from test_autodiff import composed_gelu, gelu_input, join_or_fail, where

def nested():
    return ad._pair(where, where)

x, _ = gelu_input("rows-256", np.float32, 65)
want, _ = composed_gelu(x, x)

def gelu():
    with ad.no_grad():
        return ad.gelu(ad.Tensor(x)).data.tobytes()

try:
    caller, (first, second) = join_or_fail(lambda: (where()[0], ad._pair(nested, nested)), timeout=30)
    assert first == ((caller, True), (caller, True)), first
    assert second[0] == second[1] and second[0][1] and second[0][0].startswith("lexfuse-gelu"), second
    assert join_or_fail(lambda: ad._pair(gelu, gelu), timeout=30) == (want.tobytes(),) * 2
except BaseException as e:
    print(repr(e), flush=True)
    os._exit(1)
os._exit(0)
"""
        assert run_fresh(code, timeout=90).returncode == 0

    def test_helper_exception_reraises_after_both_sides_finish(self):
        done = []

        def first():
            time.sleep(0.05)
            done.append("first")

        def boom():
            raise KeyError("helper")

        with pytest.raises(KeyError, match="helper"):
            ad._pair(first, boom)
        assert done == ["first"]
        assert not ad._in_pair.get()

    def test_first_exception_waits_for_the_helper(self):
        done = []

        def slow():
            time.sleep(0.05)
            done.append("second")

        def boom():
            raise KeyError("caller")

        with pytest.raises(KeyError, match="caller"):
            ad._pair(boom, slow)
        assert done == ["second"]

    def test_errstate_holds_in_the_helpers_half(self):
        def overflow():
            return np.float32(3e38) * np.float32(10.0)

        with np.errstate(over="raise"):
            assert ad._pair(np.geterr, np.geterr)[1]["over"] == "raise"
            with pytest.raises(FloatingPointError):
                ad._pair(lambda: None, overflow)


def run_fresh(code, timeout):
    """Run ``code`` in a fresh interpreter that imports this lexfuse and
    these test modules."""
    paths = [str(Path(lexfuse.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=timeout)
