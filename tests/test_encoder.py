"""Encoder stack: layer norm, attention, feed-forward, composition, masking."""
import math

import numpy as np
import pytest

from lexfuse import autodiff as ad
from lexfuse import encoder
from lexfuse.autodiff import Tensor
from lexfuse.encoder import (
    EncoderConfig,
    LayerParams,
    encoder_layer,
    feed_forward,
    layer_norm,
    layer_param_shapes,
    multi_head_attention,
    run_encoder,
)


def make_cfg(**kw):
    base = dict(d_model=4, n_heads=1, d_ff=8, n_layers=2, fusion_layer=1, dropout_rate=0.0)
    base.update(kw)
    return EncoderConfig(**base)


def make_params(cfg, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    init = {"weight": lambda shape: scale * rng.normal(size=shape), "zeros": np.zeros, "ones": np.ones}
    return LayerParams(**{
        name: Tensor(init[kind](shape), requires_grad=True)
        for name, (shape, kind) in layer_param_shapes(cfg).items()
    })


class TestEncoderConfig:
    def test_d_ff_defaults_to_4x(self):
        assert EncoderConfig(d_model=32, n_heads=4, n_layers=2).d_ff == 128

    def test_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_model=10, n_heads=4)

    def test_fusion_layer_range(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_model=8, n_heads=2, n_layers=2, fusion_layer=2)
        with pytest.raises(ValueError):
            EncoderConfig(d_model=8, n_heads=2, n_layers=2, fusion_layer=0)

    @pytest.mark.parametrize("key", ["d_model", "n_heads", "n_layers"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_must_be_positive(self, key, value):
        """Checked before divisibility and the fusion-layer range, so the
        error names the size."""
        with pytest.raises(ValueError, match=f"{key} must be >= 1"):
            EncoderConfig(**{"d_model": 8, "n_heads": 2, "n_layers": 2, key: value})

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_model=8, n_heads=2, dropout_rate=1.0)


class TestLayerNorm:
    def ln(self, x, eps=1e-5):
        x = np.asarray(x, dtype=np.float64)
        g = Tensor(np.ones(x.shape[-1]))
        b = Tensor(np.zeros(x.shape[-1]))
        return layer_norm(Tensor(x), g, b, eps).data

    def test_constant_row_maps_to_zero(self):
        np.testing.assert_array_equal(self.ln([5.0, 5.0, 5.0]), [0.0, 0.0, 0.0])

    def test_already_normalized_row(self):
        out = self.ln([1.0, -1.0], eps=1e-16)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-8)

    def test_random_rows_standardized(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 32)) * 3 + 1
        out = self.ln(x)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_gain_and_bias_applied(self):
        x = np.array([[1.0, 2.0, 3.0]])
        g = Tensor(np.array([2.0, 2.0, 2.0]))
        b = Tensor(np.array([1.0, 1.0, 1.0]))
        plain = self.ln(x)
        out = layer_norm(Tensor(x), g, b).data
        np.testing.assert_allclose(out, 2.0 * plain + 1.0, atol=1e-12)


def naive_single_head_attention(x, mask, p, d):
    """Dense python-loop scaled dot-product attention (one head)."""
    T = x.shape[0]
    q = x @ p.wq.data + p.bq.data
    k = x @ p.wk.data + p.bk.data
    v = x @ p.wv.data + p.bv.data
    out = np.zeros_like(x)
    for i in range(T):
        scores = np.full(T, -np.inf)
        for j in range(T):
            if mask[j]:
                scores[j] = float(q[i] @ k[j]) / math.sqrt(d)
        e = np.exp(scores - scores[mask.astype(bool)].max())
        w = e / e.sum()
        for j in range(T):
            if mask[j]:
                out[i] += w[j] * v[j]
    return out @ p.wo.data + p.bo.data


class TestMultiHeadAttention:
    def test_zero_value_projection_gives_zero(self):
        cfg = make_cfg()
        p = make_params(cfg, seed=1)
        p.wv.data[:] = 0.0
        p.bv.data[:] = 0.0
        p.bo.data[:] = 0.0
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        out = multi_head_attention(x, np.ones(3), p, cfg)
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    def test_identical_keys_average_uniformly(self):
        cfg = make_cfg()
        p = make_params(cfg, seed=3)
        p.wk.data[:] = 0.0  # every key identical -> uniform attention
        p.bk.data[:] = 0.0
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4))
        mask = np.array([1, 1, 1, 0, 0])
        out = multi_head_attention(Tensor(x), mask, p, cfg).data
        values = x @ p.wv.data + p.bv.data
        expected_row = values[:3].mean(axis=0) @ p.wo.data + p.bo.data
        for i in range(5):
            np.testing.assert_allclose(out[i], expected_row, atol=1e-12)

    def test_matches_naive_loop_oracle(self):
        cfg = make_cfg()
        p = make_params(cfg, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4))
        mask = np.ones(3)
        got = multi_head_attention(Tensor(x), mask, p, cfg).data
        want = naive_single_head_attention(x, mask, p, 4)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_matches_naive_loop_oracle_with_padding(self):
        cfg = make_cfg()
        p = make_params(cfg, seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 4))
        mask = np.array([1, 1, 0, 0])
        got = multi_head_attention(Tensor(x), mask, p, cfg).data
        want = naive_single_head_attention(x, mask, p, 4)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_all_masked_defined_as_zero(self):
        cfg = make_cfg()
        p = make_params(cfg, seed=9)
        x = Tensor(np.random.default_rng(10).normal(size=(3, 4)))
        out = multi_head_attention(x, np.zeros(3), p, cfg)
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))
        cls = multi_head_attention(x, np.zeros(3), p, cfg, queries=Tensor(x.data[:1]))
        np.testing.assert_array_equal(cls.data, np.zeros((1, 4)))
        # decided per row: an all-masked row beside a real one is still zero
        mask = np.array([[0, 0, 0], [1, 1, 0]])
        both = multi_head_attention(Tensor(np.stack([x.data, x.data])), mask, p, cfg).data
        np.testing.assert_array_equal(both[0], np.zeros((3, 4)))
        want = multi_head_attention(x, mask[1], p, cfg).data
        np.testing.assert_allclose(both[1], want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_cls_query_equals_row_zero_of_full_call(self, n_heads):
        """Keys and values come from all of x; only the queries shrink."""
        cfg = make_cfg(d_model=8, n_heads=n_heads)
        p = make_params(cfg, seed=17)
        rng = np.random.default_rng(18)
        x = rng.normal(size=(4, 6, 8))
        mask = (np.arange(6) < np.array([[6], [3], [1], [5]])).astype(np.int64)
        full = multi_head_attention(Tensor(x), mask, p, cfg).data
        cls = multi_head_attention(Tensor(x), mask, p, cfg, queries=Tensor(x[:, :1])).data
        assert cls.shape == (4, 1, 8)
        np.testing.assert_allclose(cls, full[:, :1], rtol=1e-12, atol=1e-15)

    def test_multi_head_matches_per_head_decomposition(self):
        """Two heads equal running each head's slice separately and
        concatenating before the output projection."""
        cfg = make_cfg(d_model=8, n_heads=2)
        p = make_params(cfg, seed=11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 8))
        mask = np.ones(5)
        got = multi_head_attention(Tensor(x), mask, p, cfg).data

        q = x @ p.wq.data + p.bq.data
        k = x @ p.wk.data + p.bk.data
        v = x @ p.wv.data + p.bv.data
        ctx = np.zeros((5, 8))
        for h in range(2):
            sl = slice(4 * h, 4 * h + 4)
            logits = q[:, sl] @ k[:, sl].T / math.sqrt(4)
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            w = e / e.sum(axis=-1, keepdims=True)
            ctx[:, sl] = w @ v[:, sl]
        want = ctx @ p.wo.data + p.bo.data
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestFeedForward:
    def test_zero_weights(self):
        cfg = make_cfg()
        p = make_params(cfg, seed=0)
        for t in (p.w_ff1, p.b_ff1, p.w_ff2, p.b_ff2):
            t.data[:] = 0.0
        out = feed_forward(Tensor(np.ones((3, 4))), p)
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    def test_constant_output_bias(self):
        cfg = make_cfg()
        p = make_params(cfg, seed=1)
        p.w_ff2.data[:] = 0.0
        p.b_ff2.data[:] = 7.0
        out = feed_forward(Tensor(np.random.default_rng(0).normal(size=(3, 4))), p)
        np.testing.assert_array_equal(out.data, np.full((3, 4), 7.0))

    def test_matches_scalar_loop_oracle(self):
        cfg = make_cfg()
        p = make_params(cfg, seed=2)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4))
        got = feed_forward(Tensor(x), p).data
        want = np.zeros_like(x)
        for r in range(3):
            hidden = np.zeros(cfg.d_ff)
            for j in range(cfg.d_ff):
                z = float(x[r] @ p.w_ff1.data[:, j]) + float(p.b_ff1.data[j])
                hidden[j] = 0.5 * z * (1.0 + math.tanh(math.sqrt(2 / math.pi) * (z + 0.044715 * z**3)))
            for c in range(4):
                want[r, c] = float(hidden @ p.w_ff2.data[:, c]) + float(p.b_ff2.data[c])
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestEncoderLayer:
    def test_degenerate_weights_reduce_to_layer_norm(self):
        """With zero attention output projection and zero FFN, the layer
        is LN(x) (LN is idempotent on normalized rows)."""
        cfg = make_cfg()
        p = make_params(cfg, seed=4)
        p.wo.data[:] = 0.0
        p.bo.data[:] = 0.0
        for t in (p.w_ff1, p.b_ff1, p.w_ff2, p.b_ff2):
            t.data[:] = 0.0
        x = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
        out = encoder_layer(x, np.ones(3), p, cfg).data
        want = layer_norm(x, p.ln1_gain, p.ln1_bias).data
        # idempotence holds up to the eps inside LN (1e-5)
        np.testing.assert_allclose(out, want, atol=1e-4)

    def test_eval_determinism_bitwise(self):
        cfg = make_cfg()
        p = make_params(cfg, seed=6)
        x = Tensor(np.random.default_rng(7).normal(size=(4, 4)))
        a = encoder_layer(x, np.ones(4), p, cfg).data
        b = encoder_layer(x, np.ones(4), p, cfg).data
        assert np.array_equal(a, b)

    def test_stack_composes_single_layers(self):
        """The stack's output is the [CLS] row of the full-sequence chain."""
        cfg = make_cfg()
        layers = [make_params(cfg, seed=s) for s in (8, 9)]
        x = Tensor(np.random.default_rng(10).normal(size=(5, 4)))
        mask = np.array([1, 1, 1, 1, 0])
        stacked = run_encoder(x, mask, layers, cfg).data
        manual = encoder_layer(encoder_layer(x, mask, layers[0], cfg), mask, layers[1], cfg).data
        assert stacked.shape == (4,)
        np.testing.assert_allclose(stacked, manual[0], rtol=1e-12, atol=1e-15)

    def test_query_rows_match_full_layer_rows(self):
        """A layer computed at some query rows equals those rows of the
        full layer, with keys and values from every position.  At a padded
        row (masked, not position 0) the full layer skips the FFN, so that
        row is LN2(G) with G from the query path."""
        cfg = make_cfg(d_model=8, n_heads=2)
        p = make_params(cfg, seed=15)
        rng = np.random.default_rng(16)
        x = rng.normal(size=(3, 5, 8))
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0]])
        full = encoder_layer(Tensor(x), mask, p, cfg).data
        for rows in ([0], [0, 2], [4, 1]):
            q = Tensor(x[:, rows])
            got = encoder_layer(Tensor(x), mask, p, cfg, queries=q).data
            assert got.shape == (3, len(rows), 8)
            g = layer_norm(q + multi_head_attention(Tensor(x), mask, p, cfg, q), p.ln1_gain, p.ln1_bias)
            no_ffn = layer_norm(g, p.ln2_gain, p.ln2_bias).data
            real = mask[:, rows].astype(bool)
            real[:, np.array(rows) == 0] = True
            np.testing.assert_allclose(got[real], full[:, rows][real], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(no_ffn[~real], full[:, rows][~real], rtol=1e-12, atol=1e-15)


ALL_ROWS_FEED_FORWARD = feed_forward


def all_rows_feed_forward(x, params, rows=None):
    """The feed-forward block over every row, padding included: the
    reference the packed rows are checked against."""
    return ALL_ROWS_FEED_FORWARD(x, params)


class TestPackedFeedForward:
    """A full layer over a padded batch runs its FFN on the unmasked rows
    and each position 0 only; every such row is bitwise what the FFN over
    all rows gives."""

    CFG = make_cfg(d_model=8, n_heads=2, d_ff=16)
    MASK = np.array([[1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1], [1, 1, 0, 0, 0, 0]])

    def case(self, dtype, seed=70):
        p = make_params(self.CFG, seed=seed)
        for t in vars(p).values():
            t.data = t.data.astype(dtype)
        x = Tensor(np.random.default_rng(seed + 1).normal(size=(*self.MASK.shape, 8)).astype(dtype), requires_grad=True)
        return p, x

    def run(self, dtype, seed=70):
        """Output, input gradient and parameter gradients of one layer
        whose upstream gradient is zero at padded rows, as in the stack."""
        p, x = self.case(dtype, seed)
        out = encoder_layer(x, self.MASK, p, self.CFG)
        read = self.MASK.astype(bool)
        read[:, 0] = True
        r = np.random.default_rng(seed + 2).normal(size=out.shape).astype(dtype) * read[..., None]
        (out * Tensor(r)).mean().backward()
        return out.data, x.grad, {n: t.grad for n, t in vars(p).items()}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_rows_bitwise_equal_to_all_rows(self, dtype, monkeypatch):
        out, gx, grads = self.run(dtype)
        monkeypatch.setattr(encoder, "feed_forward", all_rows_feed_forward)
        ref_out, ref_gx, ref_grads = self.run(dtype)
        read = self.MASK.astype(bool)
        read[:, 0] = True
        assert out.dtype == dtype
        assert out[read].tobytes() == ref_out[read].tobytes()
        assert gx.tobytes() == ref_gx.tobytes()
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name

    def test_padded_rows_skip_the_ffn(self):
        p, x = self.case(np.float64)
        out = encoder_layer(x, self.MASK, p, self.CFG).data
        g = layer_norm(x + multi_head_attention(x, self.MASK, p, self.CFG), p.ln1_gain, p.ln1_bias)
        no_ffn = layer_norm(g, p.ln2_gain, p.ln2_bias).data
        pad = ~self.MASK.astype(bool)
        pad[:, 0] = False
        assert out[pad].tobytes() == no_ffn[pad].tobytes()

    def test_all_masked_example_keeps_its_cls_state(self, monkeypatch):
        """The second example has no unmasked key; its position 0 is still
        computed in full, because the last layer reads it as a query."""
        p, x = self.case(np.float64)
        out = encoder_layer(x, self.MASK, p, self.CFG).data
        monkeypatch.setattr(encoder, "feed_forward", all_rows_feed_forward)
        ref = encoder_layer(x, self.MASK, p, self.CFG).data
        assert out[1, 0].tobytes() == ref[1, 0].tobytes()
        assert not np.array_equal(out[1, 1], ref[1, 1])

    def test_stack_output_bitwise_equal_to_all_rows(self, monkeypatch):
        layers = [make_params(self.CFG, seed=s) for s in (72, 73)]
        x = Tensor(np.random.default_rng(74).normal(size=(*self.MASK.shape, 8)))
        got = run_encoder(x, self.MASK, layers, self.CFG).data
        monkeypatch.setattr(encoder, "feed_forward", all_rows_feed_forward)
        assert got.tobytes() == run_encoder(x, self.MASK, layers, self.CFG).data.tobytes()

    @pytest.mark.parametrize("shape", [(6,), (3, 6)])
    def test_batch_without_padding_never_gathers(self, shape, monkeypatch):
        def fail(*args):
            raise AssertionError("take_rows called on a batch without padding")

        monkeypatch.setattr(ad, "take_rows", fail)
        cfg = self.CFG
        layers = [make_params(cfg, seed=s) for s in (75, 76)]
        x = Tensor(np.random.default_rng(77).normal(size=(*shape, 8)))
        encoder_layer(x, np.ones(shape), layers[0], cfg)
        run_encoder(x, np.ones(shape), layers, cfg)

    def test_take_rows_gets_the_read_rows(self, monkeypatch):
        seen = []
        take_rows = ad.take_rows
        monkeypatch.setattr(ad, "take_rows", lambda x, rows: seen.append(rows) or take_rows(x, rows))
        p, x = self.case(np.float64)
        encoder_layer(x, self.MASK, p, self.CFG)
        read = self.MASK.astype(bool)
        read[:, 0] = True
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], np.flatnonzero(read))


class TestRunEncoder:
    def test_identity_hook_is_plain_stack(self):
        cfg = make_cfg()
        layers = [make_params(cfg, seed=s) for s in (0, 1)]
        x = Tensor(np.random.default_rng(2).normal(size=(4, 4)))
        plain = run_encoder(x, np.ones(4), layers, cfg).data
        hooked = run_encoder(x, np.ones(4), layers, cfg, fusion_hook=lambda t: t).data
        assert np.array_equal(plain, hooked)

    def test_zero_adding_hook_changes_nothing(self):
        cfg = make_cfg()
        layers = [make_params(cfg, seed=s) for s in (3, 4)]
        x = Tensor(np.random.default_rng(5).normal(size=(4, 4)))
        plain = run_encoder(x, np.ones(4), layers, cfg).data
        hooked = run_encoder(
            x, np.ones(4), layers, cfg, fusion_hook=lambda t: t + Tensor(np.zeros((4, 4)))
        ).data
        np.testing.assert_array_equal(plain, hooked)

    def test_perturbation_propagates_through_attention(self):
        """A constant added at one position after layer l leaves other
        positions unchanged at the hook, then reaches the [CLS] output, and
        a full layer spreads it to every unmasked position."""
        cfg = make_cfg(n_layers=2)
        layers = [make_params(cfg, seed=s) for s in (6, 7)]
        x = Tensor(np.random.default_rng(8).normal(size=(4, 4)))
        mask = np.ones(4)

        captured = {}

        def bump(t):
            delta = np.zeros((4, 4))
            delta[2] = 0.5
            out = t + Tensor(delta)
            captured["before"] = t.data.copy()
            captured["after"] = out.data.copy()
            return out

        base = run_encoder(x, mask, layers, cfg).data
        bumped = run_encoder(x, mask, layers, cfg, fusion_hook=bump).data
        # at the hook: only position 2 differs
        diff_at_hook = np.abs(captured["after"] - captured["before"]).sum(axis=-1)
        assert diff_at_hook[2] > 0
        np.testing.assert_array_equal(diff_at_hook[[0, 1, 3]], 0.0)
        # at the output: the [CLS] state differs
        assert np.abs(bumped - base).sum() > 1e-9
        # through a full layer: every position differs (mixing)
        full_base = encoder_layer(Tensor(captured["before"]), mask, layers[1], cfg).data
        full_bumped = encoder_layer(Tensor(captured["after"]), mask, layers[1], cfg).data
        assert (np.abs(full_bumped - full_base).sum(axis=-1) > 1e-9).all()

    def test_masking_soundness(self):
        """Padded-position content never influences unmasked outputs."""
        cfg = make_cfg(n_layers=2)
        layers = [make_params(cfg, seed=s) for s in (9, 10)]
        rng = np.random.default_rng(11)
        x1 = rng.normal(size=(5, 4))
        x2 = x1.copy()
        x2[3:] = rng.normal(size=(2, 4)) * 100
        mask = np.array([1, 1, 1, 0, 0])
        out1 = run_encoder(Tensor(x1), mask, layers, cfg).data
        out2 = run_encoder(Tensor(x2), mask, layers, cfg).data
        assert np.array_equal(out1, out2)
        seq1, seq2 = Tensor(x1), Tensor(x2)
        for layer in layers:
            seq1 = encoder_layer(seq1, mask, layer, cfg)
            seq2 = encoder_layer(seq2, mask, layer, cfg)
        assert np.array_equal(seq1.data[:3], seq2.data[:3])

    @pytest.mark.parametrize("padded", [False, True], ids=["no-padding", "padding"])
    def test_int64_and_bool_masks_give_the_same_bytes(self, padded):
        cfg = make_cfg(d_model=8, n_heads=2, d_ff=16, n_layers=3)
        layers = [make_params(cfg, seed=s) for s in (15, 16, 17)]
        x = Tensor(np.random.default_rng(18).normal(size=(3, 6, 8)).astype(np.float32))
        mask = np.ones((3, 6), dtype=np.int64)
        if padded:
            mask[0, 4:] = 0
            mask[2, 1:] = 0

        def hook(h):
            return h * 1.5

        got = run_encoder(x, mask.astype(bool), layers, cfg, hook).data
        want = run_encoder(x, mask, layers, cfg, hook).data
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_batched_matches_single(self):
        cfg = make_cfg(n_layers=2)
        layers = [make_params(cfg, seed=s) for s in (12, 13)]
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(3, 5, 4))
        mask = np.ones((3, 5))
        batched = run_encoder(Tensor(xs), mask, layers, cfg).data
        assert batched.shape == (3, 4)
        for b in range(3):
            single = run_encoder(Tensor(xs[b]), mask[b], layers, cfg).data
            np.testing.assert_allclose(batched[b], single, atol=1e-12)
