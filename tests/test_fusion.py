"""Synonym alignment, relevance attention, and residual fusion.

Each step of deep fusion is checked through :func:`deep_fusion` itself,
on one sequence whose only position is fused.  With W1 = I and b1 = 0 the
aligned synonyms are the raw vectors, and with orthonormal synonym
vectors the fused output minus its input is the weight vector r.
"""
import numpy as np
import pytest

from lexfuse.autodiff import Tensor
from lexfuse.fusion import FusionContext, FusionParams, deep_fusion


def make_fusion_params(d_model, d_w, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    return FusionParams(
        w1=Tensor(scale * rng.normal(size=(d_model, d_w)), requires_grad=True),
        b1=Tensor(np.zeros(d_model), requires_grad=True),
        w2=Tensor(scale * rng.normal(size=(d_model, d_model)), requires_grad=True),
    )


def fuse_one(x, synonyms, w1=None, b1=None, w2=None) -> np.ndarray:
    """Fuse hidden state ``x`` (d_model,) with synonym rows (h, d_w).

    W1 defaults to the identity, b1 to zero and W2 to the identity.
    """
    x = np.asarray(x, dtype=np.float64)
    synonyms = np.asarray(synonyms, dtype=np.float64)
    d, d_w = x.shape[0], synonyms.shape[1]
    params = FusionParams(
        w1=Tensor(np.eye(d, d_w) if w1 is None else np.asarray(w1, dtype=np.float64)),
        b1=Tensor(np.zeros(d) if b1 is None else np.asarray(b1, dtype=np.float64)),
        w2=Tensor(np.eye(d) if w2 is None else np.asarray(w2, dtype=np.float64)),
    )
    ctx = FusionContext({0: np.arange(synonyms.shape[0])})
    out = deep_fusion(Tensor(x.reshape(1, 1, d)), np.ones((1, 1)), [ctx], params, Tensor(synonyms))
    return out.data[0, 0]


def fusion_weights(x, w2, h) -> np.ndarray:
    """The weights r over ``h`` orthonormal synonyms e_0..e_{h-1}."""
    x = np.asarray(x, dtype=np.float64)
    return fuse_one(x, np.eye(x.shape[0])[:h], w2=w2)[:h] - x[:h]


class TestAlignSynonyms:
    def test_identity_alignment(self):
        v = np.random.default_rng(0).normal(size=(1, 3))
        np.testing.assert_array_equal(fuse_one(np.zeros(3), v), v[0])

    def test_constant_bias(self):
        out = fuse_one(np.zeros(3), np.ones((2, 5)), w1=np.zeros((3, 5)), b1=np.full(3, 2.5))
        np.testing.assert_array_equal(out, np.full(3, 2.5))

    def test_matches_scalar_loop(self):
        """With one synonym, r = (1) and x + u is fused: u = W1 v + b1."""
        p = make_fusion_params(4, 6, seed=1)
        b1 = np.random.default_rng(2).normal(size=4)
        v = np.random.default_rng(3).normal(size=(1, 6))
        got = fuse_one(np.zeros(4), v, w1=p.w1.data, b1=b1, w2=p.w2.data)
        want = np.zeros(4)
        for r in range(4):
            want[r] = sum(p.w1.data[r, c] * v[0, c] for c in range(6)) + b1[r]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        p = make_fusion_params(4, 6)
        with pytest.raises(ValueError):
            fuse_one(np.zeros(4), np.ones((2, 5)), w1=p.w1.data)


class TestCharToWordAttention:
    def test_single_synonym(self):
        np.testing.assert_array_equal(fusion_weights(np.ones(3), np.eye(3), 1), [1.0])

    def test_identical_synonyms_uniform(self):
        """Synonyms that tie on score share the weight equally: a constant
        W2 makes x W2 score every orthonormal synonym alike."""
        r = fusion_weights(np.array([1.0, 2.0, -1.0, 0.5]), np.full((4, 4), 0.3), 4)
        np.testing.assert_allclose(r, np.full(4, 0.25), atol=1e-15)

    def test_worked_example(self):
        # x = (1,0), identity alignment and bilinear form, synonyms (1,0)
        # and (0,1): scores are (1, 0), so the weights are (e, 1)/(e+1)
        e = np.e
        out = fuse_one([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, [1.0 + e / (e + 1), 1 / (e + 1)], atol=1e-12)
        np.testing.assert_allclose(out - [1.0, 0.0], [0.7311, 0.2689], atol=1e-4)

    def test_simplex(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            h = int(rng.integers(1, d + 1))
            r = fusion_weights(rng.normal(size=d), rng.normal(size=(d, d)), h)
            assert (r > 0).all()
            np.testing.assert_allclose(r.sum(), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        """Adding a constant to every score leaves the weights unchanged, so
        adding c*y to every synonym adds exactly c*y to the fused output."""
        rng = np.random.default_rng(5)
        x, v, w2 = rng.normal(size=3), rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        base = fuse_one(x, v, w2=w2)
        # with y chosen so x W2 y == 1, adding c*y to every synonym row
        # shifts every score by the same constant c
        q = x @ w2
        y = q / float(q @ q)
        shifted = fuse_one(x, v + 3.7 * y, w2=w2)
        np.testing.assert_allclose(shifted, base + 3.7 * y, atol=1e-9)


class TestFusePosition:
    def test_single_synonym_residual(self):
        out = fuse_one([1.0, 2.0], [[0.5, -0.5]])
        np.testing.assert_array_equal(out, [1.5, 1.5])

    def test_zero_synonyms_noop(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(fuse_one(x, np.zeros((3, 2))), x)

    def test_convex_mix(self):
        out = fuse_one(np.zeros(2), [[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(out, [1.0, 2.0], atol=1e-15)


class TestDeepFusion:
    def setup_case(self, seed=0, B=2, T=5, d=4, d_w=3, n_syn=6):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(B, T, d)), requires_grad=True)
        syn = Tensor(rng.normal(size=(n_syn, d_w)), requires_grad=True)
        params = make_fusion_params(d, d_w, seed=seed + 1)
        params.b1.data = rng.normal(size=d)
        kw_mask = np.zeros((B, T), dtype=np.int64)
        kw_mask[0, 1] = kw_mask[0, 3] = kw_mask[1, 2] = 1
        ctxs = [
            FusionContext({1: np.array([0, 2]), 3: np.array([4])}),
            FusionContext({2: np.array([1, 3, 5])}),
        ]
        return x, syn, params, kw_mask, ctxs

    def test_empty_context_identity_bitwise(self):
        x, syn, params, kw_mask, _ = self.setup_case()
        out = deep_fusion(x, kw_mask, [FusionContext({}), FusionContext({})], params, syn)
        assert out.data is x.data or np.array_equal(out.data, x.data)

    def test_unfused_positions_bitwise_unchanged(self):
        x, syn, params, kw_mask, _ = self.setup_case(seed=3)
        ctxs = [FusionContext({1: np.array([0, 2])}), FusionContext({})]
        out = deep_fusion(x, kw_mask, ctxs, params, syn).data
        changed = np.abs(out - x.data).sum(axis=-1) > 0
        assert changed[0, 1]
        flat_mask = np.ones((2, 5), dtype=bool)
        flat_mask[0, 1] = False
        assert np.array_equal(out[flat_mask], x.data[flat_mask])

    def test_matches_positionwise_composition_oracle(self):
        """Batched fusion equals an independent numpy loop applying
        align -> softmax -> weighted residual at each position."""
        x, syn, params, kw_mask, ctxs = self.setup_case(seed=7)
        got = deep_fusion(x, kw_mask, ctxs, params, syn).data

        want = x.data.copy()
        for b, ctx in enumerate(ctxs):
            for pos, ids in ctx.entries.items():
                v = syn.data[np.asarray(ids)]
                u = v @ params.w1.data.T + params.b1.data
                scores = (x.data[b, pos] @ params.w2.data) @ u.T
                e = np.exp(scores - scores.max())
                r = e / e.sum()
                want[b, pos] = x.data[b, pos] + r @ u
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_single_sequence_input(self):
        """A sequence fuses alone, in a batch of one, as it does in a batch."""
        x, syn, params, kw_mask, ctxs = self.setup_case(seed=9)
        single = deep_fusion(Tensor(x.data[:1]), kw_mask[:1], ctxs[:1], params, syn).data[0]
        batched = deep_fusion(x, kw_mask, ctxs, params, syn).data[0]
        np.testing.assert_allclose(single, batched, atol=1e-15)

    def test_rejects_non_keyword_positions(self):
        x, syn, params, kw_mask, _ = self.setup_case(seed=11)
        bad = [FusionContext({0: np.array([0])}), FusionContext({})]
        with pytest.raises(ValueError):
            deep_fusion(x, kw_mask, bad, params, syn)

    def test_zero_aligned_vectors_exact_residual_identity(self):
        """With W1 = 0 and b1 = 0 every aligned synonym is zero, so the
        fused output equals the input exactly."""
        x, syn, params, kw_mask, ctxs = self.setup_case(seed=13)
        params.w1.data[:] = 0.0
        params.b1.data[:] = 0.0
        out = deep_fusion(x, kw_mask, ctxs, params, syn).data
        assert np.array_equal(out, x.data)

    def test_gradients_reach_all_fusion_inputs(self):
        x, syn, params, kw_mask, ctxs = self.setup_case(seed=15)
        out = deep_fusion(x, kw_mask, ctxs, params, syn)
        (out * out).mean().backward()
        assert syn.grad is not None and np.abs(syn.grad).sum() > 0
        assert params.w1.grad is not None and np.abs(params.w1.grad).sum() > 0
        assert params.w2.grad is not None and np.abs(params.w2.grad).sum() > 0
        assert x.grad is not None
