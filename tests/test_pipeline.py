"""Model assembly, training mechanics, optimizer, checkpoints, gradients."""
import json
import pickle
import struct
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import truncnorm

from lexfuse import autodiff as ad
from lexfuse import encoder as encoder_module
from lexfuse import harness, pipeline
from lexfuse import params as params_module
from lexfuse.autodiff import Tensor
from lexfuse.checkpoint import CheckpointError
from lexfuse.classifier import focal_loss_from_logits, head_logits
from lexfuse.data import SynthSpec, generate_synthetic, generate_synthetic_vectors
from lexfuse.embedding import ModelInput, batch_embed, build_vocab, compose_input
from lexfuse.encoder import Dropout, EncoderConfig, encoder_layer
from lexfuse.fusion import FusionContext, deep_fusion
from lexfuse.gradcheck import _gradcheck_fixture, gradient_check
from lexfuse.lexicon import build_trie, extract_keywords
from lexfuse.params import ModelParams, TrainConfig, _truncated_normal, param_shapes
from lexfuse.pipeline import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Batch,
    TrainedModel,
    TrainingDivergedError,
    adam_step,
    backward,
    collate,
    forward,
    forward_logits,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    save_history,
    train,
)
from lexfuse.preprocessing import preprocess
from test_autodiff import erf_gelu, run_fresh

TINY = EncoderConfig(d_model=8, n_heads=2, n_layers=2, fusion_layer=1, dropout_rate=0.0)


def tiny_setup(enable_synonyms=True, seed=0):
    cfg = TrainConfig(
        gamma=2.0, dropout_rate=0.0, h_max=2, max_len=6, seed=seed, enable_synonyms=enable_synonyms,
    )
    inputs, contexts = _gradcheck_fixture()
    params = ModelParams.initialize(
        TINY, vocab_size=8, max_len=6, d_w=6, n_syn=4, seed=seed, dtype=np.float64, init_std=0.3
    )
    return cfg, inputs, contexts, params


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(TypeError):  # the loss is set by gamma alone
            TrainConfig(loss_kind="focal")
        with pytest.raises(ValueError):
            TrainConfig(gamma=-0.1)
        for key, value in (
            ("batch_size", 2.5), ("epochs", 1.5), ("h_max", 2.5), ("max_len", 10.5),
            ("min_freq", -3), ("min_freq", 0), ("min_freq", 1.0), ("epochs", True),
            ("learning_rate", float("nan")), ("learning_rate", float("inf")),
            ("gamma", float("nan")), ("gamma", float("inf")),
            ("enable_synonyms", "false"), ("enable_keywords", 0), ("enable_synonyms", None),
            ("learning_rate", True), ("gamma", True), ("dropout_rate", False), ("learning_rate", "0.1"),
        ):
            with pytest.raises(ValueError, match=key):
                TrainConfig(**{key: value})
        for rate in (1.0, 1.5, -0.2, float("nan")):
            with pytest.raises(ValueError, match="dropout_rate"):
                TrainConfig(dropout_rate=rate)
        assert TrainConfig(dropout_rate=0.0).dropout_rate == 0.0
        for seed in (-1, 1.5, "3", True, None):
            with pytest.raises(ValueError, match="seed"):
                TrainConfig(seed=seed)
        assert TrainConfig(seed=np.int64(7)).seed == 7


class TestForward:
    def test_eval_deterministic_bitwise(self):
        cfg, inputs, contexts, params = tiny_setup()
        a = forward(inputs, contexts, params, TINY, cfg, "eval")
        b = forward(inputs, contexts, params, TINY, cfg, "eval")
        assert np.array_equal(a, b)

    def test_probabilities_normalized(self):
        cfg, inputs, contexts, params = tiny_setup()
        probs = forward(inputs, contexts, params, TINY, cfg, "eval")
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_batch_equals_concatenated_singles(self):
        cfg, inputs, contexts, params = tiny_setup()
        batched = forward(inputs, contexts, params, TINY, cfg, "eval")
        singles = np.vstack(
            [forward([i], [c], params, TINY, cfg, "eval") for i, c in zip(inputs, contexts)]
        )
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_synonyms_disabled_equals_identity_hook_encoder(self):
        """With fusion off, the forward pass must be bitwise the plain
        encoder + head applied to the same batch."""
        cfg, inputs, contexts, params = tiny_setup(enable_synonyms=False)
        got = forward(inputs, contexts, params, TINY, cfg, "eval")

        batch = collate(inputs, contexts)
        with ad.no_grad():
            e = batch_embed(
                batch.token_ids, batch.segment_ids,
                params.tok_emb, params.seg_emb, params.pos_emb,
            )
            x = e
            for layer in params.layers:
                x = encoder_layer(x, batch.attention_mask, layer, TINY)
            cls = x.data[:, 0, :]
        logits = cls @ params.head.w_class.data.T + params.head.b_class.data
        z = logits - logits.max(axis=-1, keepdims=True)
        want = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        assert np.array_equal(got, want)

    def test_blank_row_does_not_depend_on_its_batch(self):
        """A zero-length row has no real key, so its attention output is
        zero whatever the other rows are: its logits alone and beside a real
        row agree, with no warning, and the mixed batch backpropagates."""
        cfg, inputs, contexts, params = tiny_setup()
        blank = ModelInput(*(np.zeros(0, dtype=np.int64),) * 3)
        mixed = collate([blank, inputs[0]], [FusionContext({}), contexts[0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ad.no_grad():
                alone = forward_logits(collate([blank], [FusionContext({})]), params, TINY).data
                got = forward_logits(mixed, params, TINY).data
            backward(mixed, params, TINY, cfg)
        np.testing.assert_allclose(got[0], alone[0], rtol=1e-12)  # GEMM rounding only

    def test_mode_other_than_eval_rejected(self):
        cfg, inputs, contexts, params = tiny_setup()
        with pytest.raises(ValueError, match="mode"):
            forward(inputs, contexts, params, TINY, cfg, "train")

    def test_empty_batch_rejected(self):
        cfg, inputs, contexts, params = tiny_setup()
        with pytest.raises(ValueError):
            collate([], [])


class TestBackward:
    def test_disabled_fusion_has_exactly_zero_grads(self):
        cfg, inputs, contexts, params = tiny_setup(enable_synonyms=False)
        batch = collate(inputs, contexts)
        _, grads = backward(batch, params, TINY, cfg)
        assert np.array_equal(grads["fusion.w1"], np.zeros_like(grads["fusion.w1"]))
        assert np.array_equal(grads["fusion.w2"], np.zeros_like(grads["fusion.w2"]))
        assert np.array_equal(grads["syn_emb"], np.zeros_like(grads["syn_emb"]))
        # everything on the live path is nonzero
        assert np.abs(grads["tok_emb"]).sum() > 0
        assert np.abs(grads["head.w_class"]).sum() > 0

    def test_scalar_toy_model_matches_hand_derivative(self):
        """Single weight w, input x, label 1: logits (0, w*x) under focal
        loss.  Hand derivative of -(1-p)^g log p with p = sigmoid(w*x):
        dL/dw = [g (1-p)^(g-1) ln p - (1-p)^g / p] * x * p * (1-p)."""
        w = Tensor(np.array([[0.7]]), requires_grad=True)
        x, gamma = 1.3, 2.0

        # logits = (0, w*x) as a (1, 2) row
        logits = ad.scatter_add2(
            Tensor(np.zeros((1, 2))), np.array([0]), np.array([1]), (w * x).reshape(1)
        )
        loss = focal_loss_from_logits(logits, np.array([1]), gamma)
        loss.backward()

        p = 1.0 / (1.0 + np.exp(-0.7 * x))
        hand = (gamma * (1 - p) ** (gamma - 1) * np.log(p) - (1 - p) ** gamma / p) * x * p * (1 - p)
        np.testing.assert_allclose(w.grad[0, 0], hand, rtol=1e-10)

    def test_nan_parameter_detected(self):
        cfg, inputs, contexts, params = tiny_setup()
        params.tok_emb.data[0, 0] = np.nan
        batch = collate(inputs, contexts)
        with pytest.raises(TrainingDivergedError):
            backward(batch, params, TINY, cfg)


class TestAdam:
    def test_zero_grad_leaves_params(self):
        _, _, _, params = tiny_setup()
        before = {n: t.data.copy() for n, t in params.named_tensors()}
        grads = {n: np.zeros_like(t.data) for n, t in params.named_tensors()}
        adam_step(params, grads, AdamState.for_params(params), lr=1e-3)
        for n, t in params.named_tensors():
            assert np.array_equal(before[n], t.data)

    def test_first_step_magnitude(self):
        """With unit gradient, the bias-corrected first update has
        magnitude lr / (1 + eps)."""
        _, _, _, params = tiny_setup()
        before = params.tok_emb.data.copy()
        grads = {n: np.zeros_like(t.data) for n, t in params.named_tensors()}
        grads["tok_emb"] = np.ones_like(before)
        adam_step(params, grads, AdamState.for_params(params), lr=1e-3)
        update = before - params.tok_emb.data
        np.testing.assert_allclose(update, 1e-3 / (1 + 1e-8), rtol=1e-12)

    def test_two_steps_match_reference_trace(self):
        """Two updates agree with an independently coded Adam loop."""
        _, _, _, params = tiny_setup()
        rng = np.random.default_rng(0)
        g1 = {n: rng.normal(size=t.data.shape) for n, t in params.named_tensors()}
        g2 = {n: rng.normal(size=t.data.shape) for n, t in params.named_tensors()}
        theta0 = {n: t.data.copy() for n, t in params.named_tensors()}

        state = AdamState.for_params(params)
        adam_step(params, g1, state, lr=0.01)
        adam_step(params, g2, state, lr=0.01)

        b1, b2, eps = 0.9, 0.999, 1e-8
        for n, t in params.named_tensors():
            m = v = 0.0
            theta = theta0[n]
            for step, g in enumerate((g1[n], g2[n]), start=1):
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                mh = m / (1 - b1**step)
                vh = v / (1 - b2**step)
                theta = theta - 0.01 * mh / (np.sqrt(vh) + eps)
            np.testing.assert_allclose(t.data, theta, atol=1e-15)

    def test_five_steps_bitwise_equal_composed_update(self):
        """The in-place moments give the same bits as the composed update
        in float32, and a parameter array a step replaces is not written
        through."""
        _, _, _, params = tiny_setup()
        for _, t in params.named_tensors():
            t.data = t.data.astype(np.float32)
        theta = {n: t.data.copy() for n, t in params.named_tensors()}
        m = {n: np.zeros_like(a) for n, a in theta.items()}
        v = {n: np.zeros_like(a) for n, a in theta.items()}
        state = AdamState.for_params(params)
        b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, 1e-2
        rng = np.random.default_rng(4)
        for step in range(1, 6):
            grads = {n: rng.normal(size=a.shape).astype(np.float32) for n, a in theta.items()}
            held = {n: (t.data, t.data.copy()) for n, t in params.named_tensors()}
            adam_step(params, grads, state, lr)
            bc1, bc2 = 1.0 - b1**step, 1.0 - b2**step
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * (g * g)
                m_hat, v_hat = m[n] / bc1, v[n] / bc2
                theta[n] = theta[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert np.array_equal(*held[n]), n
        for n, t in params.named_tensors():
            assert t.data.dtype == np.float32
            assert np.array_equal(t.data, theta[n]), n
            assert np.array_equal(state.m[n], m[n]) and np.array_equal(state.v[n], v[n]), n


class TestTrain:
    def datasets(self, seed=0):
        ds, lex = generate_synthetic(SynthSpec(n_pos=6, n_neg=12, seed=seed))
        table = generate_synthetic_vectors(lex, dim=6, seed=seed)
        return ds, build_trie(lex), table

    def enc(self):
        return EncoderConfig(d_model=16, n_heads=2, d_ff=32, n_layers=2, fusion_layer=1)

    def test_same_seed_identical_history(self, tmp_path):
        ds, trie, table = self.datasets()
        cfg = TrainConfig(epochs=2, batch_size=4, max_len=16, seed=7, h_max=2)
        h1 = train(cfg, self.enc(), ds, ds, trie=trie, table=table).history
        h2 = train(cfg, self.enc(), ds, ds, trie=trie, table=table).history
        assert h1 == h2
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_history(h1, p1)
        save_history(h2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self):
        ds, trie, table = self.datasets()
        cfg7 = TrainConfig(epochs=1, batch_size=4, max_len=16, seed=7)
        cfg8 = TrainConfig(epochs=1, batch_size=4, max_len=16, seed=8)
        h7 = train(cfg7, self.enc(), ds, ds, trie=trie, table=table).history
        h8 = train(cfg8, self.enc(), ds, ds, trie=trie, table=table).history
        assert h7 != h8

    def test_history_structure(self):
        ds, trie, table = self.datasets()
        cfg = TrainConfig(epochs=3, batch_size=4, max_len=16, seed=0)
        res = train(cfg, self.enc(), ds, ds, trie=trie, table=table)
        assert [h["epoch"] for h in res.history] == [1, 2, 3]
        for h in res.history:
            assert set(h) == {"epoch", "train_loss", "dev_precision", "dev_recall", "dev_f1"}

    def test_empty_train_set_rejected(self):
        from lexfuse.data import Dataset

        with pytest.raises(ValueError):
            train(TrainConfig(epochs=1), self.enc(), Dataset([]), None)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_trained_model_predicts(self):
        ds, trie, table = self.datasets()
        cfg = TrainConfig(epochs=1, batch_size=4, max_len=16, seed=0)
        model = train(cfg, self.enc(), ds, None, trie=trie, table=table).model
        out = model.predict(ds.examples[0][0])
        assert out["label"] in (0, 1)
        np.testing.assert_allclose(sum(out["probabilities"]), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_packed_feed_forward_trains_like_all_rows(self, dropout, monkeypatch):
        """Seeded ``train()`` weights and losses are byte-equal to those of a
        ``train()`` whose feed-forward block runs on every row, padding
        included."""
        ds, lex = generate_synthetic(SynthSpec(n_pos=6, n_neg=12, min_fillers=1, max_fillers=12, seed=3))
        trie, table = build_trie(lex), generate_synthetic_vectors(lex, dim=6, seed=3)
        cfg = TrainConfig(epochs=2, batch_size=4, max_len=32, seed=7, h_max=2, dropout_rate=dropout)
        packed_calls = []
        take_rows = ad.take_rows
        monkeypatch.setattr(ad, "take_rows", lambda x, rows: packed_calls.append(len(rows)) or take_rows(x, rows))
        packed = train(cfg, self.enc(), ds, None, trie=trie, table=table)
        assert packed_calls  # some batch was padded
        all_rows = encoder_module.feed_forward
        monkeypatch.setattr(encoder_module, "feed_forward", lambda x, params, rows=None: all_rows(x, params))
        reference = train(cfg, self.enc(), ds, None, trie=trie, table=table)
        assert packed.history == reference.history
        for (name, a), (_, b) in zip(packed.model.params.named_tensors(), reference.model.params.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_keywords_disabled_uses_single_segment(self):
        ds, trie, table = self.datasets()
        cfg = TrainConfig(epochs=1, batch_size=4, max_len=16, seed=0, enable_keywords=False)
        model = train(cfg, self.enc(), ds, None, trie=trie, table=table).model
        inp, ctx, kws = model.prepare(ds.examples[0][0])
        assert inp.segment_ids.sum() == 0
        assert (inp.token_ids == 3).sum() == 1  # single [SEP]
        assert not ctx.entries


class TestGradientCheck:
    def test_passes_both_losses(self):
        """Focal loss at the default gamma, and cross entropy (gamma 0)."""
        for gamma in (2.0, 0.0):
            report = gradient_check(gamma=gamma)
            assert report.passed, report.format()
            assert report.format().startswith(f"gradient check (gamma={gamma:g}, ")

    def test_fault_injection_flagged(self):
        report = gradient_check(inject_fault="fusion.w2")
        assert not report.passed
        assert report.failures == ["fusion.w2"]
        assert "FAIL" in report.format()

    def test_fixture_batch_is_padded(self):
        """So the check covers the feed-forward block's packed rows."""
        batch = collate(*_gradcheck_fixture())
        assert (batch.attention_mask == 0).sum() >= 1

    def test_unknown_fault_tensor_rejected(self):
        with pytest.raises(ValueError):
            gradient_check(inject_fault="nonexistent")


class TestCheckpoint:
    def trained(self, tmp_path, vectors=True, **cfg_kw):
        ds, lex = generate_synthetic(SynthSpec(n_pos=4, n_neg=8, seed=1))
        table = generate_synthetic_vectors(lex, dim=5, seed=1) if vectors else None
        trie = build_trie(lex)
        enc = EncoderConfig(d_model=8, n_heads=2, d_ff=16, n_layers=2, fusion_layer=1)
        cfg = TrainConfig(epochs=1, batch_size=4, max_len=12, seed=0, h_max=2, **cfg_kw)
        model = train(cfg, enc, ds, None, trie=trie, table=table).model
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        return model, path

    def test_roundtrip_bitwise(self, tmp_path):
        model, path = self.trained(tmp_path)
        loaded = load_checkpoint(path)
        for (n1, t1), (n2, t2) in zip(model.params.named_tensors(), loaded.params.named_tensors()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data), n1
        assert loaded.vocab.id_to_word == model.vocab.id_to_word
        assert loaded.keyword_syn_ids == model.keyword_syn_ids
        assert loaded.enc_cfg == model.enc_cfg
        assert loaded.train_cfg == model.train_cfg

    @pytest.mark.parametrize(
        "cfg_kw, vectors", [({"enable_synonyms": False}, True), ({}, False)], ids=["synonyms-off", "no-table"]
    )
    def test_model_without_synonyms_roundtrips(self, tmp_path, cfg_kw, vectors):
        """A model trained without synonyms has a ``(0, d_w)`` ``syn_emb``;
        it loads bitwise and predicts identically."""
        model, path = self.trained(tmp_path, vectors=vectors, **cfg_kw)
        assert model.params.syn_emb.data.shape == (0, model.d_w)
        loaded = load_checkpoint(path)
        for (n1, t1), (n2, t2) in zip(model.params.named_tensors(), loaded.params.named_tensors()):
            assert n1 == n2 and t1.data.dtype == t2.data.dtype, n1
            assert t1.data.shape == t2.data.shape and np.array_equal(t1.data, t2.data), n1
        assert loaded.syn_vocab == [] and loaded.keyword_syn_ids == {}
        text = "bamevi gave me awful lirido pains"
        assert model.predict(text) == loaded.predict(text)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("missing", "missing tensor 'fusion.w2'"),
            ("extra", "unexpected tensors ['extra.w']"),
            ("shape", "tensor 'fusion.w1' has shape (8, 6), config implies (8, 5)"),
            pytest.param(2**31, "checkpoint truncated while reading data of layer0.wq: shape (2147483648, 8) "
                                "needs 68719476736 bytes, {left} left in the file", id="dim-2**31"),
            pytest.param(2**32 - 1, "checkpoint truncated while reading data of layer0.wq: shape (4294967295, 8) "
                                    "needs 137438953440 bytes, {left} left in the file", id="dim-2**32-1"),
        ],
    )
    def test_tensor_faults_name_path_and_tensor(self, tmp_path, fault, message):
        """A checkpoint that lacks a tensor, holds one the config does not
        name, or holds one of a shape the config does not imply is refused.
        So is a stored dimension that claims more bytes than the file holds,
        before any of them is read."""
        model, path = self.trained(tmp_path)
        tensors = model.params._tensors
        if fault == "missing":
            del tensors["fusion.w2"]
        elif fault == "extra":
            tensors["extra.w"] = Tensor(np.zeros((2, 2), dtype=np.float32))
        elif fault == "shape":
            tensors["fusion.w1"] = Tensor(np.zeros((8, 6), dtype=np.float32))
        save_checkpoint(model, path)
        if isinstance(fault, int):  # the first dimension of the first tensor, rewritten in the file
            blob = bytearray(path.read_bytes())
            (json_len,) = struct.unpack_from("<I", blob, 12)
            name_at = 16 + json_len + 4 + 2
            assert blob[name_at : name_at + 9] == b"layer0.wq"
            struct.pack_into("<I", blob, name_at + 9 + 1, fault)
            path.write_bytes(bytes(blob))
            message = message.format(left=len(blob) - (name_at + 9 + 1 + 2 * 4 + 1))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        """Loading wraps the stored arrays through one
        ``ModelParams.initialize`` call and draws no random weight; a
        float64 checkpoint stays float64."""
        model, path = self.trained(tmp_path)
        for _, t in model.params.named_tensors():
            t.data = t.data.astype(np.float64)
        save_checkpoint(model, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random tensor")

        calls = []
        initialize = ModelParams.initialize.__func__

        def counted(cls, *args, **kwargs):
            calls.append(cls)
            return initialize(cls, *args, **kwargs)

        monkeypatch.setattr(params_module, "_truncated_normal", no_draw)
        monkeypatch.setattr(ModelParams, "initialize", classmethod(counted))
        loaded = load_checkpoint(path)
        assert len(calls) == 1
        for (n1, t1), (n2, t2) in zip(model.params.named_tensors(), loaded.params.named_tensors()):
            assert n1 == n2 and t2.data.dtype == np.float64, n1
            assert np.array_equal(t1.data, t2.data) and t2.requires_grad, n1

    def test_read_only_parameters_are_never_written(self, tmp_path):
        """Training steps and every evaluation entry point run on a model
        whose parameter arrays are read-only: no library code writes a
        parameter in place."""
        model, _ = self.trained(tmp_path)
        ds, _ = generate_synthetic(SynthSpec(n_pos=4, n_neg=8, seed=2))
        for _, t in model.params.named_tensors():
            t.data.setflags(write=False)
        inputs, contexts, _ = pipeline.prepare_dataset(model, ds)
        assert predict_labels(model, inputs, contexts).shape == (len(ds),)
        model.predict("bamevi gave me awful lirido pains")
        harness.evaluate(model, ds)
        batch = collate(inputs, contexts)
        dropout = Dropout(np.random.default_rng(0), 0.1)
        _, grads = backward(batch, model.params, model.enc_cfg, model.train_cfg, dropout)
        held = {n: t.data for n, t in model.params.named_tensors()}
        adam_step(model.params, grads, AdamState.for_params(model.params), lr=1e-3)
        for n, t in model.params.named_tensors():
            assert not held[n].flags.writeable and t.data is not held[n], n

    def test_roundtrip_predictions_identical(self, tmp_path):
        model, path = self.trained(tmp_path)
        loaded = load_checkpoint(path)
        text = "bamevi gave me awful lirido pains"
        assert model.predict(text) == loaded.predict(text)

    def test_truncated_file_detected(self, tmp_path):
        _, path = self.trained(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("part", ["header", "tensor name", "data of"])
    def test_truncation_names_the_path_and_the_part(self, tmp_path, part):
        """A file cut inside the JSON header, inside the first tensor's
        name, or inside the last tensor's data names the file and the part
        it was reading."""
        _, path = self.trained(tmp_path)
        blob = path.read_bytes()
        (json_len,) = struct.unpack_from("<I", blob, 12)
        first_name = 16 + json_len + 4 + 2  # after the tensor count and the name length
        cut = {"header": 16 + json_len // 2, "tensor name": first_name + 1, "data of": len(blob) - 3}[part]
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: checkpoint truncated while reading {part}")

    @pytest.mark.parametrize("part", ["JSON header", "tensor name"])
    def test_non_utf8_bytes_name_the_path_and_the_part(self, tmp_path, part):
        _, path = self.trained(tmp_path)
        blob = bytearray(path.read_bytes())
        (json_len,) = struct.unpack_from("<I", blob, 12)
        blob[{"JSON header": 16, "tensor name": 16 + json_len + 4 + 2}[part]] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: corrupt {part}")

    def test_bad_magic_detected(self, tmp_path):
        _, path = self.trained(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"NOTLEXFU" + blob[8:])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_trailing_garbage_detected(self, tmp_path):
        _, path = self.trained(tmp_path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_format1_training_fields_of_older_files_load(self, tmp_path):
        """Older format-1 files store ``train.fusion_layer``,
        ``train.keyword_scope: "both"`` and ``train.loss_kind``; they load
        bitwise.  ``loss_kind: "focal"`` keeps the stored gamma and
        ``"cross_entropy"`` loads as gamma 0."""
        model, path = self.trained(tmp_path)

        def older(meta):
            meta["train"].update(fusion_layer=1, keyword_scope="both", loss_kind="focal")

        rewrite_header(path, older)
        loaded = load_checkpoint(path)
        assert loaded.train_cfg == model.train_cfg
        assert loaded.enc_cfg == model.enc_cfg
        for (n1, t1), (n2, t2) in zip(model.params.named_tensors(), loaded.params.named_tensors()):
            assert n1 == n2 and np.array_equal(t1.data, t2.data), n1
        text = "bamevi gave me awful lirido pains"
        assert model.predict(text) == loaded.predict(text)

        assert model.train_cfg.gamma == 2.0
        rewrite_header(path, lambda m: m["train"].update(loss_kind="cross_entropy"))
        loaded = load_checkpoint(path)
        assert loaded.train_cfg == replace(model.train_cfg, gamma=0.0)
        assert model.predict(text) == loaded.predict(text)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda m: m["train"].update(keyword_scope="s2"), "train.keyword_scope"),
            (lambda m: m["train"].update(loss_kind="hinge"), "train.loss_kind"),
            (lambda m: m.pop("d_w"), "d_w"),
            (lambda m: m["train"].update(warmup=3), "warmup"),
            (lambda m: m.update(train=[1, 2]), "'train'"),
            (lambda m: m["train"].update(gamma=-1), "gamma"),
            (lambda m: m["encoder"].update(n_layers=1), "fusion_layer"),
            # Both vocabularies keep the tensor shapes; each would send a
            # training word to [UNK] if it loaded.
            (lambda m: m.update(vocab=m["vocab"][4:] + ["zza", "zzb", "zzc", "zzd"]), "'vocab'"),
            (lambda m: m["vocab"].__setitem__(5, m["vocab"][4]), "'vocab'"),
        ],
        ids=["keyword-scope-s2", "loss-kind-hinge", "missing-d_w", "unknown-train-key", "train-not-mapping",
             "negative-gamma", "invalid-encoder", "vocab-without-reserved-prefix", "vocab-repeats-a-word"],
    )
    def test_header_faults_name_path_and_field(self, tmp_path, edit, field):
        _, path = self.trained(tmp_path)
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and field in str(err.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("vocab", 5),
            ("vocab", ["[PAD]", 7]),
            ("d_w", "x"),
            ("d_w", True),
            ("d_w", 0),
            ("lexicon", 3),
            ("syn_vocab", 7),
            ("keyword_syn_ids", [1]),
            ("keyword_syn_ids", {"bamevi": 1}),
            ("keyword_syn_ids", {"bamevi": [10**6]}),
        ],
        ids=["vocab-int", "vocab-non-string", "d_w-string", "d_w-bool", "d_w-zero",
             "lexicon-int", "syn_vocab-int", "keyword_syn_ids-list", "keyword_syn_ids-int-row",
             "keyword_syn_ids-out-of-range"],
    )
    def test_header_field_types_name_path_and_field(self, tmp_path, field, value):
        _, path = self.trained(tmp_path)
        rewrite_header(path, lambda m: m.update({field: value}))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and repr(field) in str(err.value)


def rewrite_header(path, edit) -> None:
    """Apply ``edit`` to the JSON header of a saved checkpoint, in place."""
    blob = path.read_bytes()
    (n,) = struct.unpack("<I", blob[12:16])
    meta = json.loads(blob[16 : 16 + n])
    edit(meta)
    header = json.dumps(meta).encode("utf-8")
    path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header + blob[16 + n :])


class TestOverfit:
    def test_small_separable_set_reaches_f1_one(self):
        """A quick version of the separable overfit run (the desk-scale
        version lives in the acceptance suite)."""
        ds, lex = generate_synthetic(SynthSpec(n_pos=12, n_neg=12, keyword_signal=1.0, seed=5))
        trie = build_trie(lex)
        enc = EncoderConfig(d_model=32, n_heads=2, d_ff=64, n_layers=2, fusion_layer=1)
        cfg = TrainConfig(learning_rate=2e-3, epochs=30, batch_size=8, max_len=20, seed=0)
        res = train(cfg, enc, ds, ds, trie=trie)
        best = max(h["dev_f1"] for h in res.history)
        assert best == 1.0


def reference_init(enc_cfg, vocab_size, max_len, d_w, n_syn, seed=0, dtype=np.float32, init_std=0.02):
    """The hand-written truncated-normal init that the parameter spec
    replaced, drawing in its order: every layer (wq, wk, wv, wo, w_ff1,
    w_ff2), then tok/seg/pos embeddings, fusion w1/w2, head, synonyms."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d, f = enc_cfg.d_model, enc_cfg.d_ff

    def w(*shape):
        return truncnorm.rvs(-2.0, 2.0, scale=init_std, size=shape, random_state=rng).astype(dtype)

    def z(*shape):
        return np.zeros(shape, dtype=dtype)

    def o(*shape):
        return np.ones(shape, dtype=dtype)

    out = {}
    for i in range(enc_cfg.n_layers):
        layer = dict(
            wq=w(d, d), bq=z(d), wk=w(d, d), bk=z(d), wv=w(d, d), bv=z(d), wo=w(d, d), bo=z(d),
            w_ff1=w(d, f), b_ff1=z(f), w_ff2=w(f, d), b_ff2=z(d),
            ln1_gain=o(d), ln1_bias=z(d), ln2_gain=o(d), ln2_bias=z(d),
        )
        out.update({f"layer{i}.{k}": v for k, v in layer.items()})
    out["tok_emb"] = w(vocab_size, d)
    out["seg_emb"] = w(2, d)
    out["pos_emb"] = w(max_len, d)
    out["fusion.w1"], out["fusion.b1"], out["fusion.w2"] = w(d, d_w), z(d), w(d, d)
    out["head.w_class"], out["head.b_class"] = w(2, d), z(2)
    out["syn_emb"] = w(n_syn, d_w) if n_syn else z(0, d_w)
    return out


class TestParamSpec:
    @pytest.mark.parametrize(
        "enc_cfg, sizes, kw",
        [
            (EncoderConfig.desk_scale(), (60, 48, 16, 12), dict(seed=3)),
            (TINY, (8, 6, 6, 4), dict(seed=0, dtype=np.float64, init_std=0.4)),
            (TINY, (8, 6, 6, 0), dict(seed=1)),
        ],
        ids=["desk-float32", "gradcheck-float64", "no-synonyms"],
    )
    def test_initialize_matches_reference_draw_order(self, enc_cfg, sizes, kw):
        want = reference_init(enc_cfg, *sizes, **kw)
        got = {n: t.data for n, t in ModelParams.initialize(enc_cfg, *sizes, **kw).named_tensors()}
        assert set(got) == set(want)
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype, name
            assert np.array_equal(got[name], arr), name

    def test_initialize_wraps_given_tensors_without_copy(self):
        """Given arrays are wrapped as they are, in spec order, whatever
        order they come in."""
        sizes = (8, 6, 6, 4)
        drawn = ModelParams.initialize(TINY, *sizes, dtype=np.float64)
        arrays = dict(reversed([(n, t.data) for n, t in drawn.named_tensors()]))
        got = ModelParams.initialize(TINY, *sizes, tensors=arrays)
        assert [n for n, _ in got.named_tensors()] == [n for n, _ in drawn.named_tensors()]
        for name, t in got.named_tensors():
            assert t.data is arrays[name] and t.requires_grad, name

    def test_tensor_names_are_the_checkpoint_names(self):
        layer = [
            "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "w_ff1", "b_ff1", "w_ff2", "b_ff2",
            "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias",
        ]
        want = {
            "tok_emb", "seg_emb", "pos_emb",
            *(f"layer{i}.{n}" for i in (0, 1) for n in layer),
            "fusion.w1", "fusion.b1", "fusion.w2", "head.w_class", "head.b_class", "syn_emb",
        }
        _, _, _, params = tiny_setup()
        assert {n for n, _ in params.named_tensors()} == want


class FixedUniform:
    """A generator stand-in whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self, size):
        return np.full(size, self.u)


class TestTruncatedNormal:
    """``_truncated_normal`` against ``scipy.stats.truncnorm.rvs``, the draw it replaced."""

    @pytest.mark.parametrize("shape", [(0, 16), (2, 128), (2000, 128)], ids=["empty", "2xd", "2000xd"])
    @pytest.mark.parametrize("std", [0.02, 0.4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_scipy(self, shape, std, dtype):
        for seed in range(6):
            want = truncnorm.rvs(-2.0, 2.0, scale=std, size=shape, random_state=np.random.default_rng(seed))
            got = _truncated_normal(np.random.default_rng(seed), shape, std)
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            assert got.astype(dtype).tobytes() == want.astype(dtype).tobytes(), seed

    @pytest.mark.parametrize("std", [0.02, 0.4])
    def test_weights_within_two_std(self, std):
        x = _truncated_normal(np.random.default_rng(0), (200_000,), std)
        assert np.all(np.abs(x) <= 2 * std)
        sizes = (EncoderConfig.desk_scale(), 60, 48, 16, 12)
        tensors = dict(ModelParams.initialize(*sizes, init_std=std).named_tensors())
        weights = [n for n, (_, kind) in param_shapes(*sizes).items() if kind == "weight"]
        for name in weights:
            assert np.all(np.abs(tensors[name].data) <= np.float32(2 * std)), name

    @pytest.mark.parametrize("std", [0.02, 0.4, 1.0])
    def test_zero_uniform_is_the_lower_bound(self, std):
        """``u = 0`` (``log(u) = -inf``) maps to -2 std without a warning:
        one float64 ulp below it, as scipy rounds it, and -2 std exactly
        at float32."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _truncated_normal(FixedUniform(0.0), (3,), std)
        assert np.all(np.isfinite(x))
        assert np.all(x >= -2 * std * (1 + 4 * np.finfo(np.float64).eps))
        assert np.all(x.astype(np.float32) >= np.float32(-2 * std))
        top = _truncated_normal(FixedUniform(np.nextafter(1.0, 0.0)), (3,), std)
        assert np.all(top <= 2 * std)


class TestFusionContext:
    def recompose(self, model, text):
        """Recompose the text with ``compose_input`` and look up the synonym
        ids of every keyword-mask position."""
        cfg = model.train_cfg
        tokens = preprocess(text)
        keywords = extract_keywords(tokens, model.lexicon) if cfg.enable_keywords else None
        inp = compose_input(tokens, keywords, model.vocab, cfg.max_len)
        return inp, {
            pos: model.keyword_syn_ids[tok]
            for pos, tok in enumerate(inp.tokens)
            if inp.keyword_mask[pos] and len(model.keyword_syn_ids.get(tok, []))
        }

    @pytest.mark.parametrize("enable_keywords", [True, False])
    def test_prepare_matches_recomposition(self, enable_keywords):
        ds, lex = generate_synthetic(SynthSpec(n_pos=30, n_neg=30, min_fillers=1, max_fillers=16, seed=4))
        texts = ds.texts()
        max_len = 14
        # synonym lists of length 0, 1 and 2, so empty lists are covered too
        keyword_syn_ids = {kw: [i % 4, (i + 1) % 4][: i % 3] for i, kw in enumerate(sorted(lex))}
        model = TrainedModel(
            params=ModelParams.initialize(TINY, vocab_size=50, max_len=max_len, d_w=6, n_syn=4),
            vocab=build_vocab([preprocess(t) for t in texts]),
            enc_cfg=TINY,
            train_cfg=TrainConfig(max_len=max_len, enable_keywords=enable_keywords),
            lexicon_words=sorted(lex),
            syn_vocab=["s0", "s1", "s2", "s3"],
            keyword_syn_ids=keyword_syn_ids,
            d_w=6,
        )
        truncated = fused_truncated = fused_s1 = fused_s2 = 0
        for text in texts:
            inp, ctx, keywords = model.prepare(text)
            again, want = self.recompose(model, text)
            assert inp.tokens == again.tokens and len(inp.tokens) <= max_len, text
            for name in ("token_ids", "segment_ids", "keyword_mask"):
                assert np.array_equal(getattr(inp, name), getattr(again, name)), (text, name)
            assert sorted(ctx.entries) == sorted(want), text
            for pos, ids in want.items():
                assert np.array_equal(ctx.entries[pos], ids), (text, pos)
            cut = len(preprocess(text)) + (len(keywords) + 3 if enable_keywords else 2) > max_len
            segments = {int(inp.segment_ids[pos]) for pos in want}
            truncated += cut
            fused_truncated += cut and bool(want)
            fused_s1 += 0 in segments
            fused_s2 += 1 in segments
        assert truncated > 0
        if enable_keywords:
            assert fused_truncated > 0 and fused_s1 > 0 and fused_s2 > 0


def full_length_collate(inputs, contexts, max_len):
    """The pad-to-``max_len`` batch: every row zero-filled to full length."""

    def pad(values):
        row = np.zeros(max_len, dtype=np.int64)
        row[: len(values)] = values
        return row

    return Batch(
        token_ids=np.stack([pad(i.token_ids) for i in inputs]),
        segment_ids=np.stack([pad(i.segment_ids) for i in inputs]),
        attention_mask=np.stack([pad(np.ones(len(i.token_ids))) for i in inputs]),
        keyword_mask=np.stack([pad(i.keyword_mask) for i in inputs]),
        labels=np.array([i.label for i in inputs], dtype=np.int64),
        contexts=list(contexts),
    )


def pad_then_cut_collate(inputs, contexts, max_len):
    """The collate that the padding-free composition replaced: inputs padded
    to ``max_len``, then every array cut to 1 + the last attended position
    over all rows (at least 1)."""
    full = full_length_collate(inputs, contexts, max_len)
    attended = full.attention_mask != 0
    last = max_len - np.argmax(attended[:, ::-1], axis=1)
    t = max(1, int(np.where(attended.any(axis=1), last, 0).max()))
    return Batch(
        token_ids=full.token_ids[:, :t],
        segment_ids=full.segment_ids[:, :t],
        attention_mask=full.attention_mask[:, :t],
        keyword_mask=full.keyword_mask[:, :t],
        labels=full.labels,
        contexts=full.contexts,
    )


def full_length_probs(model, inputs, contexts):
    with ad.no_grad():
        logits = forward_logits(
            full_length_collate(inputs, contexts, model.train_cfg.max_len),
            model.params,
            model.enc_cfg,
        ).data
    z = logits - logits.max(axis=-1, keepdims=True)
    return np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)


def reference_token_batches(lengths, budget):
    """The evaluation cut from its definition: rows in stable length order;
    a batch takes the next row while its rows × its longest row stay within
    ``budget``, and always takes its first row."""
    order = sorted(range(len(lengths)), key=lambda j: lengths[j])
    batches, batch = [], []
    for j in order:
        grown = batch + [j]
        if batch and len(grown) * max(lengths[i] for i in grown) > budget:
            batches.append(batch)
            grown = [j]
        batch = grown
    if batch:
        batches.append(batch)
    return [np.array(b, dtype=np.int64) for b in batches]


class TestTokenBatches:
    """``pipeline._token_batches``, the cut ``predict_labels`` evaluates by."""

    @staticmethod
    def check(lengths, budget):
        got = pipeline._token_batches(lengths, budget)
        assert [b.tolist() for b in got] == [b.tolist() for b in reference_token_batches(lengths, budget)]
        for b in got:
            assert len(b) >= 1
            assert len(b) * max(lengths[j] for j in b) <= budget or len(b) == 1
        flat = [int(j) for b in got for j in b]
        assert flat == np.argsort(lengths, kind="stable").tolist()  # each input once, stable length order
        return got

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 60), max_size=80), st.integers(1, 1000))
    def test_matches_reference(self, lengths, budget):
        self.check(lengths, budget)

    def test_row_over_budget_is_a_batch_alone(self):
        got = self.check([3, 30, 3, 12, 3, 12], 24)
        assert [b.tolist() for b in got] == [[0, 2, 4], [3, 5], [1]]  # 30 > 24 alone

    def test_full_rows_at_the_default_budget(self):
        """16 rows of ``max_len`` tokens fit one batch; short rows fill it."""
        assert [len(b) for b in self.check([48] * 40, 16 * 48)] == [16, 16, 8]
        assert [len(b) for b in self.check([9] * 100, 16 * 48)] == [85, 15]

    def test_empty(self):
        assert pipeline._token_batches([], 768) == []


BATCH_ARRAYS = ("token_ids", "segment_ids", "attention_mask", "keyword_mask", "labels")


class TestCollateEquivalence:
    """``collate`` on unpadded inputs against the pad-then-cut collate."""

    WORDS = ["feel", "dizzy", "weak", "sick", "zonk", "rash"]

    def assert_same_batch(self, inputs, max_len):
        contexts = [FusionContext({}) for _ in inputs]
        got = collate(inputs, contexts)
        want = pad_then_cut_collate(inputs, contexts, max_len)
        for name in BATCH_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.int64, name
            assert np.array_equal(a, b), name
        assert got.contexts == contexts

    def random_input(self, rng, vocab, max_len, case):
        n_s1 = {"truncate_s1": max_len + 5, "s2_over_budget": int(rng.integers(0, 3))}.get(
            case, int(rng.integers(0, max_len))
        )
        s1 = [self.WORDS[i] for i in rng.integers(len(self.WORDS), size=n_s1)]
        if case == "no_keywords":
            keywords = None
        elif case == "s2_over_budget":
            keywords = [f"kw{i}" for i in range(max_len)]
        else:
            keywords = [w for w in dict.fromkeys(s1) if rng.random() < 0.5]
        inp = compose_input(s1, keywords, vocab, max_len)
        inp.label = int(rng.integers(2))
        return inp

    def test_matches_pad_then_cut_on_random_inputs(self):
        rng = np.random.default_rng(9)
        vocab = build_vocab([self.WORDS + [f"kw{i}" for i in range(20)]])
        cases = ["mixed", "no_keywords", "truncate_s1", "s2_over_budget"]
        seen = set()
        for _ in range(200):
            max_len = int(rng.integers(4, 20))
            b = int(rng.integers(1, 6))
            picked = [cases[i] for i in rng.integers(len(cases), size=b)]
            inputs = [self.random_input(rng, vocab, max_len, c) for c in picked]
            self.assert_same_batch(inputs, max_len)
            seen.update(picked)
            seen.add(f"B={b}")
        assert seen >= set(cases) | {"B=1"}

    def test_zero_length_input(self):
        """A row with no positions pads to T=1 with an all-zero mask, alone
        or next to composed rows."""
        vocab = build_vocab([self.WORDS])
        blank = ModelInput(
            token_ids=np.zeros(0, dtype=np.int64),
            segment_ids=np.zeros(0, dtype=np.int64),
            keyword_mask=np.zeros(0, dtype=np.int64),
        )
        batch = collate([blank], [FusionContext({})])
        assert batch.token_ids.shape == (1, 1) and not batch.attention_mask.any()
        self.assert_same_batch([blank], 8)
        self.assert_same_batch([blank, compose_input(["feel"], ["feel"], vocab, 8), blank], 8)

    def test_contexts_are_required_and_aligned(self):
        inputs, contexts = _gradcheck_fixture()
        with pytest.raises(TypeError):
            collate(inputs)
        with pytest.raises(ValueError, match="align"):
            collate(inputs, contexts[:1])


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


class TestDynamicPadding:
    """Batches padded to their longest row against full-length ones."""

    MAX_LEN = 48

    def prepared(self, dtype, d_ff=32):
        """A model with keywords and synonyms, and interleaved short and
        long (S1-truncating) posts with their labels."""
        short, lex = generate_synthetic(SynthSpec(n_pos=12, n_neg=11, min_fillers=0, max_fillers=6, seed=2))
        long, lex_long = generate_synthetic(SynthSpec(n_pos=8, n_neg=8, min_fillers=30, max_fillers=60, seed=2))
        assert lex == lex_long
        texts = [t for pair in zip(short.texts(), long.texts()) for t in pair] + short.texts()[16:]
        enc = EncoderConfig(d_model=16, n_heads=2, d_ff=d_ff, n_layers=2, fusion_layer=1, dropout_rate=0.0)
        vocab = build_vocab([preprocess(t) for t in texts])
        model = TrainedModel(
            params=ModelParams.initialize(
                enc, vocab_size=len(vocab), max_len=self.MAX_LEN, d_w=6, n_syn=5, seed=3,
                dtype=dtype, init_std=0.3,
            ),
            vocab=vocab,
            enc_cfg=enc,
            train_cfg=TrainConfig(max_len=self.MAX_LEN, dropout_rate=0.0, gamma=0.0),
            lexicon_words=sorted(lex),
            syn_vocab=[f"s{i}" for i in range(5)],
            keyword_syn_ids={kw: [i % 5, (i + 2) % 5] for i, kw in enumerate(sorted(lex))},
            d_w=6,
        )
        inputs, contexts = [], []
        for k, text in enumerate(texts):
            inp, ctx, _ = model.prepare(text)
            inp.label = k % 2
            inputs.append(inp)
            contexts.append(ctx)
        # centre the head bias between two distinct margins, so both labels
        # occur and no margin is an exact tie
        with ad.no_grad():
            logits = forward_logits(
                full_length_collate(inputs, contexts, self.MAX_LEN), model.params, enc
            ).data
        u = np.unique(logits[:, 1] - logits[:, 0])
        model.params.head.b_class.data[1] -= (u[len(u) // 2 - 1] + u[len(u) // 2]) / 2
        lengths = np.array([len(i.token_ids) for i in inputs])
        assert lengths.max() == self.MAX_LEN and lengths.min() < 10
        assert sum(bool(c.entries) for c in contexts) > len(contexts) // 2
        return model, inputs, contexts

    def batches(self, inputs, contexts):
        """All-short, mixed, and single-row batches."""
        short = [k for k, i in enumerate(inputs) if len(i.token_ids) < 16]
        yield [inputs[k] for k in short], [contexts[k] for k in short]
        for s in range(0, len(inputs), 7):
            yield inputs[s : s + 7], contexts[s : s + 7]
        yield inputs[:1], contexts[:1]

    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_forward_matches_full_length(self, dtype, atol):
        model, inputs, contexts = self.prepared(dtype)
        trimmed_any = False
        for inp, ctx in self.batches(inputs, contexts):
            trimmed_any |= collate(inp, ctx).token_ids.shape[1] < self.MAX_LEN
            got = forward(inp, ctx, model.params, model.enc_cfg, model.train_cfg, "eval")
            want = full_length_probs(model, inp, ctx)
            assert got.dtype == want.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)
            decided = np.abs(want[:, 1] - want[:, 0]) > 1e-4
            assert np.array_equal(got.argmax(-1)[decided], want.argmax(-1)[decided])
        assert trimmed_any

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_tanh_gelu_scores_near_erf_gelu(self, monkeypatch, dtype):
        """A model trained with the exact GELU now scores with its tanh
        form.  On this model, whose 0.3-std weights drive the FFN harder
        than trained ones do, p1 moves by at most 1e-4 (9.0e-5 measured),
        and no label away from a tie flips."""
        model, inputs, contexts = self.prepared(dtype)
        args = (inputs, contexts, model.params, model.enc_cfg, model.train_cfg)
        tanh_probs = forward(*args)
        monkeypatch.setattr(ad, "gelu", lambda x: Tensor(erf_gelu(x.data)))
        erf_probs = forward(*args)
        assert np.abs(tanh_probs[:, 1] - erf_probs[:, 1]).max() <= 1e-4
        decided = np.abs(tanh_probs[:, 1] - 0.5) > 1e-4
        assert set(tanh_probs.argmax(-1)[decided]) == {0, 1}
        assert np.array_equal(tanh_probs.argmax(-1)[decided], erf_probs.argmax(-1)[decided])

    def test_backward_matches_full_length(self):
        model, inputs, contexts = self.prepared(np.float64)
        short = [k for k, i in enumerate(inputs) if len(i.token_ids) < 16][:8]
        inp, ctx = [inputs[k] for k in short], [contexts[k] for k in short]
        trimmed = collate(inp, ctx)
        t = trimmed.token_ids.shape[1]
        assert t < self.MAX_LEN
        args = (model.params, model.enc_cfg, model.train_cfg)
        loss, grads = backward(trimmed, *args)
        loss_full, grads_full = backward(full_length_collate(inp, ctx, self.MAX_LEN), *args)
        np.testing.assert_allclose(loss, loss_full, rtol=1e-12)
        for name, g in grads_full.items():
            np.testing.assert_allclose(grads[name], g, rtol=1e-10, atol=1e-16, err_msg=name)
        assert np.abs(grads["syn_emb"]).sum() > 0
        for g in (grads, grads_full):
            assert not g["pos_emb"][t:].any()

    @pytest.mark.parametrize("rows", [1, 5, 8, 64])
    def test_predict_labels_in_input_order(self, monkeypatch, rows):
        model, inputs, contexts = self.prepared(np.float64)
        assert len(inputs) % 5 and len(inputs) % 8
        want = np.concatenate([
            full_length_probs(model, inputs[s : s + rows], contexts[s : s + rows]).argmax(-1)
            for s in range(0, len(inputs), rows)
        ])
        assert 0 < want.sum() < len(want)
        monkeypatch.setattr(pipeline, "_EVAL_ROWS", rows)
        got = predict_labels(model, inputs, contexts)
        assert np.array_equal(got, want)

    def test_predict_labels_empty(self):
        model, _, _ = self.prepared(np.float32)
        assert predict_labels(model, [], []).shape == (0,)

    @classmethod
    def serial_labels(cls, model, inputs, contexts, rows):
        """Labels of the reference cuts at ``rows`` rows of ``MAX_LEN``
        tokens, run one after another."""
        preds = np.zeros(len(inputs), dtype=np.int64)
        for idx in reference_token_batches([len(i.token_ids) for i in inputs], rows * cls.MAX_LEN):
            probs = forward([inputs[j] for j in idx], [contexts[j] for j in idx],
                            model.params, model.enc_cfg, model.train_cfg)
            preds[idx] = probs.argmax(axis=-1)
        return preds

    @pytest.mark.parametrize("d_ff, rows", [(32, 1), (32, 2), (32, 5), (32, 8), (32, 32)])
    def test_paired_batches_equal_serial_forward(self, monkeypatch, d_ff, rows):
        """Every batch predict_labels runs, on either thread, is one of the
        reference cuts and has the bytes of a serial ``forward`` of that
        batch, and the labels are those of the serial loop.  The 39 inputs
        make 22, 11, 5, 3 and 2 batches at 1, 2, 5, 8 and 32 rows."""
        model, inputs, contexts = self.prepared(np.float32, d_ff)
        cuts = reference_token_batches([len(i.token_ids) for i in inputs], rows * self.MAX_LEN)
        want = self.serial_labels(model, inputs, contexts, rows)
        calls, real_forward = [], pipeline.forward

        def recording_forward(inp, ctx, *args):
            probs = real_forward(inp, ctx, *args)
            calls.append((list(inp), list(ctx), probs, threading.current_thread().name))
            return probs

        monkeypatch.setattr(pipeline, "forward", recording_forward)
        monkeypatch.setattr(pipeline, "_EVAL_ROWS", rows)
        got = join_or_fail(lambda: predict_labels(model, inputs, contexts))
        monkeypatch.undo()
        assert np.array_equal(got, want)
        n_batches = len(cuts)
        assert len(calls) == n_batches
        assert sorted(id(i) for inp, *_ in calls for i in inp) == sorted(map(id, inputs))
        assert sorted(tuple(map(id, inp)) for inp, *_ in calls) == sorted(
            tuple(id(inputs[j]) for j in idx) for idx in cuts
        )
        for inp, ctx, probs, _ in calls:
            serial = forward(inp, ctx, model.params, model.enc_cfg, model.train_cfg)
            assert probs.tobytes() == serial.tobytes()

    @staticmethod
    def meeting_forward(monkeypatch, then=None):
        """Patch ``pipeline.forward`` so that the first call on each of two
        threads waits for the other at a barrier, then runs ``then`` (by
        default the real ``forward``).  Returns the list of calling
        threads' names, one per call."""
        real = pipeline.forward
        barrier, lock, names = threading.Barrier(2, timeout=30), threading.Lock(), []

        def forward(inp, ctx, *args):
            name = threading.current_thread().name
            with lock:
                first = name not in names
                names.append(name)
            if first:
                barrier.wait()
            return (then or real)(inp, ctx, *args)

        monkeypatch.setattr(pipeline, "forward", forward)
        return names

    def test_both_threads_run_batches_at_once(self, monkeypatch):
        """The first batch of each thread waits at a barrier for the other
        thread's: a schedule that ran the batches on one thread, or one
        after another, would break it."""
        model, inputs, contexts = self.prepared(np.float32)
        want = self.serial_labels(model, inputs, contexts, 2)
        names = self.meeting_forward(monkeypatch)
        monkeypatch.setattr(pipeline, "_EVAL_ROWS", 2)
        got = join_or_fail(lambda: predict_labels(model, inputs, contexts))
        assert np.array_equal(got, want)
        assert len(names) == 11 and len(set(names)) == 2

    def test_single_batch_runs_on_the_calling_thread(self, monkeypatch):
        model, inputs, contexts = self.prepared(np.float32)
        assert len(reference_token_batches([len(i.token_ids) for i in inputs], 64 * self.MAX_LEN)) == 1
        want = self.serial_labels(model, inputs, contexts, 64)
        real, names = pipeline.forward, []

        def recording(inp, ctx, *args):
            names.append(threading.current_thread().name)
            return real(inp, ctx, *args)

        def no_thread(*args, **kwargs):
            raise AssertionError("a single batch started a thread")

        monkeypatch.setattr(pipeline, "forward", recording)
        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(pipeline, "_EVAL_ROWS", 64)
        assert np.array_equal(predict_labels(model, inputs, contexts), want)
        assert names == [threading.current_thread().name]

    def test_helper_batch_exception_reraises(self, monkeypatch):
        """A batch that raises on the helper stops both workers: the
        exception propagates once the caller's batch in progress has
        finished, and the workers stop pulling batches before the queue of
        22 is empty."""
        model, inputs, contexts = self.prepared(np.float32)
        real, finished = pipeline.forward, []

        def failing(inp, ctx, *args):
            if threading.current_thread().name == "lexfuse-eval":
                raise FloatingPointError("helper batch")
            probs = real(inp, ctx, *args)
            finished.append(threading.current_thread().name)
            return probs

        names = self.meeting_forward(monkeypatch, failing)
        monkeypatch.setattr(pipeline, "_EVAL_ROWS", 1)
        with pytest.raises(FloatingPointError, match="helper batch"):
            join_or_fail(lambda: predict_labels(model, inputs, contexts))
        assert finished and len(names) < 22

    def test_caller_batch_exception_waits_for_the_helpers_batch(self, monkeypatch):
        """A batch that raises on the calling thread propagates only after
        the helper's batch in progress has finished, and the helper takes
        no further batch."""
        model, inputs, contexts = self.prepared(np.float32)
        real, finished = pipeline.forward, []

        def failing(inp, ctx, *args):
            if threading.current_thread().name != "lexfuse-eval":
                raise KeyError("caller batch")
            time.sleep(0.05)
            probs = real(inp, ctx, *args)
            finished.append(threading.current_thread().name)
            return probs

        names = self.meeting_forward(monkeypatch, failing)
        monkeypatch.setattr(pipeline, "_EVAL_ROWS", 1)
        with pytest.raises(KeyError, match="caller batch"):
            join_or_fail(lambda: predict_labels(model, inputs, contexts))
        assert finished == ["lexfuse-eval"] and names.count("lexfuse-eval") == 1

    def test_errstate_reaches_every_batch_on_both_threads(self, monkeypatch):
        """The helper runs in a copy of the caller's context, so numpy's
        ``errstate`` (a context variable) holds in every batch, and the
        labels stay exact."""
        model, inputs, contexts = self.prepared(np.float32)
        want = self.serial_labels(model, inputs, contexts, 1)
        real, seen = pipeline.forward, []

        def recording(inp, ctx, *args):
            seen.append((threading.current_thread().name, np.geterr()["over"]))
            return real(inp, ctx, *args)

        self.meeting_forward(monkeypatch, recording)
        monkeypatch.setattr(pipeline, "_EVAL_ROWS", 1)

        def evaluate():
            assert np.geterr()["over"] != "raise"
            with np.errstate(over="raise"):
                return predict_labels(model, inputs, contexts)

        assert np.array_equal(join_or_fail(evaluate), want)
        assert len(seen) == 22 and len({name for name, _ in seen}) == 2
        assert {over for _, over in seen} == {"raise"}

    def test_two_threads_evaluate_at_once(self, monkeypatch):
        """Two callers, each with its own helper (more threads than a small
        VM has cores), switching often: every call's labels are exact."""
        model, inputs, contexts = self.prepared(np.float32)
        want = self.serial_labels(model, inputs, contexts, 4)
        monkeypatch.setattr(pipeline, "_EVAL_ROWS", 4)
        start = threading.Barrier(2, timeout=30)
        results = []

        def work():
            start.wait()
            for _ in range(5):
                results.append(np.array_equal(predict_labels(model, inputs, contexts), want))

        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, daemon=True) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive(), "deadlock"
        finally:
            sys.setswitchinterval(prev)
        assert results == [True] * 10

    def fresh_case(self, tmp_path, rows):
        """Pickle the model, inputs and serial labels at ``rows`` rows for
        a fresh interpreter, and return its loading preamble."""
        model, inputs, contexts = self.prepared(np.float32)
        case = tmp_path / "case.pkl"
        case.write_bytes(pickle.dumps((model, inputs, contexts, self.serial_labels(model, inputs, contexts, rows))))
        return f"""
import os, pickle, sys, threading
import numpy as np
from lexfuse import pipeline
from lexfuse.pipeline import predict_labels
pipeline._EVAL_ROWS = {rows}
model, inputs, contexts, want = pickle.loads(open({str(case)!r}, "rb").read())
"""

    def test_concurrent_callers_leave_no_thread(self, tmp_path):
        """Four callers (more threads than a small VM has cores), switching
        often, each start and join their own helper: every call's labels
        are exact, and once they return no thread is left."""
        code = self.fresh_case(tmp_path, 4) + """
assert len(pipeline._token_batches([len(i.token_ids) for i in inputs], 4 * model.train_cfg.max_len)) >= 2
before, bad = threading.active_count(), []
start = threading.Barrier(4, timeout=30)

def work():
    start.wait()
    for _ in range(3):
        if not np.array_equal(predict_labels(model, inputs, contexts), want):
            bad.append(1)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, daemon=True) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
    assert not t.is_alive(), "deadlock"
assert not bad and threading.active_count() == before, (len(bad), threading.enumerate())
"""
        assert run_fresh(code, timeout=120).returncode == 0

    def test_forked_child_evaluates(self, tmp_path):
        """A child forked after the parent evaluated on two threads
        evaluates on two threads too."""
        code = self.fresh_case(tmp_path, 8) + """
assert np.array_equal(predict_labels(model, inputs, contexts), want)
pid = os.fork()
if pid == 0:
    os._exit(0 if np.array_equal(predict_labels(model, inputs, contexts), want) else 3)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""
        assert run_fresh(code, timeout=60).returncode == 0

    def test_collate_pads_to_longest_row(self):
        _, inputs, contexts = self.prepared(np.float32)
        for inp, ctx in self.batches(inputs, contexts):
            batch = collate(inp, ctx)
            longest = max(len(i.token_ids) for i in inp)
            for arr in (batch.token_ids, batch.segment_ids, batch.attention_mask, batch.keyword_mask):
                assert arr.shape == (len(inp), longest)
            full = full_length_collate(inp, ctx, self.MAX_LEN)
            assert np.array_equal(batch.attention_mask.sum(axis=1), [len(i.token_ids) for i in inp])
            for name in ("token_ids", "segment_ids", "attention_mask", "keyword_mask"):
                assert np.array_equal(getattr(batch, name), getattr(full, name)[:, :longest]), name
            assert not full.attention_mask[:, longest:].any()

    def test_collate_hand_built_inputs(self):
        """Inputs with no token strings are padded by their lengths."""
        inputs, contexts = _gradcheck_fixture()
        batch = collate(inputs, contexts)
        assert batch.token_ids.shape == (2, 6)
        assert np.array_equal(batch.attention_mask, [[1] * 6, [1] * 5 + [0]])
        assert np.array_equal(batch.token_ids[1], [2, 6, 3, 7, 3, 0])
        assert collate(inputs[1:], contexts[1:]).token_ids.shape == (1, 5)


def full_sequence_logits(batch, params, enc_cfg, enable_synonyms=True):
    """Every layer on the full sequence, then the [CLS] row gathered: the
    forward pass before the last layer was cut to the [CLS] row."""
    x = batch_embed(batch.token_ids, batch.segment_ids, params.tok_emb, params.seg_emb, params.pos_emb)
    for i, layer in enumerate(params.layers, start=1):
        x = encoder_layer(x, batch.attention_mask, layer, enc_cfg)
        if i == enc_cfg.fusion_layer and enable_synonyms:
            x = deep_fusion(x, batch.keyword_mask, batch.contexts, params.fusion, params.syn_emb)
    b = batch.token_ids.shape[0]
    return head_logits(ad.gather2(x, np.arange(b), np.zeros(b, dtype=np.int64)), params.head)


class TestClsOnlyLastLayer:
    """``forward_logits`` and ``backward``, whose last encoder layer computes
    only the [CLS] row, against :func:`full_sequence_logits`.

    Gradients are compared per tensor, relative to the tensor's largest
    entry: single entries that cancel to near zero differ by more than
    1e-12 of themselves in float64 (2.6e-11 seen).  ``bk`` is compared
    absolutely, because softmax shift invariance makes its gradient
    analytically zero.
    """

    ENC = EncoderConfig(d_model=8, n_heads=2, d_ff=16, n_layers=3, fusion_layer=1, dropout_rate=0.0)
    VOCAB, MAX_LEN, N_SYN = 12, 10, 5
    LENGTHS = [(7,), (1,), (1, 6, 3), (9, 4, 6, 2), (10, 10, 10)]

    def batch(self, lengths, keywords, seed):
        """Random rows of the given lengths; with ``keywords``, each row
        longer than [CLS] has two segments and up to two fused keywords."""
        rng = np.random.default_rng(seed)
        inputs, contexts = [], []
        for k, n in enumerate(lengths):
            ids = rng.integers(4, self.VOCAB, size=n)
            ids[0] = 2
            kw = np.zeros(n, dtype=np.int64)
            seg = np.zeros(n, dtype=np.int64)
            if keywords and n > 1:
                kw[rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False)] = 1
                seg[(n + 1) // 2 :] = 1
            entries = {int(p): rng.choice(self.N_SYN, size=2, replace=False) for p in np.flatnonzero(kw)}
            inputs.append(ModelInput(ids, seg, kw, label=k % 2))
            contexts.append(FusionContext(entries))
        return collate(inputs, contexts)

    def compare(self, lengths, keywords, synonyms, seed, dtype, init_std):
        """(logits difference, worst gradient difference, worst ``bk``
        difference), the first two relative to the oracle's largest entry."""
        batch = self.batch(lengths, keywords, seed)
        params = ModelParams.initialize(
            self.ENC, self.VOCAB, self.MAX_LEN, d_w=6, n_syn=self.N_SYN, seed=seed,
            dtype=dtype, init_std=init_std,
        )
        cfg = TrainConfig(
            dropout_rate=0.0, max_len=self.MAX_LEN, enable_keywords=keywords, enable_synonyms=synonyms
        )
        params.zero_grad()
        want_logits = full_sequence_logits(batch, params, self.ENC, synonyms)
        focal_loss_from_logits(want_logits, batch.labels, cfg.gamma).backward()
        want = {n: t.grad if t.grad is not None else np.zeros_like(t.data) for n, t in params.named_tensors()}
        with ad.no_grad():
            got_logits = forward_logits(batch, params, self.ENC, synonyms).data
        _, got = backward(batch, params, self.ENC, cfg)
        assert got_logits.shape == (len(lengths), 2) and got_logits.dtype == dtype
        logit_diff = np.abs(got_logits - want_logits.data).max() / np.abs(want_logits.data).max()
        grad_diff = bk_diff = 0.0
        for name, w in want.items():
            diff = np.abs(got[name] - w).max()
            if name.endswith(".bk"):
                bk_diff = max(bk_diff, diff)
            elif diff:
                grad_diff = max(grad_diff, diff / np.abs(w).max())
        if synonyms and keywords and max(lengths) > 1:
            assert np.abs(want["syn_emb"]).sum() > 0
        return logit_diff, grad_diff, bk_diff

    @pytest.mark.parametrize("lengths", LENGTHS)
    @pytest.mark.parametrize("keywords", [True, False])
    @pytest.mark.parametrize("synonyms", [True, False])
    def test_float64_matches_full_sequence(self, lengths, keywords, synonyms):
        for seed in range(2):
            logit_diff, grad_diff, bk_diff = self.compare(
                lengths, keywords, synonyms, seed, np.float64, init_std=0.4
            )
            assert logit_diff <= 1e-12
            assert grad_diff <= 1e-12
            assert bk_diff <= 1e-15

    @pytest.mark.parametrize("init_std", [0.02, 0.4])
    def test_float32_bound(self, init_std):
        """Float32 agrees within 1e-6 on logits and 2e-5 on gradients,
        relative to the largest entry.  Measured over these cases: logits
        0 and 4.0e-7, gradients 1.5e-6 and 6.8e-6, at init std 0.02 and
        0.4."""
        for lengths in self.LENGTHS:
            logit_diff, grad_diff, bk_diff = self.compare(
                lengths, True, True, 0, np.float32, init_std
            )
            assert logit_diff <= 1e-6
            assert grad_diff <= 2e-5
            assert bk_diff <= 1e-6
