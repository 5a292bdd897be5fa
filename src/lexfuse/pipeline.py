"""End-to-end model assembly, training and evaluation.

The full forward pass is: compose ``[CLS] S1 [SEP] S2 [SEP]``, sum
token/segment/position embeddings, run the encoder stack with the
deep-fusion hook after the configured layer, and classify the final
[CLS] hidden state.  Training uses Adam on exact reverse-mode gradients,
which :mod:`lexfuse.gradcheck` verifies against finite differences.
"""
from __future__ import annotations

import contextvars
import json
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import read_checkpoint, save_checkpoint
from .classifier import focal_loss_from_logits, head_logits
from .data import Dataset
from .embedding import (
    EmbeddingTable,
    ModelInput,
    Vocab,
    batch_embed,
    build_synonym_catalog,
    build_vocab,
    compose_input,
)
from .encoder import Dropout, EncoderConfig, run_encoder
from .fusion import FusionContext, deep_fusion
from .lexicon import extract_keywords
from .metrics import metrics_from_predictions
from .params import ModelParams, TrainConfig
from .preprocessing import PreprocessRules, preprocess

__all__ = [
    "AdamState",
    "TrainedModel",
    "TrainResult",
    "TrainingDivergedError",
    "collate",
    "forward",
    "forward_logits",
    "backward",
    "adam_step",
    "train",
    "prepare_dataset",
    "predict_labels",
    "save_checkpoint",
    "load_checkpoint",
    "save_history",
]


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss or a gradient stops being finite."""


# -- batching -----------------------------------------------------------


@dataclass
class Batch:
    token_ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    keyword_mask: np.ndarray
    labels: np.ndarray
    contexts: list  # one FusionContext per example


def collate(inputs: Sequence[ModelInput], contexts: Sequence) -> Batch:
    """Stack composed inputs into one batch, padded to its longest row.

    Every row is zero-filled ([PAD], segment 0, no keyword) up to ``T``,
    the longest composed length (at least 1), and the attention mask is 1
    exactly on each row's composed positions.  Attention gives padded keys
    zero weight, so the [CLS] logits equal those of a longer padding up to
    float rounding.
    """
    if not inputs:
        raise ValueError("cannot collate an empty batch")
    if len(contexts) != len(inputs):
        raise ValueError("contexts must align with inputs")
    lengths = np.array([len(i.token_ids) for i in inputs])
    real = np.arange(max(1, int(lengths.max()))) < lengths[:, None]

    def padded(name: str) -> np.ndarray:
        out = np.zeros(real.shape, dtype=np.int64)
        out[real] = np.concatenate([getattr(i, name) for i in inputs])
        return out

    return Batch(
        token_ids=padded("token_ids"),
        segment_ids=padded("segment_ids"),
        attention_mask=real.astype(np.int64),
        keyword_mask=padded("keyword_mask"),
        labels=np.array([i.label for i in inputs], dtype=np.int64),
        contexts=list(contexts),
    )


def forward_logits(
    batch: Batch,
    params: ModelParams,
    enc_cfg: EncoderConfig,
    enable_synonyms: bool = True,
    dropout: Dropout | None = None,
) -> Tensor:
    """Differentiable forward pass to class logits (B, 2).

    The head reads the final ``[CLS]`` state, the only row the encoder's
    last layer computes.
    """
    e = batch_embed(batch.token_ids, batch.segment_ids, params.tok_emb, params.seg_emb, params.pos_emb)
    if dropout is not None:
        e = dropout(e)
    hook = None
    if enable_synonyms:
        def hook(x):
            return deep_fusion(x, batch.keyword_mask, batch.contexts, params.fusion, params.syn_emb)
    cls = run_encoder(e, batch.attention_mask, params.layers, enc_cfg, hook, dropout)
    return head_logits(cls, params.head)


def forward(
    inputs: Sequence[ModelInput],
    contexts: Sequence,
    params: ModelParams,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
    mode: str = "eval",
) -> np.ndarray:
    """Class probabilities (B, 2) for a batch of composed inputs, without
    dropout or gradients.  ``contexts`` holds one :class:`FusionContext`
    per input.

    Training runs through :func:`backward`.  ``mode`` must be ``"eval"``;
    the argument stays so that callers passing it positionally keep
    working, and any other value raises.
    """
    if mode != "eval":
        raise ValueError(f"mode must be 'eval', got {mode!r}")
    with ad.no_grad():
        logits = forward_logits(collate(inputs, contexts), params, enc_cfg, train_cfg.enable_synonyms)
    return ad.softmax_forward(logits.data)


def batch_loss(
    batch: Batch,
    params: ModelParams,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
    dropout: Dropout | None = None,
) -> Tensor:
    logits = forward_logits(batch, params, enc_cfg, train_cfg.enable_synonyms, dropout)
    return focal_loss_from_logits(logits, batch.labels, train_cfg.gamma)


def backward(
    batch: Batch,
    params: ModelParams,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
    dropout: Dropout | None = None,
):
    """Mean-batch-loss gradients for every tensor; zeros on disabled paths.

    Returns ``(loss_value, grads)`` where grads maps tensor name to an
    array of the tensor's shape.
    """
    params.zero_grad()
    loss = batch_loss(batch, params, enc_cfg, train_cfg, dropout)
    if not np.isfinite(loss.data):
        raise TrainingDivergedError("loss is not finite")
    loss.backward()
    grads: dict = {}
    for name, t in params.named_tensors():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.isfinite(g).all():
            raise TrainingDivergedError(f"gradient of tensor {name!r} contains NaN/Inf")
        grads[name] = g
    return loss.item(), grads


# -- optimizer ----------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators with bias correction."""

    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={n: np.zeros_like(t.data) for n, t in params.named_tensors()},
            v={n: np.zeros_like(t.data) for n, t in params.named_tensors()},
        )


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float) -> None:
    """One Adam update.

    The moments are updated in place, as the state owns them.  Each
    parameter gets a new array, because a loaded or shared array must not
    be written through.
    """
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for name, t in params.named_tensors():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        t.data = t.data - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# -- trained model ------------------------------------------------------


@dataclass
class TrainedModel:
    """Parameters plus everything needed to run on raw text.

    ``lexicon`` is the frozenset of ``lexicon_words`` that keyword
    extraction tests tokens against; it is built once, at construction.
    """

    params: ModelParams
    vocab: Vocab
    enc_cfg: EncoderConfig
    train_cfg: TrainConfig
    lexicon_words: list
    syn_vocab: list
    keyword_syn_ids: dict
    d_w: int
    lexicon: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lexicon = frozenset(self.lexicon_words)

    def prepare(self, text: str, rules: PreprocessRules | None = None):
        """Raw text -> (ModelInput, FusionContext, extracted keyword list).

        This is the one place where a text is composed, for training,
        evaluation and prediction alike.
        """
        tokens = preprocess(text, rules)
        cfg = self.train_cfg
        if cfg.enable_keywords and self.lexicon_words:
            keywords = extract_keywords(tokens, self.lexicon)
        else:
            keywords = None
        inp = compose_input(tokens, keywords, self.vocab, cfg.max_len)
        ctx = self.fusion_context(inp)
        return inp, ctx, keywords if keywords is not None else []

    def fusion_context(self, inp: ModelInput) -> FusionContext:
        """Synonym ids for every keyword-mask position of one composed input."""
        if not self.train_cfg.enable_synonyms or not self.keyword_syn_ids:
            return FusionContext({})
        entries: dict = {}
        for pos, tok in enumerate(inp.tokens):
            if inp.keyword_mask[pos] and tok in self.keyword_syn_ids:
                ids = self.keyword_syn_ids[tok]
                if len(ids):
                    entries[pos] = np.asarray(ids, dtype=np.int64)
        return FusionContext(entries)

    def predict(self, text: str, rules: PreprocessRules | None = None) -> dict:
        """Label, probabilities, and matched keywords for one raw text."""
        inp, ctx, keywords = self.prepare(text, rules)
        probs = forward([inp], [ctx], self.params, self.enc_cfg, self.train_cfg)[0]
        return {
            "label": int(np.argmax(probs)),
            "probabilities": [float(probs[0]), float(probs[1])],
            "keywords": keywords,
        }


@dataclass
class TrainResult:
    model: TrainedModel
    history: list


# Evaluation batches hold at most this many rows' worth of max_len tokens.
_EVAL_ROWS = 16


def _token_batches(lengths: Sequence[int], budget: int) -> list:
    """Indices into ``lengths`` in stable length order, cut greedily into
    batches whose rows × longest length stays within ``budget``; a row
    longer than ``budget`` alone is a batch of one."""
    order = np.argsort(lengths, kind="stable")
    batches, start = [], 0
    for end, j in enumerate(order):
        if end > start and (end - start + 1) * lengths[j] > budget:
            batches.append(order[start:end])
            start = end
    if len(order):
        batches.append(order[start:])
    return batches


def predict_labels(model: TrainedModel, inputs, contexts) -> np.ndarray:
    """Argmax class predictions for prepared inputs, in evaluation mode,
    returned in input order.

    The :func:`_token_batches` cuts (``_EVAL_ROWS`` × ``max_len`` padded
    tokens each) go into one deque.  The calling thread and, with two or
    more batches, a helper thread started for this call (in a copy of the
    caller's context, so ``np.errstate`` holds there) pop the next batch
    until it is empty; a single batch starts no thread.  A batch that
    raises stops both workers after their batches in progress, and the
    first exception propagates once the helper has joined.  Each batch
    makes the same calls as it would alone, so its probabilities are
    bitwise those of a serial :func:`forward` of that batch.

    The budget counts padded tokens, not rows, because a batch's
    activations, and with them the helper thread's malloc arena (which
    outlives the thread and keeps its high-water mark), grow with its
    padded tokens; 16 rows of ``max_len`` kept perfbench's ``long_posts``
    peak RSS within about 5%.
    """
    preds = np.zeros(len(inputs), dtype=np.int64)
    batches = deque(_token_batches([len(i.token_ids) for i in inputs], _EVAL_ROWS * model.train_cfg.max_len))
    errors: list = []

    def worker():
        while not errors:
            try:
                idx = batches.popleft()
            except IndexError:
                return
            try:
                probs = forward([inputs[j] for j in idx], [contexts[j] for j in idx],
                                model.params, model.enc_cfg, model.train_cfg)
                preds[idx] = probs.argmax(axis=-1)
            except BaseException as e:  # re-raised by the caller after the join
                errors.append(e)
                return

    helper = None
    if len(batches) > 1:
        helper = threading.Thread(target=contextvars.copy_context().run, args=(worker,), name="lexfuse-eval")
        helper.start()
    try:
        worker()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]
    return preds


def prepare_dataset(model: TrainedModel, dataset: Dataset, rules: PreprocessRules | None = None):
    """Compose inputs and fusion contexts for every example of a dataset."""
    inputs: list = []
    contexts: list = []
    for text, label in dataset:
        inp, ctx, _ = model.prepare(text, rules)
        inp.label = int(label)
        inputs.append(inp)
        contexts.append(ctx)
    return inputs, contexts, dataset.labels()


def train(
    train_cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    train_set: Dataset,
    dev_set: Dataset | None = None,
    trie: frozenset | None = None,
    table: EmbeddingTable | None = None,
    rules: PreprocessRules | None = None,
) -> TrainResult:
    """Train a fresh model; vocabulary and synonym catalog come from
    ``train_set`` only.  ``trie`` is the lexicon (see
    :func:`lexicon.build_trie`); without it no keywords are extracted.
    ``enc_cfg`` is used with its ``dropout_rate`` replaced by the training
    config's; the training inputs are composed by :meth:`TrainedModel.prepare`.

    The history records one entry per epoch with the mean train loss and
    dev-set precision/recall/F1 (zeros when no dev set is given).
    """
    if len(train_set) == 0:
        raise ValueError("train_set must be nonempty")
    enc_cfg = replace(enc_cfg, dropout_rate=train_cfg.dropout_rate)
    seeds = np.random.SeedSequence(train_cfg.seed).spawn(3)
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])

    token_lists = [preprocess(t, rules) for t in train_set.texts()]
    use_keywords = train_cfg.enable_keywords and trie is not None and len(trie) > 0
    vocab = build_vocab(token_lists, train_cfg.min_freq)
    train_keywords: list = []
    if use_keywords:
        train_keywords = sorted({t for toks in token_lists for t in toks if t in trie})
    syn_vocab: list = []
    keyword_syn_ids: dict = {}
    init_rows: list = []
    d_w = table.dim if table is not None else 8
    if train_cfg.enable_synonyms and table is not None and train_keywords:
        catalog = build_synonym_catalog(train_keywords, table, train_cfg.h_max)
        index: dict = {}
        for kw in train_keywords:
            ids = []
            for syn, vec in zip(catalog[kw].synonyms, catalog[kw].vectors):
                if syn not in index:
                    index[syn] = len(syn_vocab)
                    syn_vocab.append(syn)
                    init_rows.append(vec)
                ids.append(index[syn])
            if ids:
                keyword_syn_ids[kw] = ids

    params = ModelParams.initialize(
        enc_cfg,
        vocab_size=len(vocab),
        max_len=train_cfg.max_len,
        d_w=d_w,
        n_syn=len(syn_vocab),
        seed=train_cfg.seed,
        dtype=np.float32,
    )
    if init_rows:
        params.syn_emb.data = np.array(init_rows, dtype=np.float32)

    model = TrainedModel(
        params=params,
        vocab=vocab,
        enc_cfg=enc_cfg,
        train_cfg=train_cfg,
        lexicon_words=sorted(trie) if use_keywords else [],
        syn_vocab=syn_vocab,
        keyword_syn_ids=keyword_syn_ids,
        d_w=d_w,
    )

    inputs, contexts, _ = prepare_dataset(model, train_set, rules)
    dev_prepared = prepare_dataset(model, dev_set, rules) if dev_set is not None and len(dev_set) else None

    state = AdamState.for_params(params)
    history: list = []
    n = len(inputs)
    for epoch in range(1, train_cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, train_cfg.batch_size):
            idx = order[start : start + train_cfg.batch_size]
            batch = collate([inputs[i] for i in idx], [contexts[i] for i in idx])
            dropout = (
                Dropout(dropout_rng, enc_cfg.dropout_rate) if enc_cfg.dropout_rate > 0 else None
            )
            try:
                loss, grads = backward(batch, params, enc_cfg, train_cfg, dropout)
            except TrainingDivergedError as e:
                raise TrainingDivergedError(
                    f"{e} (epoch {epoch}, batch starting at {start})"
                ) from None
            adam_step(params, grads, state, train_cfg.learning_rate)
            total_loss += loss * len(idx)
        record = {"epoch": epoch, "train_loss": total_loss / n}
        if dev_prepared is not None:
            dev_inputs, dev_contexts, dev_labels = dev_prepared
            m = metrics_from_predictions(dev_labels, predict_labels(model, dev_inputs, dev_contexts))
            record.update(dev_precision=m.precision, dev_recall=m.recall, dev_f1=m.f1)
        else:
            record.update(dev_precision=0.0, dev_recall=0.0, dev_f1=0.0)
        history.append(record)
    return TrainResult(model, history)


def save_history(history: list, path: str | Path) -> None:
    """Write per-epoch records as JSON lines."""
    with open(path, "w", encoding="utf-8") as f:
        for record in history:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Restore the :class:`TrainedModel` that :func:`save_checkpoint` wrote;
    :func:`~lexfuse.checkpoint.read_checkpoint` validates the file."""
    return TrainedModel(**read_checkpoint(path))
