"""End-to-end model assembly, training and checkpoints.

The full forward pass is: compose ``[CLS] S1 [SEP] S2 [SEP]``, sum
token/segment/position embeddings, run the encoder stack with the
deep-fusion hook after the configured layer, and classify the final
[CLS] hidden state.  Training uses Adam on exact reverse-mode gradients,
which :mod:`lexfuse.gradcheck` verifies against finite differences.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri_exp

from . import autodiff as ad
from .autodiff import Tensor
from .classifier import HeadParams, focal_loss_from_logits, head_logits
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
from .encoder import (
    Dropout,
    EncoderConfig,
    LayerParams,
    _require_integers,
    layer_param_shapes,
    run_encoder,
)
from .fusion import FusionContext, FusionParams, deep_fusion
from .lexicon import extract_keywords
from .metrics import Metrics, metrics_from_predictions
from .preprocessing import PreprocessRules, preprocess

__all__ = [
    "TrainConfig",
    "ModelParams",
    "param_shapes",
    "AdamState",
    "TrainedModel",
    "TrainResult",
    "TrainingDivergedError",
    "CheckpointError",
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


class CheckpointError(ValueError):
    """Raised for unreadable, corrupt, or mismatching checkpoint files."""


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol knobs.

    ``enable_keywords`` switches the S2 keyword segment on or off and
    ``enable_synonyms`` the deep-fusion layer, giving the ablation grid.
    ``gamma`` is the focal-loss exponent and the one loss setting: at
    ``gamma=0`` the loss is cross entropy.  The architecture, fusion layer
    included, lives in :class:`EncoderConfig`; :func:`train` copies only
    ``dropout_rate`` onto it.  Counts and sizes are integers, and the two
    float settings are finite.
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
    ) -> "ModelParams":
        """Truncated-normal (clipped at 2 std) weights, zero biases, unit gains.

        Each weight tensor takes one ``rng.uniform(size=shape)`` draw ``u``,
        in :func:`param_shapes` order, and maps it through the inverse CDF
        of the standard normal truncated to [-2, 2], scaled by ``init_std``
        (see :func:`_truncated_normal`). These are the float64 operations
        of ``scipy.stats.truncnorm.rvs(-2, 2, scale=init_std, size=shape,
        random_state=rng)``, so the weights equal its draw bitwise.
        """
        rng = np.random.default_rng(np.random.SeedSequence(seed))

        def make(shape, kind):
            if kind == "weight":
                data = _truncated_normal(rng, shape, init_std)
            else:
                data = {"zeros": np.zeros, "ones": np.ones}[kind](shape)
            return Tensor(data.astype(dtype), requires_grad=True)

        spec = param_shapes(enc_cfg, vocab_size, max_len, d_w, n_syn)
        return cls({name: make(shape, kind) for name, (shape, kind) in spec.items()})

    def named_tensors(self):
        return self._tensors.items()

    def zero_grad(self) -> None:
        for _, t in self.named_tensors():
            t.grad = None


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
    contexts: Sequence | None,
    params: ModelParams,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
    mode: str = "eval",
) -> np.ndarray:
    """Class probabilities (B, 2) for a batch of composed inputs, without
    dropout or gradients.

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
        probs = forward([inp], [ctx], self.params, self.enc_cfg, self.train_cfg, "eval")[0]
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
    """Argmax class predictions for prepared inputs, in evaluation mode.

    Inputs are taken in stable order of composed length, so each collated
    batch carries little padding, and cut greedily into batches whose rows
    × longest composed length stays within ``_EVAL_ROWS`` (16) ×
    ``max_len`` token slots.  The predictions are returned in input order.
    Consecutive batches run as an ``autodiff._pair``: the first on the
    calling thread, the second at the same time on the helper thread, and
    an odd last batch alone (where a large GELU still splits over both
    threads).  Each batch makes the same calls as it would alone, so its
    probabilities are bitwise those of a serial :func:`forward` of that
    batch.

    The budget counts padded tokens, not rows, because a batch's
    activations, and with them the helper thread's malloc arena (which
    keeps its high-water mark), grow with its padded tokens.  16 rows of
    ``max_len`` tokens kept perfbench's ``long_posts`` peak RSS within
    about 5%.  At that budget, posts of about 9 tokens make batches of
    about 80 rows instead of 16, where per-batch overhead, not arithmetic,
    set their speed.
    """
    preds = np.zeros(len(inputs), dtype=np.int64)
    batches = _token_batches([len(i.token_ids) for i in inputs], _EVAL_ROWS * model.train_cfg.max_len)

    def run(idx):
        probs = forward(
            [inputs[j] for j in idx],
            [contexts[j] for j in idx],
            model.params,
            model.enc_cfg,
            model.train_cfg,
            "eval",
        )
        preds[idx] = probs.argmax(axis=-1)

    for k in range(0, len(batches) - 1, 2):
        ad._pair(partial(run, batches[k]), partial(run, batches[k + 1]))
    if len(batches) % 2:
        run(batches[-1])
    return preds


def _dev_metrics(model: TrainedModel, prepared) -> Metrics:
    inputs, contexts, labels = prepared
    return metrics_from_predictions(labels, predict_labels(model, inputs, contexts))


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
            m = _dev_metrics(model, dev_prepared)
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


# -- checkpoints ---------------------------------------------------------

_MAGIC = b"LEXFUSE\x00"
_VERSION = 1
_DTYPES = {4: np.float32, 8: np.float64}
_DTYPE_CODES = {np.dtype(np.float32): 4, np.dtype(np.float64): 8}
_HEADER_FIELDS = ("encoder", "train", "vocab", "lexicon", "syn_vocab", "keyword_syn_ids", "d_w")


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"{f.name}: checkpoint truncated while reading {what}")
    return data


def _header_config(path: Path, key: str, raw, cls):
    """Build ``cls`` from the header mapping ``raw``; each fault names ``key``."""
    if not isinstance(raw, dict):
        raise CheckpointError(f"{path}: header field {key!r} is not a mapping")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: header field {key!r}: {e}") from e


def _check_header_fields(path: Path, meta: dict) -> None:
    """Raise a :class:`CheckpointError` naming the first header field
    whose type is not the one :func:`save_checkpoint` writes."""

    def strings(v) -> bool:
        return isinstance(v, list) and all(isinstance(s, str) for s in v)

    n_syn = len(meta["syn_vocab"]) if strings(meta["syn_vocab"]) else 0
    ids = meta["keyword_syn_ids"]
    for key, ok, expected in (
        ("vocab", strings(meta["vocab"]), "a list of strings"),
        ("lexicon", strings(meta["lexicon"]), "a list of strings"),
        ("syn_vocab", strings(meta["syn_vocab"]), "a list of strings"),
        ("keyword_syn_ids", isinstance(ids, dict) and all(
            isinstance(row, list) and all(type(i) is int and 0 <= i < n_syn for i in row)
            for row in ids.values()
        ), "a mapping of keyword to a list of syn_vocab indices"),
        ("d_w", type(meta["d_w"]) is int and meta["d_w"] > 0, "a positive integer"),
    ):
        if not ok:
            raise CheckpointError(f"{path}: header field {key!r} is not {expected}")


def save_checkpoint(model: TrainedModel, path: str | Path) -> None:
    """Serialize a trained model; the round trip is bit-exact."""
    meta = {
        "encoder": asdict(model.enc_cfg),
        "train": asdict(model.train_cfg),
        "vocab": model.vocab.id_to_word,
        "lexicon": model.lexicon_words,
        "syn_vocab": model.syn_vocab,
        "keyword_syn_ids": {k: list(map(int, v)) for k, v in model.keyword_syn_ids.items()},
        "d_w": model.d_w,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    tensors = list(model.params.named_tensors())
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(tensors)))
        for name, t in tensors:
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", t.data.ndim))
            for dim in t.data.shape:
                f.write(struct.pack("<I", dim))
            f.write(struct.pack("<B", _DTYPE_CODES[t.data.dtype]))
            f.write(np.ascontiguousarray(t.data).astype(t.data.dtype, copy=False).tobytes())


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Restore a :class:`TrainedModel`; validates structure and shapes."""
    path = Path(path)
    with open(path, "rb") as f:
        if _read_exact(f, len(_MAGIC), "magic") != _MAGIC:
            raise CheckpointError(f"{path}: not a lexfuse checkpoint (bad magic bytes)")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        (json_len,) = struct.unpack("<I", _read_exact(f, 4, "header length"))
        try:
            meta = json.loads(_read_exact(f, json_len, "header"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise CheckpointError(f"{path}: corrupt JSON header ({e})") from e
        (n_tensors,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
        tensors: dict = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "tensor name length"))
            try:
                name = _read_exact(f, name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"{path}: corrupt tensor name ({e})") from e
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, f"ndim of {name}"))
            shape = tuple(
                struct.unpack("<I", _read_exact(f, 4, f"shape of {name}"))[0] for _ in range(ndim)
            )
            (code,) = struct.unpack("<B", _read_exact(f, 1, f"dtype of {name}"))
            if code not in _DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name}")
            dtype = np.dtype(_DTYPES[code])
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            data = np.frombuffer(_read_exact(f, nbytes, f"data of {name}"), dtype=dtype)
            tensors[name] = data.reshape(shape).copy()
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last tensor")

    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    missing = [k for k in _HEADER_FIELDS if k not in meta]
    if missing:
        raise CheckpointError(f"{path}: header lacks fields {missing}")
    enc_cfg = _header_config(path, "encoder", meta["encoder"], EncoderConfig)
    train = meta["train"]
    if isinstance(train, dict):
        # Older format-1 files also store three fields TrainConfig no longer
        # has: fusion_layer, whose value the stored encoder config holds;
        # keyword_scope, of which only "both" can be reproduced; and
        # loss_kind, where "cross_entropy" is focal loss at gamma 0.
        train = {k: v for k, v in train.items() if k != "fusion_layer"}
        scope = train.pop("keyword_scope", "both")
        if scope != "both":
            raise CheckpointError(
                f"{path}: header field 'train.keyword_scope' is {scope!r}; only 'both' can be loaded"
            )
        loss_kind = train.pop("loss_kind", "focal")
        if loss_kind == "cross_entropy":
            train["gamma"] = 0.0
        elif loss_kind != "focal":
            raise CheckpointError(
                f"{path}: header field 'train.loss_kind' is {loss_kind!r}; "
                "only 'focal' or 'cross_entropy' can be loaded"
            )
    train_cfg = _header_config(path, "train", train, TrainConfig)
    _check_header_fields(path, meta)
    vocab = Vocab(meta["vocab"][4:])
    expected = ModelParams.initialize(
        enc_cfg,
        vocab_size=len(vocab),
        max_len=train_cfg.max_len,
        d_w=meta["d_w"],
        n_syn=len(meta["syn_vocab"]),
        seed=0,
        dtype=np.float32,
    )
    for name, t in expected.named_tensors():
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != t.data.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"config implies {t.data.shape}"
            )
        t.data = tensors[name]
    extra = set(tensors) - {n for n, _ in expected.named_tensors()}
    if extra:
        raise CheckpointError(f"{path}: unexpected tensors {sorted(extra)}")
    return TrainedModel(
        params=expected,
        vocab=vocab,
        enc_cfg=enc_cfg,
        train_cfg=train_cfg,
        lexicon_words=list(meta["lexicon"]),
        syn_vocab=list(meta["syn_vocab"]),
        keyword_syn_ids={k: list(v) for k, v in meta["keyword_syn_ids"].items()},
        d_w=meta["d_w"],
    )
