"""Workloads and the timed phases every workload runs.

Every workload runs the same lifecycle of a lexfuse scoring process, so
every end-to-end metric exists on every workload.  The workloads differ
in the sizes that decide which layer does the work:

    cold      rounds of: parse a word2vec text file -> vectors_load_s
                         build a synonym catalog    -> catalog_s
                         load a saved checkpoint    -> ckpt_load_s
    train     train() at desk scale                -> train_ex_per_s
    evaluate  harness.evaluate on held-out posts   -> eval_ex_per_s
    predict   closed-loop single predict, 1 caller -> predict_p50_ms, predict_p95_ms,
                                                      dev_auc

Only the public lexfuse API is called, through module attributes looked
up at call time, so the span wrappers of a traced run see the calls.
"""
from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lexfuse
from lexfuse import embedding, harness, pipeline

from checks import (
    check_catalog,
    check_probabilities,
    check_prf,
    check_tensors_equal,
)

__all__ = ["Workload", "WORKLOADS", "Fixtures", "Outcome", "setup", "run_phases", "gemm_ceiling"]

DIM = 100  # word-vector width, as in word2vec-scale tables
H_MAX = 5
MAX_LEN = 48
KEYWORD_SIGNAL = 0.9  # below 1, so held-out quality is not trivially perfect
# Dropout 0.1 or a learning rate of 1e-3 left some seeds predicting one
# constant class after these training budgets.  One epoch over distinct
# posts generalised better than repeated epochs at the same step count.
TRAIN_CFG = dict(batch_size=8, max_len=MAX_LEN, epochs=1, dropout_rate=0.0, learning_rate=7e-4)
EVAL_BATCH = 64
MIN_ROUNDS = 4  # warm rounds after train(); their predict blocks cover every held-out post
TIE_MARGIN = 1e-4  # |p1 - p0| below this: batched and single labels may differ


@dataclass(frozen=True)
class Workload:
    name: str
    min_fillers: int
    max_fillers: int
    # negatives per positive: 7 as in the source paper's ADR data; 1 where
    # 1:7 classes left some seeds' models predicting one constant class
    # after the training budget
    class_ratio: int
    n_train: int
    n_heldout: int
    n_vectors: int  # rows of the word2vec file parsed by the vectors phase
    n_catalog_rows: int  # rows of the table the catalog phase searches
    n_catalog_keywords: int
    ckpt_vocab: int  # vocabulary of the checkpoint the ckpt phase loads


WORKLOADS = {
    w.name: w
    for w in (
        # tweet-length posts fill ~10 of 48 slots: padding and per-text
        # overhead dominate train, evaluate and predict
        Workload(
            name="short_posts",
            min_fillers=3, max_fillers=7, class_ratio=7, n_train=1200, n_heldout=512,
            n_vectors=2_000, n_catalog_rows=20_000, n_catalog_keywords=6, ckpt_vocab=2_000,
        ),
        # posts near max_len truncate S1 and leave little padding: encoder
        # compute (FFN/GELU, T^2 attention) dominates
        Workload(
            name="long_posts",
            min_fillers=36, max_fillers=44, class_ratio=1, n_train=1600, n_heldout=384,
            n_vectors=2_000, n_catalog_rows=20_000, n_catalog_keywords=6, ckpt_vocab=2_000,
        ),
    )
}


# -- set-up ---------------------------------------------------------------


@dataclass
class Fixtures:
    train_set: object
    heldout: object
    trie: object
    rules: object
    vectors: object  # EmbeddingTable written to vec_path
    vec_path: Path
    catalog_table: object
    catalog_keywords: list
    ckpt_model: object  # TrainedModel written to ckpt_path
    ckpt_path: Path


def _split(dataset, n_train: int, class_ratio: int):
    """Train on the first ``n_train`` examples in the class ratio."""
    labels = dataset.labels()
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    n_pos = n_train // (class_ratio + 1)
    train_idx = np.sort(np.concatenate([pos[:n_pos], neg[: n_train - n_pos]]))
    held_idx = np.setdiff1d(np.arange(len(dataset)), train_idx)
    return dataset.subset(train_idx, "train"), dataset.subset(held_idx, "heldout")


def _filler_words(prefix: str, n: int) -> list:
    return [f"{prefix}{i:06d}" for i in range(n)]


def _vector_table(lexicon: list, n_rows: int, seed: int):
    """Lexicon words with close synonym variants, padded with unrelated
    words; six decimals per component, as in published word2vec files."""
    base = lexfuse.generate_synthetic_vectors(lexicon, dim=DIM, seed=seed)
    rng = np.random.default_rng([seed, 1])
    extra = max(0, n_rows - len(base))
    words = base.words + _filler_words("vec", extra)
    matrix = np.vstack([base.matrix, rng.normal(size=(extra, DIM))]).round(6)
    return lexfuse.EmbeddingTable(words, matrix)


def _catalog_table(n_rows: int, n_keywords: int, seed: int):
    """Random table with the cases the catalog must get right: exact ties
    in a keyword's top ``H_MAX``, zero-norm rows, and a zero-norm keyword
    whose synonyms are decided by word order alone."""
    rng = np.random.default_rng([seed, 2])
    words = _filler_words("cat", n_rows)
    matrix = rng.normal(size=(n_rows, DIM))
    keyword_rows = rng.choice(n_rows, size=n_keywords, replace=False)
    free = np.setdiff1d(np.arange(n_rows), keyword_rows)
    picks = rng.choice(free, size=3 * n_keywords + 8, replace=False)
    for k, row in enumerate(keyword_rows[1:]):
        twin = matrix[row] + rng.normal(scale=0.05, size=DIM)
        for j in picks[3 * k : 3 * k + 3]:  # three tied near neighbours
            matrix[j] = twin
    matrix[picks[-8:]] = 0.0
    matrix[keyword_rows[0]] = 0.0
    return lexfuse.EmbeddingTable(words, matrix), [words[i] for i in keyword_rows]


def _checkpoint_model(wl: Workload, seed: int, train_set, lexicon: list, vectors):
    """A desk-scale model with a ``wl.ckpt_vocab`` vocabulary."""
    tokens = sorted({t for text in train_set.texts() for t in lexfuse.preprocess(text)})
    vocab = lexfuse.Vocab(tokens + _filler_words("voc", wl.ckpt_vocab - len(tokens) - 4))
    syn_vocab = [w for w in vectors.words if w not in lexicon][: 2 * len(lexicon)]
    keyword_syn_ids = {kw: [2 * i, 2 * i + 1] for i, kw in enumerate(lexicon)}
    enc_cfg = lexfuse.EncoderConfig.desk_scale(dropout_rate=0.0)
    params = pipeline.ModelParams.initialize(
        enc_cfg, vocab_size=len(vocab), max_len=MAX_LEN, d_w=DIM, n_syn=len(syn_vocab), seed=seed
    )
    return pipeline.TrainedModel(
        params=params,
        vocab=vocab,
        enc_cfg=enc_cfg,
        train_cfg=lexfuse.TrainConfig(seed=seed, **TRAIN_CFG),
        lexicon_words=sorted(lexicon),
        syn_vocab=syn_vocab,
        keyword_syn_ids=keyword_syn_ids,
        d_w=DIM,
    )


def setup(wl: Workload, seed: int, work_dir: Path) -> Fixtures:
    """Generate every input from ``seed`` and write the fixture files."""
    n = wl.n_train + wl.n_heldout
    n_pos = n // (wl.class_ratio + 1)
    spec = lexfuse.SynthSpec(
        n_pos=n_pos, n_neg=n - n_pos, keyword_signal=KEYWORD_SIGNAL, seed=seed,
        min_fillers=wl.min_fillers, max_fillers=wl.max_fillers,
    )
    dataset, lexicon = lexfuse.generate_synthetic(spec)
    train_set, heldout = _split(dataset, wl.n_train, wl.class_ratio)
    vectors = _vector_table(lexicon, wl.n_vectors, seed)
    vec_path = work_dir / "vectors.txt"
    vectors.save(vec_path)
    catalog_table, catalog_keywords = _catalog_table(wl.n_catalog_rows, wl.n_catalog_keywords, seed)
    ckpt_model = _checkpoint_model(wl, seed, train_set, lexicon, vectors)
    ckpt_path = work_dir / "model.ckpt"
    pipeline.save_checkpoint(ckpt_model, ckpt_path)
    return Fixtures(
        train_set, heldout, lexfuse.build_trie(lexicon), lexfuse.PreprocessRules(),
        vectors, vec_path, catalog_table, catalog_keywords, ckpt_model, ckpt_path,
    )


# -- timed phases -----------------------------------------------------------


@dataclass
class Outcome:
    samples: dict = field(default_factory=dict)  # metric -> list of samples
    info: dict = field(default_factory=dict)  # untimed figures for the report
    attempted: int = 0
    failures: list = field(default_factory=list)
    busy_s: float = 0.0  # wall time of the timed phases
    rounds: int = 0  # warm rounds run

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def check(self, failures: list) -> None:
        """One checked operation; any failure message fails it."""
        self.attempted += 1
        if failures:
            self.failures.append(failures[0])


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _model_tensors(model) -> dict:
    return {name: t.data for name, t in model.params.named_tensors()}


def _auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Probability that a random positive outscores a random negative."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def _phase_cold(fx: Fixtures, out: Outcome) -> tuple:
    """One round of vector parse, catalog build and checkpoint load."""
    table, dt = _timed(embedding.load_embedding_table, fx.vec_path)
    out.add("vectors_load_s", dt)
    catalog, dt = _timed(embedding.build_synonym_catalog, fx.catalog_keywords, fx.catalog_table, H_MAX)
    out.add("catalog_s", dt)
    loaded, dt = _timed(pipeline.load_checkpoint, fx.ckpt_path)
    out.add("ckpt_load_s", dt)
    out.attempted += 3
    return table, catalog, loaded


def _check_cold(fx: Fixtures, cold: tuple, out: Outcome) -> None:
    """Checks of the results of a cold round."""
    table, catalog, loaded = cold
    same = table.words == fx.vectors.words and np.array_equal(table.matrix, fx.vectors.matrix)
    out.check([] if same else ["vectors: parsed table differs from the table written"])

    for kw in fx.catalog_keywords:
        out.check(check_catalog(catalog, [kw], fx.catalog_table.words, fx.catalog_table.matrix, H_MAX))

    want = fx.ckpt_model
    failures = check_tensors_equal(_model_tensors(want), _model_tensors(loaded), "checkpoint")
    for attr in ("enc_cfg", "train_cfg", "lexicon_words", "syn_vocab", "keyword_syn_ids", "d_w"):
        if getattr(loaded, attr) != getattr(want, attr):
            failures.append(f"checkpoint: {attr} differs after the round trip")
    if loaded.vocab.id_to_word != want.vocab.id_to_word:
        failures.append("checkpoint: vocabulary differs after the round trip")
    out.check(failures)
    for text in fx.heldout.texts()[:8]:
        a, b = want.predict(text, fx.rules), loaded.predict(text, fx.rules)
        out.check([] if a == b else [f"checkpoint: prediction differs for {text!r}"])


def _phase_train(fx: Fixtures, seed: int, table, out: Outcome):
    cfg = lexfuse.TrainConfig(seed=seed, **TRAIN_CFG)
    result, dt = _timed(
        lambda: pipeline.train(
            cfg, lexfuse.EncoderConfig.desk_scale(), fx.train_set,
            trie=fx.trie, table=table, rules=fx.rules,
        )
    )
    out.add("train_ex_per_s", len(fx.train_set) * cfg.epochs / dt)
    out.attempted += 1
    return result.model


def _phase_evaluate(fx: Fixtures, model, out: Outcome):
    """One timed ``harness.evaluate`` over the held-out posts."""
    metrics, dt = _timed(harness.evaluate, model, fx.heldout, fx.rules)
    out.add("eval_ex_per_s", len(fx.heldout) / dt)
    out.attempted += 1
    out.info["dev_f1"] = metrics.f1
    return metrics


def _batched_sample(fx: Fixtures, model) -> np.ndarray:
    """Class probabilities of the first EVAL_BATCH held-out posts from one
    batched forward pass, as ``evaluate`` computes them."""
    sample = fx.heldout.subset(range(min(EVAL_BATCH, len(fx.heldout))))
    inputs, contexts, _ = pipeline.prepare_dataset(model, sample, fx.rules)
    return pipeline.forward(inputs, contexts, model.params, model.enc_cfg, model.train_cfg, "eval")


def _phase_predict(fx: Fixtures, model, batch_probs, first, start: int, calls: int,
                   out: Outcome) -> int:
    """Closed loop of ``calls`` calls over the held-out texts from call
    ``start``; adds every latency, and the block's 95th percentile.  The
    first call on each text stores its probabilities in ``first``.
    Returns the next call index."""
    texts = fx.heldout.texts()
    block_ms = []
    for i in range(start, start + calls):
        k = i % len(texts)
        t0 = time.perf_counter()
        try:
            result = model.predict(texts[k], fx.rules)
        except Exception as e:  # a failing call is a failed operation, not the end of the run
            out.attempted += 1
            out.failures.append(f"predict: {type(e).__name__}: {e}")
            continue
        block_ms.append((time.perf_counter() - t0) * 1e3)
        probs = result["probabilities"]
        if i < len(texts):
            first[k] = probs
        failures = check_probabilities(probs, f"predict {k}")
        if not failures and k < len(batch_probs):
            p = batch_probs[k]
            if result["label"] != int(p.argmax()) and abs(p[1] - p[0]) > TIE_MARGIN:
                failures.append(f"predict {k}: label {result['label']}, batched {int(p.argmax())}")
        out.check(failures)
    out.samples.setdefault("predict_ms", []).extend(block_ms)
    if len(block_ms) >= 2:
        out.add("predict_p95_ms", statistics.quantiles(block_ms, n=20, method="inclusive")[18])
    return start + calls


def _quality(fx: Fixtures, metrics, single_probs, out: Outcome) -> None:
    """Held-out AUC of the single predictions, and evaluate's precision,
    recall and F1 recomputed from them (skipped if a text is a near tie,
    where batched and single labels may differ)."""
    labels = fx.heldout.labels()
    out.add("dev_auc", _auc(labels, single_probs[:, 1]))
    if not (np.abs(single_probs[:, 1] - single_probs[:, 0]) <= TIE_MARGIN).any():
        out.check(check_prf(labels, single_probs.argmax(axis=-1), metrics))


def run_phases(
    fx: Fixtures, wl: Workload, seed: int, seconds: float, tracer=None, rounds: int | None = None
) -> Outcome:
    """Run every timed phase: a cold round, ``train()``, then warm rounds
    of one evaluate, a block of predict calls and a cold round.  Warm
    rounds go on until ``seconds`` have passed since the first phase
    began, at least MIN_ROUNDS of them, or exactly ``rounds`` when given.

    The speed of a shared machine drifts over seconds, and single-call
    latency switches between a fast and a slow state.  Samples taken in
    small pieces across the whole window after ``train()`` give medians
    that average both out, as the single long ``train()`` call does.
    """
    out = Outcome()

    def span(name):
        return tracer.span(f"phase.{name}") if tracer is not None else nullcontext()

    t_start = time.perf_counter()
    deadline = t_start + seconds if rounds is None else 0.0
    phase_s: dict = {}

    def timed_phase(name, fn, *args):
        t0 = time.perf_counter()
        with span(name):
            result = fn(*args)
        phase_s[name] = phase_s.get(name, 0.0) + time.perf_counter() - t0
        return result

    cold = timed_phase("cold", _phase_cold, fx, out)
    model = timed_phase("train", _phase_train, fx, seed, cold[0], out)
    batch_probs = _batched_sample(fx, model)
    single = np.full((len(fx.heldout), 2), np.nan)
    block = -(-len(fx.heldout) // MIN_ROUNDS)  # MIN_ROUNDS blocks predict every held-out post
    n = done = 0
    while done < (MIN_ROUNDS if rounds is None else rounds) or time.perf_counter() < deadline:
        metrics = timed_phase("evaluate", _phase_evaluate, fx, model, out)
        n = timed_phase("predict", _phase_predict, fx, model, batch_probs, single, n, block, out)
        cold = timed_phase("cold", _phase_cold, fx, out)
        done += 1
    out.rounds = done
    out.busy_s = time.perf_counter() - t_start
    _check_cold(fx, cold, out)
    _quality(fx, metrics, single, out)
    out.info["phase_s"] = phase_s
    return out


def gemm_ceiling(reps: int = 30) -> float:
    """GFLOP/s of a bare float32 GEMM at the encoder's FFN shape
    (B=64, T=48, d=128, d_ff=512), median over ``reps``."""
    cfg = lexfuse.EncoderConfig.desk_scale()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((EVAL_BATCH * MAX_LEN, cfg.d_model), dtype=np.float32)
    b = rng.standard_normal((cfg.d_model, cfg.d_ff), dtype=np.float32)
    flops = 2.0 * a.shape[0] * a.shape[1] * b.shape[1]
    a @ b  # warm up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return flops / statistics.median(times) / 1e9
