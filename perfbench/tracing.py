"""In-memory span tracing of lexfuse layers, installed by patching.

A traced run replaces selected public functions with wrappers that
record a span (name, start, end, parent) per call.  Each wrapper is
installed at the attribute its caller resolves at call time: ``pipeline``
binds ``preprocess``, ``batch_embed``, ``run_encoder`` and friends at
import, so those are patched as ``lexfuse.pipeline.<name>``, while the
encoder's sub-layers are looked up in ``lexfuse.encoder`` and GELU in
``lexfuse.autodiff``.  :func:`traced` restores every attribute on exit,
so an untraced measurement after it runs the original code.

Spans stay in memory until the run ends; self time is a span's duration
minus the part its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Span",
    "Tracer",
    "Patch",
    "LAYER_PATCHES",
    "traced",
    "layer_flops",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    """Collects spans and named counters for one traced run."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording one span per call; ``counter(tracer, args,
        kwargs, result)`` adds counts at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    def self_times(self, within: str | None = None) -> dict:
        """name -> (self seconds, calls); with ``within``, only spans that
        have an ancestor of that name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict = {}
        for i, s in enumerate(self.spans):
            if within is not None and not self._has_ancestor(i, within):
                continue
            self_s, calls = out.get(s.name, (0.0, 0))
            out[s.name] = (self_s + (s.end - s.start) - child_time[i], calls + 1)
        return out

    def inclusive_time(self, name: str) -> float:
        """Summed duration of the outermost spans called ``name``."""
        return sum(
            s.end - s.start
            for i, s in enumerate(self.spans)
            if s.name == name and not self._has_ancestor(i, name)
        )

    def _has_ancestor(self, idx: int, name: str) -> bool:
        p = self.spans[idx].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


# -- counters computed at layer boundaries --------------------------------


def layer_flops(batch: int, t: int, lengths, d: int, d_ff: int) -> dict:
    """Analytic forward FLOPs of one encoder layer, computed and useful.

    Projections cost ``8·B·T·d²`` (Q, K, V, O), attention ``4·B·T²·d``
    (scores and weighted values) and the FFN ``4·B·T·d·d_ff``.  Computed
    FLOPs use the padded length T for every row, useful FLOPs each row's
    real (unmasked) length.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    return {
        "proj.computed": 8.0 * batch * t * d * d,
        "attn.computed": 4.0 * batch * t * t * d,
        "ffn.computed": 4.0 * batch * t * d * d_ff,
        "proj.useful": 8.0 * lengths.sum() * d * d,
        "attn.useful": 4.0 * (lengths * lengths).sum() * d,
        "ffn.useful": 4.0 * lengths.sum() * d * d_ff,
    }


def _count_encoder_layer(tracer: Tracer, args, kwargs, result) -> None:
    x, mask, _, cfg = args[:4]
    shape = x.shape
    mask = np.asarray(mask)
    batch, t = (1, shape[0]) if len(shape) == 2 else (shape[0], shape[1])
    lengths = mask.reshape(batch, t).sum(axis=-1)
    for key, flops in layer_flops(batch, t, lengths, cfg.d_model, cfg.d_ff).items():
        tracer.count(f"encoder.{key}_flop", flops)


def _count_collate(tracer: Tracer, args, kwargs, result) -> None:
    mask = result.attention_mask
    tracer.count("pipeline.collate.pad_slots", float((mask == 0).sum()))
    tracer.count("pipeline.collate.slots", float(mask.size))


def _count_fusion(tracer: Tracer, args, kwargs, result) -> None:
    contexts = args[2] if len(args) > 2 else kwargs["contexts"]
    if not isinstance(contexts, (list, tuple)):
        contexts = [contexts]
    fused = sum(
        1 for ctx in contexts if ctx is not None for ids in ctx.entries.values() if len(ids)
    )
    tracer.count("fusion.deep_fusion.fused_positions", float(fused))


@dataclass(frozen=True)
class Patch:
    """One wrapped attribute: ``owner`` is a dotted module path, optionally
    followed by ``:Class`` for a method or classmethod."""

    owner: str
    attr: str
    name: str
    counter: object = None


LAYER_PATCHES = (
    Patch("lexfuse.pipeline", "preprocess", "preprocessing.preprocess"),
    Patch("lexfuse.pipeline", "extract_keywords", "lexicon.extract_keywords"),
    Patch("lexfuse.pipeline", "compose_input", "embedding.compose_input"),
    Patch("lexfuse.pipeline:TrainedModel", "fusion_context", "pipeline.TrainedModel.fusion_context"),
    Patch("lexfuse.pipeline", "collate", "pipeline.collate", _count_collate),
    Patch("lexfuse.pipeline", "batch_embed", "embedding.batch_embed"),
    Patch("lexfuse.pipeline", "run_encoder", "encoder.run_encoder"),
    Patch("lexfuse.encoder", "encoder_layer", "encoder.encoder_layer", _count_encoder_layer),
    Patch("lexfuse.encoder", "multi_head_attention", "encoder.multi_head_attention"),
    Patch("lexfuse.encoder", "feed_forward", "encoder.feed_forward"),
    Patch("lexfuse.encoder", "layer_norm", "encoder.layer_norm"),
    Patch("lexfuse.autodiff", "gelu", "autodiff.gelu"),
    Patch("lexfuse.pipeline", "deep_fusion", "fusion.deep_fusion", _count_fusion),
    Patch("lexfuse.pipeline", "head_logits", "classifier.head_logits"),
    Patch("lexfuse.autodiff:Tensor", "backward", "autodiff.Tensor.backward"),
    Patch("lexfuse.pipeline", "adam_step", "pipeline.adam_step"),
    Patch("lexfuse.embedding", "load_embedding_table", "embedding.load_embedding_table"),
    Patch("lexfuse.embedding", "nearest_synonyms", "embedding.nearest_synonyms"),
    Patch("lexfuse.pipeline:ModelParams", "initialize", "pipeline.ModelParams.initialize"),
    Patch("lexfuse.pipeline", "load_checkpoint", "pipeline.load_checkpoint"),
)


def _resolve_owner(owner: str):
    module_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls_name) if cls_name else obj


@contextmanager
def traced(tracer: Tracer):
    """Install a span wrapper for every patch; restore all on exit.

    A patch whose target no longer exists is skipped with a warning on
    standard error, so its metrics read zero calls.
    """
    saved: list = []
    try:
        for p in LAYER_PATCHES:
            try:
                owner = _resolve_owner(p.owner)
                raw = vars(owner)[p.attr]
            except (ImportError, AttributeError, KeyError):
                print(f"perfbench: cannot trace {p.owner}.{p.attr}: not found", file=sys.stderr)
                continue
            saved.append((owner, p.attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(p.name, raw.__func__, p.counter))
            else:
                wrapped = tracer.wrap(p.name, raw, p.counter)
            setattr(owner, p.attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
