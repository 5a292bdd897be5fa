"""Minimal reverse-mode automatic differentiation over numpy arrays.

The engine records a tape of operations as :class:`Tensor` nodes and
computes exact gradients of a scalar loss by walking the tape in reverse
topological order.  It implements only the operations the model needs
(dense linear algebra, a handful of pointwise nonlinearities, softmax,
embedding gather/scatter) and favours clarity over generality: every
backward rule is a few lines of numpy that can be checked against
central finite differences.

Three ops are fused for speed and memory, because the encoder runs them
in every layer: :func:`linear` applies a weight to the last axis as one
2-D GEMM over all rows; :func:`layer_norm` is one tape node with the
closed-form backward of Ba et al., *Layer Normalization*
(arXiv:1607.06450), instead of the nine nodes of its composed form; and
:func:`attention` is one tape node for multi-head scaled dot-product
attention (head split, scores, masking, softmax, weighted sum and head
merge) instead of fourteen, keeping only its softmax weights for backward.
The forwards of the last two work in place in the buffers they allocate
(layer norm in two arrays the shape of its input, not five; attention in
the one score array its ``q kᵀ`` GEMM returns, not four), so each batch
asks the allocator for fewer temporaries, with the same float ops in the
same order.

:meth:`Tensor.backward` consumes the graph as it walks it: once a node's
rule has run, the node drops its gradient, its rule (and with it every
array the rule saved) and its parents, so each forward activation is
freed as soon as nothing left on the walk needs it.  Only leaves keep
``.grad``, and a second ``backward()`` through a consumed graph raises
``RuntimeError``.

One helper thread (a ``ThreadPoolExecutor(1)``, started by the first call
that needs it, so importing the package starts none) lets two pieces of
work run at once through :func:`_pair`: the caller runs the first, the
helper the second, in a copy of the caller's context, so ``np.errstate``
covers both and the helper's exception re-raises in the caller.  It has
two users.  :func:`gelu` runs its forward and its backward each as one
in-place chain of numpy ufuncs into one preallocated buffer, bitwise
equal to the composed expressions, and arrays of ``_SPLIT_SIZE`` = 2**17
elements or more run the chain's two halves as a pair; smaller ones,
which include every ``predict`` call and short-text training batches,
stay serial, because there the hand-off cost more than the split saved.
``pipeline.predict_labels`` runs consecutive evaluation batches, cut by
a budget of padded tokens, as a pair.  Both sides of a pair are marked
by a context variable, and a pair started inside a pair (a GELU inside a
paired batch) runs both parts serially on its own thread: the helper
never waits for work queued behind itself.  A child created by
``fork`` starts its own helper on demand.

Tape recording is switched per thread: :func:`no_grad` in one thread
leaves every other thread recording.

Gradients have the same dtype as the forward data, so the same graph
runs in float32 for training and float64 for gradient verification.
"""
from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import partial

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "log",
    "gelu",
    "linear",
    "layer_norm",
    "attention",
    "softmax",
    "softmax_forward",
    "softmax_backward",
    "where_mask",
    "clip_min",
    "embedding",
    "gather2",
    "scatter_add2",
]


class _GradMode(threading.local):
    """Whether ops record the tape; each thread has its own switch, on by default."""

    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Disable tape recording in this thread inside the block (evaluation fast path)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _records(parents) -> bool:
    """Whether an op over ``parents`` records a tape edge."""
    return _grad_mode.enabled and any(p.requires_grad for p in parents)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _consumed(g):
    """The rule of a node whose graph an earlier ``backward()`` consumed."""
    raise RuntimeError("backward() through a graph that an earlier backward() consumed; run the forward pass again")


class Tensor:
    """A node on the tape: a numpy array plus an optional backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- construction -------------------------------------------------

    @staticmethod
    def _op(data, parents, backward):
        """Create a result node, recording the tape edge only if needed."""
        out = Tensor(data)
        if _records(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    # -- basic properties ----------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    # -- backward ------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape, consuming it.

        Nodes run in reverse topological order.  Once a node's rule has
        run, the node drops its gradient, its rule with the arrays that
        rule saved, and its parents, so an activation is freed as soon as
        every node that reads it has run.  Only leaves (tensors without a
        rule) keep ``.grad``.  A second ``backward()`` through a consumed
        graph raises ``RuntimeError``; run the forward pass again instead.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._parents = ()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            # Python scalars stay weak so float32 data is not promoted.
            def bwd_c(g):
                self._accumulate(g)

            return Tensor._op(self.data + other, (self,), bwd_c)
        other = as_tensor(other)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._op(self.data + other.data, (self, other), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            def bwd_c(g):
                self._accumulate(g * other)

            return Tensor._op(self.data * other, (self,), bwd_c)
        other = as_tensor(other)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._op(self.data * other.data, (self, other), bwd)

    __rmul__ = __mul__

    def __rsub__(self, other):
        """``other - self`` for a Python scalar ``other``."""

        def bwd(g):
            self._accumulate(-g)

        return Tensor._op(other - self.data, (self,), bwd)

    def __neg__(self):
        def bwd(g):
            self._accumulate(-g)

        return Tensor._op(-self.data, (self,), bwd)

    def __pow__(self, exponent):
        """Elementwise power with a constant scalar exponent."""
        exponent = float(exponent)

        def bwd(g):
            if exponent == 0.0:
                # constant 1; avoid 0 * x**-1 producing NaN at x = 0
                self._accumulate(np.zeros_like(self.data))
                return
            self._accumulate(g * exponent * self.data ** (exponent - 1.0))

        return Tensor._op(self.data**exponent, (self,), bwd)

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError("matmul operands must have ndim >= 2")

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g @ b.swapaxes(-1, -2), self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(a.swapaxes(-1, -2) @ g, other.shape))

        return Tensor._op(a @ b, (self, other), bwd)

    # -- reductions and shape ops ----------------------------------------

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            n = int(np.prod([self.shape[a] for a in np.atleast_1d(axis)]))

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape) / n)

        return Tensor._op(self.data.mean(axis=axis, keepdims=keepdims), (self,), bwd)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def bwd(g):
            self._accumulate(g.reshape(self.shape))

        return Tensor._op(self.data.reshape(shape), (self,), bwd)

    def swapaxes(self, a: int, b: int):
        def bwd(g):
            self._accumulate(g.swapaxes(a, b))

        return Tensor._op(self.data.swapaxes(a, b), (self,), bwd)

    @property
    def T(self):
        if self.ndim != 2:
            raise ValueError("T is defined for 2-D tensors only")
        return self.swapaxes(0, 1)


def as_tensor(value) -> Tensor:
    """Wrap arrays and scalars as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# -- pointwise functions ----------------------------------------------


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        x._accumulate(g / x.data)

    return Tensor._op(np.log(x.data), (x,), bwd)


# Python floats, not numpy scalars: they must not promote float32 data.
_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Elements from which gelu splits its chains over two threads.  On a 2-core
# VM a hand-off costs about 30 µs; a split at 2**15 made the backward of a
# short_posts training batch (about 61k elements) slower (51 -> 76 µs) and
# that workload's training 7.8% slower, while from 2**17 on the split
# forward is about 2x faster.
_SPLIT_SIZE = 2**17

_helper_pool = None
_helper_lock = threading.Lock()
_in_pair = contextvars.ContextVar("lexfuse_in_pair", default=False)


def _helper() -> ThreadPoolExecutor:
    """The one helper thread, started by the first paired call."""
    global _helper_pool
    with _helper_lock:
        if _helper_pool is None:
            _helper_pool = ThreadPoolExecutor(1, thread_name_prefix="lexfuse-gelu")
        return _helper_pool


def _forget_helper() -> None:
    """In a forked child the helper thread is gone: start a new one on demand."""
    global _helper_pool, _helper_lock
    _helper_pool = None
    _helper_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _pair(first, second) -> tuple:
    """Run ``first()`` here and ``second()`` on the helper thread at once.

    Returns both results.  The helper runs ``second`` in a copy of the
    caller's context, so numpy's ``errstate`` holds there too (numpy >= 2
    keeps it in a context variable).  Both sides run marked as inside a
    pair, and a pair started inside a pair runs ``first`` and then
    ``second`` on the current thread: a GELU inside a paired batch must
    not queue its half behind the helper's own batch, which would wait
    for itself.  The caller always waits for the helper; if ``first``
    raised, that exception propagates, otherwise the helper's re-raises
    here.
    """
    if _in_pair.get():
        return first(), second()
    token = _in_pair.set(True)
    try:
        job = _helper().submit(contextvars.copy_context().run, second)
        try:
            done = first()
        finally:
            wait((job,))
        return done, job.result()
    finally:
        _in_pair.reset(token)


def _in_halves(chain, *arrays) -> None:
    """Run the elementwise ``chain(*arrays)``, split in two at ``_SPLIT_SIZE``.

    ``arrays`` share one shape, and the chain writes into its last
    argument(s).  A split run flattens every array (the outputs are fresh
    C-contiguous buffers, so their halves are views) and runs the two
    halves as a :func:`_pair`.  The size test comes first, so a small call
    reads no context variable and starts no thread.
    """
    if arrays[0].size < _SPLIT_SIZE:
        chain(*arrays)
        return
    flat = [a.reshape(-1) for a in arrays]
    mid = flat[0].size // 2
    _pair(partial(chain, *(a[:mid] for a in flat)), partial(chain, *(a[mid:] for a in flat)))


def _gelu_forward(x, cdf, out) -> None:
    # 0.5 * (1 + erf(x / sqrt 2)) into cdf, then x * cdf into out (out may be cdf)
    np.divide(x, _SQRT2, out=cdf)
    erf(cdf, out=cdf)
    np.add(cdf, 1.0, out=cdf)
    np.multiply(cdf, 0.5, out=cdf)
    np.multiply(x, cdf, out=out)


def _gelu_backward(x, cdf, g, gx) -> None:
    # g * (cdf + x * pdf(x)) into gx, with pdf(x) = exp(-x*x/2) / sqrt(2 pi)
    np.multiply(x, -0.5, out=gx)
    np.multiply(gx, x, out=gx)
    np.exp(gx, out=gx)
    np.multiply(gx, _INV_SQRT_2PI, out=gx)
    np.multiply(gx, x, out=gx)
    np.add(gx, cdf, out=gx)
    np.multiply(gx, g, out=gx)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit, x * Phi(x).

    The forward computes ``x/√2 → erf → +1 → ×0.5`` in place in one ``cdf``
    buffer, and then ``x · cdf`` into a new array when the tape records, or
    into ``cdf`` itself when it does not (``no_grad``).  The backward runs
    ``(x·−0.5)·x → exp → ·1/√(2π) → ·x → +cdf → ·g`` in place in one buffer.
    Both chains do the float ops of ``0.5 * (1 + erf(x/√2))`` and
    ``g * (cdf + x * exp(-0.5*x*x) / √(2π))`` in the same order, up to
    commuting an operand pair, so values and gradients are bitwise equal to
    that composed form.

    At ``_SPLIT_SIZE`` (2**17) elements or more, each chain runs over the
    two halves of the flattened array as a :func:`_pair`, each half
    writing into its part of the preallocated buffers; inside a pair (a
    paired evaluation batch) the halves run one after the other.  Smaller
    calls run serially and start no thread: for a single ``predict`` (at
    most 45 x 512 elements) the hand-off to the helper costs more than
    the split saves, and for a short-text training batch (about 61k
    elements) a split backward measured slower than a serial one.
    """
    x = as_tensor(x)
    records = _records((x,))
    cdf = np.empty(x.shape, np.result_type(x.data, _SQRT2))
    out = np.empty_like(cdf) if records else cdf
    _in_halves(_gelu_forward, x.data, cdf, out)

    def bwd(g):
        gx = np.empty_like(cdf)
        _in_halves(_gelu_backward, x.data, cdf, g, gx)
        x._accumulate(gx)

    return Tensor._op(out, (x,), bwd)


# -- fused layers ------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, as one 2-D GEMM.

    ``x`` is (..., d), ``w`` (d, f) and ``b`` (f,); every leading axis of
    ``x`` is folded into the GEMM's rows, so the weight gradient is one
    GEMM too.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    out += b.data

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x2.T @ g2)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0))

    return Tensor._op(out.reshape(*x.shape[:-1], w.shape[-1]), (x, w, b), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale by ``gain`` and shift by ``bias``.

    With x̂ = (x − mean) · rstd and ĝ = g · gain, the backward is
    ``rstd · (ĝ − mean(ĝ) − x̂ · mean(ĝ · x̂))`` for ``x``, and the sums of
    ``g · x̂`` and ``g`` over all rows for ``gain`` and ``bias``.  The
    forward allocates two arrays of the shape of ``x``: ``x − mean``, which
    is scaled in place into x̂, and the squares, whose buffer then takes
    ``x̂ · gain + bias`` as the output.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    out = np.multiply(centered, centered)
    rstd = (out.mean(axis=-1, keepdims=True) + eps) ** -0.5
    xhat = np.multiply(centered, rstd, out=centered)

    def bwd(g):
        if x.requires_grad:
            gh = g * gain.data
            inner = gh.mean(axis=-1, keepdims=True) + xhat * (gh * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(rstd * (gh - inner))
        d = x.shape[-1]
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))

    np.multiply(xhat, gain.data, out=out)
    out += bias.data
    return Tensor._op(out, (x, gain, bias), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray, n_heads: int, scale: float) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    ``q`` is (..., Tq, d) and ``k``, ``v`` are (..., T, d), already
    projected; ``key_mask`` (..., T) is true at the keys a query may
    attend to, and each of its rows needs at least one.  The node splits
    ``d`` into ``n_heads`` heads, takes the scores ``q kᵀ · scale``, sets
    masked scores to -inf (their weights are exact zeros), applies
    :func:`softmax_forward` over keys, weights the values, and merges the
    heads back into (..., Tq, d).  Scaling, masking and the softmax run in
    place in the buffer the ``q kᵀ`` GEMM returns, so the forward allocates
    one (..., H, Tq, T) array, not four.  It keeps only the softmax weights
    ``w`` for backward, where the score gradient is :func:`softmax_backward`
    of ``w`` and the gradient of ``w``.  Every array is computed by the
    same numpy ops in the same order as the composed tape nodes, so values
    and gradients are bitwise equal to them.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    scale = float(scale)
    *batch, tq, d = q.shape
    dh = d // n_heads

    def split_heads(a: np.ndarray) -> np.ndarray:
        # (..., rows, d) -> (..., H, rows, dh), a view
        return a.reshape(*batch, a.shape[-2], n_heads, dh).swapaxes(-2, -3)

    qh, kh, vh = split_heads(q.data), split_heads(k.data), split_heads(v.data)
    keep = np.asarray(key_mask, dtype=bool).reshape(*batch, 1, 1, k.shape[-2])
    w = qh @ kh.swapaxes(-1, -2)
    w *= scale
    np.copyto(w, -np.inf, where=~keep)
    _softmax_into(w, w)

    def bwd(g):
        gc = g.reshape(*batch, tq, n_heads, dh).swapaxes(-2, -3)
        if v.requires_grad:
            v._accumulate((w.swapaxes(-1, -2) @ gc).swapaxes(-2, -3).reshape(v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        gw = gc @ vh.swapaxes(-1, -2)
        gs = np.where(keep, softmax_backward(w, gw), 0.0) * scale
        if q.requires_grad:
            q._accumulate((gs @ kh).swapaxes(-2, -3).reshape(q.shape))
        if k.requires_grad:
            k._accumulate((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2).swapaxes(-2, -3).reshape(k.shape))

    ctx = (w @ vh).swapaxes(-2, -3).reshape(q.shape)
    return Tensor._op(ctx, (q, k, v), bwd)


def softmax_forward(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax of an array along ``axis``.

    ``exp(x − max)`` over its sum, computed in place in one new buffer.
    Entries equal to -inf produce exact zeros; a slice must contain at
    least one finite entry.  This is the library's one softmax:
    :func:`softmax` and the class probabilities of ``pipeline.forward``
    call it, and :func:`attention` runs its core in place on the scores.
    """
    return _softmax_into(x, np.empty_like(x), axis)


def _softmax_into(x: np.ndarray, out: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`softmax_forward` of ``x`` written into ``out``, which may be ``x``."""
    np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax_backward(w: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient of a softmax input, ``w · (g − Σ g·w)``, from the softmax
    output ``w`` and the gradient ``g`` of that output."""
    return w * (g - (g * w).sum(axis=axis, keepdims=True))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """:func:`softmax_forward` as a tape node, with :func:`softmax_backward`."""
    x = as_tensor(x)
    w = softmax_forward(x.data, axis)

    def bwd(g):
        x._accumulate(softmax_backward(w, g, axis))

    return Tensor._op(w, (x,), bwd)


def where_mask(x: Tensor, mask: np.ndarray, fill: float) -> Tensor:
    """Keep ``x`` where ``mask`` is true, use the constant ``fill`` elsewhere."""
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)

    def bwd(g):
        x._accumulate(_unbroadcast(np.where(mask, g, 0.0), x.shape))

    return Tensor._op(np.where(mask, x.data, np.asarray(fill, dtype=x.dtype)), (x,), bwd)


def clip_min(x: Tensor, lo: float) -> Tensor:
    """Elementwise max(x, lo); gradient is zero on the clamped branch."""
    x = as_tensor(x)

    def bwd(g):
        x._accumulate(g * (x.data > lo))

    return Tensor._op(np.maximum(x.data, lo), (x,), bwd)


# -- gather / scatter --------------------------------------------------


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; the backward pass scatter-adds into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids)

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        table._accumulate(gt)

    return Tensor._op(table.data[ids], (table,), bwd)


def gather2(x: Tensor, idx0: np.ndarray, idx1: np.ndarray) -> Tensor:
    """Pick entries (or rows) ``x[idx0[i], idx1[i]]`` for each i."""
    x = as_tensor(x)
    idx0 = np.asarray(idx0)
    idx1 = np.asarray(idx1)

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (idx0, idx1), g)
        x._accumulate(gx)

    return Tensor._op(x.data[idx0, idx1], (x,), bwd)


def scatter_add2(x: Tensor, idx0: np.ndarray, idx1: np.ndarray, rows: Tensor) -> Tensor:
    """Return a copy of ``x`` with ``rows[i]`` added at ``[idx0[i], idx1[i]]``."""
    x = as_tensor(x)
    rows = as_tensor(rows)
    idx0 = np.asarray(idx0)
    idx1 = np.asarray(idx1)
    out_data = x.data.copy()
    np.add.at(out_data, (idx0, idx1), rows.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g)
        if rows.requires_grad:
            rows._accumulate(g[idx0, idx1])

    return Tensor._op(out_data, (x, rows), bwd)
