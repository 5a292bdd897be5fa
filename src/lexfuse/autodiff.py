"""Minimal reverse-mode automatic differentiation over numpy arrays.

The engine records a tape of operations as :class:`Tensor` nodes and
computes exact gradients of a scalar loss by walking the tape in reverse
topological order.  It implements only the operations the model needs
(dense linear algebra, a handful of pointwise nonlinearities, softmax,
embedding and row gather/scatter) and favours clarity over generality: every
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
same order.  The encoder calls each op several times per layer on arrays
of a few kilobytes when it scores one post, so the Python around each
numpy call is kept short too: layer norm takes its row means with
``np.add.reduce`` instead of ``ndarray.mean``, attention skips its mask
fill when no key is masked, and the tape check is a plain loop.

:meth:`Tensor.backward` consumes the graph as it walks it: once a node's
rule has run, the node drops its gradient, its rule (and with it every
array the rule saved) and its parents, so each forward activation is
freed as soon as nothing left on the walk needs it.  Only leaves keep
``.grad``, and a second ``backward()`` through a consumed graph raises
``RuntimeError``.

Tape recording is switched per thread, because evaluation runs
``forward`` under :func:`no_grad` on two threads at once
(``pipeline.predict_labels``).  With one process-wide switch, the first
thread to leave its block would turn recording back on while the other
still evaluates, and a thread that trains would stop recording while
another evaluates.

Gradients have the same dtype as the forward data, so the same graph
runs in float32 for training and float64 for gradient verification.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager

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
    "take_rows",
    "put_rows",
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
    if _grad_mode.enabled:
        for p in parents:
            if p.requires_grad:
                return True
    return False


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
    """
    x = as_tensor(x)
    records = _records((x,))
    cdf = np.empty(x.shape, np.result_type(x.data, _SQRT2))
    out = np.empty_like(cdf) if records else cdf
    _gelu_forward(x.data, cdf, out)

    def bwd(g):
        gx = np.empty_like(cdf)
        _gelu_backward(x.data, cdf, g, gx)
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
    xd = x.data
    x2 = xd.reshape(-1, xd.shape[-1])
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

    return Tensor._op(out.reshape(xd.shape[:-1] + out.shape[1:]), (x, w, b), bwd)


def _row_mean(a: np.ndarray, d: int) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)``, bitwise, for a last axis of ``d``."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= d
    return m


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale by ``gain`` and shift by ``bias``.

    With x̂ = (x − mean) · rstd and ĝ = g · gain, the backward is
    ``rstd · (ĝ − mean(ĝ) − x̂ · mean(ĝ · x̂))`` for ``x``, and the sums of
    ``g · x̂`` and ``g`` over all rows for ``gain`` and ``bias``.  The
    forward allocates two arrays of the shape of ``x``: ``x − mean``, which
    is scaled in place into x̂, and the squares, whose buffer then takes
    ``x̂ · gain + bias`` as the output.  Every row mean is
    ``np.add.reduce`` over the last axis, divided in place by ``d``: the
    sum and the division of ``ndarray.mean``, bitwise equal to it, without
    its Python-level wrapper.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    centered = x.data - _row_mean(x.data, d)
    out = np.multiply(centered, centered)
    rstd = _row_mean(out, d)
    rstd += eps
    np.power(rstd, -0.5, out=rstd)
    xhat = np.multiply(centered, rstd, out=centered)

    def bwd(g):
        if x.requires_grad:
            gh = g * gain.data
            inner = _row_mean(gh, d) + xhat * _row_mean(gh * xhat, d)
            x._accumulate(rstd * (gh - inner))
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
    one (..., H, Tq, T) array, not four.  When no key is masked (a single
    post, or a batch of equal lengths), it skips the -inf fill and the
    zeroing of masked score gradients, which would change no value.  It
    keeps only the softmax weights ``w`` for backward, where the score
    gradient is :func:`softmax_backward` of ``w`` and the gradient of
    ``w``.  Every array is computed by the same numpy ops in the same order
    as the composed tape nodes, so values and gradients are bitwise equal
    to them.
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
    masked = not keep.all()
    w = qh @ kh.swapaxes(-1, -2)
    w *= scale
    if masked:
        np.copyto(w, -np.inf, where=~keep)
    _softmax_into(w, w)

    def bwd(g):
        gc = g.reshape(*batch, tq, n_heads, dh).swapaxes(-2, -3)
        if v.requires_grad:
            v._accumulate((w.swapaxes(-1, -2) @ gc).swapaxes(-2, -3).reshape(v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        gw = gc @ vh.swapaxes(-1, -2)
        gs = softmax_backward(w, gw)
        if masked:
            gs = np.where(keep, gs, 0.0)
        gs *= scale
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


def _take_rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])[rows]


def _put_rows(a: np.ndarray, rows: np.ndarray, shape: tuple) -> np.ndarray:
    out = np.zeros(shape, dtype=a.dtype)
    out.reshape(-1, shape[-1])[rows] = a
    return out


def take_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Rows ``rows`` of ``x`` (..., d), counted over its leading axes
    flattened, as an (N, d) matrix.

    ``rows`` are distinct flat row indices, so the backward is
    :func:`put_rows` of the gradient: each row is written back, not summed.
    """
    x = as_tensor(x)
    rows = np.asarray(rows)

    def bwd(g):
        x._accumulate(_put_rows(g, rows, x.shape))

    return Tensor._op(_take_rows(x.data, rows), (x,), bwd)


def put_rows(src: Tensor, rows: np.ndarray, shape: tuple) -> Tensor:
    """A zero array of ``shape`` (..., d) whose flat rows ``rows`` hold the
    rows of ``src`` (N, d); the inverse of :func:`take_rows`, which is its
    backward."""
    src = as_tensor(src)
    rows = np.asarray(rows)

    def bwd(g):
        src._accumulate(_take_rows(g, rows))

    return Tensor._op(_put_rows(src.data, rows, shape), (src,), bwd)
