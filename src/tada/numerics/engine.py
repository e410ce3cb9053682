"""Minimal dense-tensor computation layer with reverse-mode differentiation.

Tensors wrap row-major numpy arrays. Every differentiable primitive records
its inputs and a backward closure on the output tensor; ``backward`` on a
scalar loss traces the graph into a :class:`ComputationTape` and walks it
once in reverse topological order. The forward formulas that inference also
runs (``linear``, ``gelu``, ``layer_norm``, ``scatter_rows``,
``split_heads``, ``attention_heads``) live in :mod:`.kernels`; the
primitives of the same name here call them and add the backward.

Precision is controlled by a context-local default dtype: float64 for tests
and oracle checks, float32 for training runs. The default picks only the
dtype of freshly built tensors. Every primitive computes in the dtype of
its operands, so a float32 graph stays float32 in its outputs and its
gradients. Constants enter as Python floats or in the operand's dtype:
under NumPy 2 promotion (NEP 50) a float64 NumPy scalar or 0-d array turns
float32 data into float64, and NumPy 1.x does so to 0-d data even for a
Python float. Broadcasting is restricted to
leading-batch expansion (a smaller operand whose shape matches the trailing
extents of the larger one); anything else is a :class:`ShapeError`.

Attention masking is exclusion-based: masked-out positions are removed from
the softmax normalization set entirely, so their input values can never leak
into the output, not even at the last bit.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ShapeError
from . import kernels

_DEFAULT_DTYPE: contextvars.ContextVar[type] = contextvars.ContextVar(
    "tada_default_dtype", default=np.float64
)
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "tada_grad_enabled", default=True
)
_SHAPES_ONLY: contextvars.ContextVar[bool] = contextvars.ContextVar("tada_shapes_only", default=False)

# Output value written to excluded positions of masked log-softmax. Large and
# negative, but finite so downstream arithmetic stays NaN-free.
LOG_EXCLUDED = -1.0e30


def default_dtype() -> type:
    return _DEFAULT_DTYPE.get()


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the default dtype (e.g. ``precision("float32")``)."""
    token = _DEFAULT_DTYPE.set(np.dtype(dtype).type)
    try:
        yield
    finally:
        _DEFAULT_DTYPE.reset(token)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


@contextlib.contextmanager
def shapes_only():
    """Inside the block, :func:`randn` draws nothing: it returns a read-only
    zero view of its shape. Running a model's initialiser in it gives the
    model's parameter names and shapes without sampling a weight."""
    token = _SHAPES_ONLY.set(True)
    try:
        yield
    finally:
        _SHAPES_ONLY.reset(token)


class Tensor:
    """A dense array with an optional gradient and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        op: str = "leaf",
        parents: tuple = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self.parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> "ComputationTape":
        """Reverse-mode pass from a scalar; returns the traversed tape."""
        if self.data.size != 1:
            raise ShapeError("backward", f"loss must be scalar, got shape {self.shape}")
        tape = ComputationTape.trace(self)
        tape.run(self)
        return tape

    # Operator sugar used throughout the model code.
    def __add__(self, other):
        return add(self, _coerce(other, self.dtype))

    def __radd__(self, other):
        return add(_coerce(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _coerce(other, self.dtype))

    def __rsub__(self, other):
        return sub(_coerce(other, self.dtype), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, _coerce(other, self.dtype))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


class ComputationTape:
    """Ordered record of the primitives reachable from a root tensor.

    ``nodes`` is a forward topological order; the backward pass walks it
    reversed, visiting each node exactly once.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes
        self.visits = 0

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationTape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)

    def run(self, root: Tensor) -> None:
        root.grad = np.ones_like(root.data)
        for node in reversed(self.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                self.visits += 1


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype or default_dtype())
    return Tensor(np.ascontiguousarray(arr), requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype or default_dtype()), requires_grad)


def ones(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype or default_dtype()), requires_grad)


def randn(shape, rng: np.random.Generator, std: float = 1.0, requires_grad: bool = False) -> Tensor:
    if _SHAPES_ONLY.get():
        return Tensor(np.broadcast_to(np.zeros((), dtype=default_dtype()), shape), requires_grad)
    arr = rng.standard_normal(shape) * std
    return Tensor(arr.astype(default_dtype()), requires_grad)


def _coerce(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``.

    The first gradient is kept as it is, not copied, so a ``.grad`` may be
    the very array another node received, or a view of it. That is safe
    because no code writes into a ``.grad`` or into a gradient it was
    handed: every later sum makes a new array.
    """
    if not t.requires_grad:
        return
    t.grad = np.asarray(g) if t.grad is None else t.grad + g


def _make(op: str, data: np.ndarray, parents: tuple, backward: Callable[[np.ndarray], None]) -> Tensor:
    requires = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    if requires:
        return Tensor(data, requires_grad=True, op=op, parents=parents, backward=backward)
    return Tensor(data, requires_grad=False, op=op)


def _reduce_to(shape: tuple, g: np.ndarray) -> np.ndarray:
    """Sum a gradient over the leading axes added by batch expansion."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _check_batch_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    small, big = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    if len(small) == len(big) or big[len(big) - len(small):] != small:
        raise ShapeError(op, f"shapes {sa} and {sb} are not equal nor leading-batch expandable")


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_batch_broadcast("add", a, b)
    out = a.data + b.data

    def backward(g):
        _accum(a, _reduce_to(a.shape, g))
        _accum(b, _reduce_to(b.shape, g))

    return _make("add", out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_batch_broadcast("sub", a, b)
    out = a.data - b.data

    def backward(g):
        _accum(a, _reduce_to(a.shape, g))
        if b.requires_grad:
            _accum(b, -_reduce_to(b.shape, g))

    return _make("sub", out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_batch_broadcast("mul", a, b)
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _reduce_to(a.shape, g * b.data))
        if b.requires_grad:
            _accum(b, _reduce_to(b.shape, g * a.data))

    return _make("mul", out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    # In the data's own dtype: a float64 constant would promote float32
    # data, and NumPy 1.x promotes a 0-d operand even by a Python float.
    c = a.dtype.type(c)
    out = a.data * c

    def backward(g):
        _accum(a, g * c)

    return _make("scale", out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul", f"expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", f"inner extents differ: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _make("matmul", out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` as one node.

    Forward and gradients are bit-identical to :func:`matmul` followed by
    :func:`add`.
    """
    out = kernels.linear(x.data, w.data, b.data)

    def backward(g):
        if b.requires_grad:
            _accum(b, g.sum(axis=0))
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)

    return _make("linear", out, (x, w, b), backward)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def backward(g):
        _accum(a, g / a.data)

    return _make("log", out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * (0.5 / out))

    return _make("sqrt", out, (a,), backward)


def reciprocal(a: Tensor) -> Tensor:
    out = 1.0 / a.data

    def backward(g):
        _accum(a, -g * out * out)

    return _make("reciprocal", out, (a,), backward)


def square(a: Tensor) -> Tensor:
    out = a.data * a.data

    def backward(g):
        _accum(a, g * (2.0 * a.data))

    return _make("square", out, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh form)."""
    x = a.data
    out, t = kernels.gelu(x)

    def backward(g):
        dinner = kernels.GELU_C * (1.0 + 3 * 0.044715 * x * x)
        dt = (1.0 - t * t) * dinner
        _accum(a, g * (0.5 * (1.0 + t) + 0.5 * x * dt))

    return _make("gelu", out, (a,), backward)


def maximum_const(a: Tensor, floor: float) -> Tensor:
    """Elementwise max(a, floor); no gradient flows where the floor wins."""
    floor = a.dtype.type(floor)
    out = np.maximum(a.data, floor)

    def backward(g):
        _accum(a, g * (a.data > floor))

    return _make("maximum_const", out, (a,), backward)


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    out = a.data.sum(axis=axis)
    out = np.asarray(out)

    def backward(g):
        gg = np.asarray(g)
        if axis is not None:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.shape).copy())

    return _make("sum", out, (a,), backward)


def mean_(a: Tensor) -> Tensor:
    out = a.data.mean()
    out = np.asarray(out)

    def backward(g):
        _accum(a, np.broadcast_to(np.asarray(g), a.shape) / a.size)

    return _make("mean", out, (a,), backward)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _make("concat", out, tuple(parts), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.shape))

    return _make("reshape", out, (a,), backward)


# ---------------------------------------------------------------------------
# Gather / scatter
# ---------------------------------------------------------------------------


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows", f"index must be rank-1, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("gather_rows", f"index out of range for {a.shape[0]} rows")
    out = a.data[idx]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accum(a, ga)

    return _make("gather_rows", out, (a,), backward)


def neighbour_rows(x: Tensor, lengths) -> Tensor:
    """Every row beside its neighbours within its sequence
    (:func:`kernels.neighbour_rows`).

    Row t's gradient is ``((0 + gR[t-1]) + gC[t]) + gL[t+1]``, where gC,
    gL and gR are the output gradient's centre, left and right blocks: the
    order in which a gather of the rows would add them up.
    """
    out, same = kernels.neighbour_rows(x.data, lengths)
    T, d = x.shape

    def backward(g):
        g = g.reshape(T, 3, d)
        gx = np.zeros_like(x.data)
        np.add(gx[1:], g[:-1, 2], out=gx[1:], where=same[:, None])
        gx += g[:, 1]
        np.add(gx[:-1], g[1:, 0], out=gx[:-1], where=same[:, None])
        _accum(x, gx)

    return _make("neighbour_rows", out, (x,), backward)


def scatter_rows(rows: Tensor, idx: np.ndarray, length: int) -> Tensor:
    """Place ``rows[i]`` at row ``idx[i]`` of a zero (length, d) array."""
    idx = np.asarray(idx, dtype=np.int64)
    out = kernels.scatter_rows(rows.data, idx, length)

    def backward(g):
        _accum(rows, g[idx])

    return _make("scatter_rows", out, (rows,), backward)


# ---------------------------------------------------------------------------
# Normalization, attention, rotary positions
# ---------------------------------------------------------------------------


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    out, xhat, inv = kernels.layer_norm(x.data, gain.data, bias.data, eps)
    d = x.shape[-1]

    def backward(g):
        _accum(bias, g.reshape(-1, d).sum(axis=0))
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        gx = g * gain.data
        gxhat_sum = gx.sum(axis=-1, keepdims=True)
        gxhat_dot = (gx * xhat).sum(axis=-1, keepdims=True)
        _accum(x, inv * (gx - gxhat_sum / d - xhat * gxhat_dot / d))

    return _make("layer_norm", out, (x, gain, bias), backward)


def log_softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Log-softmax over the last axis; with a mask, normalization runs over
    included entries only.

    Excluded outputs are set to the finite constant ``LOG_EXCLUDED`` and carry
    no gradient.
    """
    if mask is None:
        mask = np.ones(x.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise ShapeError("log_softmax", f"mask shape {mask.shape} != input shape {x.shape}")
        if not np.all(mask.any(axis=-1)):
            raise ShapeError("log_softmax", "a normalization slice has no included positions")
    safe = np.where(mask, x.data, -np.inf)
    m = safe.max(axis=-1, keepdims=True)
    shifted = np.where(mask, x.data - m, 0.0)
    e = np.exp(shifted) * mask
    lse = np.log(e.sum(axis=-1, keepdims=True)) + m
    out = np.where(mask, x.data - lse, LOG_EXCLUDED)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        g = g * mask
        _accum(x, g - p * g.sum(axis=-1, keepdims=True))

    return _make("log_softmax", out, (x,), backward)


def split_heads(x: Tensor, n_heads: int, positions: np.ndarray | None = None, base: float = 10000.0) -> Tensor:
    """Split (T, H * hd) columns into (H, T, hd) heads, rotated by rotary
    ``positions`` when given (:func:`kernels.split_heads`). The backward
    pass is the inverse rotation."""
    out, rot = kernels.split_heads(x.data, n_heads, positions, base)
    T, d = x.shape

    def backward(g):
        if rot is not None:
            cos2, sin2 = rot
            g = kernels.rotate_pairs(g, cos2, -sin2)
        _accum(x, g.transpose(1, 0, 2).reshape(T, d))

    return _make("split_heads", out, (x,), backward)


def attention_heads(q: Tensor, k: Tensor, v: Tensor, mask) -> Tensor:
    """Scaled dot-product attention of all heads at once, heads merged to
    (Tq, H * hd); ``k`` is (H, Tk, hd), and ``mask`` is as in
    :func:`kernels.attention_heads`. The keys are transposed once, to the
    kernel's layout, and the backward pass multiplies by the same array."""
    kt = np.ascontiguousarray(k.data.transpose(0, 2, 1)) if k.ndim == 3 else k.data  # else a ShapeError below
    out, blocks, weights = kernels.attention_heads(q.data, kt, v.data, mask)
    H, Tq, hd = q.shape
    c = 1.0 / math.sqrt(hd)

    def backward(g):
        g = g.reshape(Tq, H, hd).transpose(1, 0, 2)
        gq = np.empty_like(q.data) if q.requires_grad else None
        gk = np.empty_like(k.data) if k.requires_grad else None
        gv = np.empty_like(v.data) if v.requires_grad else None
        for (r, s), w in zip(blocks, weights):
            gb = g[:, r]
            if gv is not None:
                gv[:, s] = w.transpose(0, 2, 1) @ gb
            gw = gb @ v.data[:, s].transpose(0, 2, 1)
            gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * c
            if gq is not None:
                gq[:, r] = gs @ kt[:, :, s].transpose(0, 2, 1)
            if gk is not None:
                gk[:, s] = (q.data[:, r].transpose(0, 2, 1) @ gs).transpose(0, 2, 1)
        for t, grad in ((v, gv), (q, gq), (k, gk)):
            if grad is not None:
                _accum(t, grad)

    return _make("attention_heads", out, (q, k, v), backward)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax.

    With ``weights`` (one per row), the weighted sum of the rows'
    negative log-likelihoods instead of their mean.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(
            "cross_entropy", f"logits {logits.shape} vs targets {targets.shape}"
        )
    n, v = logits.shape
    if weights is not None and np.shape(weights) != (n,):
        raise ShapeError("cross_entropy", f"weights {np.shape(weights)} vs {n} rows")
    m = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    z = e.sum(axis=1, keepdims=True)
    logp = logits.data - m - np.log(z)
    nll = -logp[np.arange(n), targets]
    if weights is None:
        out = np.asarray(nll.mean())
    else:
        weights = np.asarray(weights, dtype=logits.dtype)
        out = np.asarray((nll * weights).sum())

    def backward(g):
        p = e / z
        p[np.arange(n), targets] -= 1.0
        _accum(logits, g * p / n if weights is None else p * (g * weights)[:, None])

    return _make("cross_entropy", out, (logits,), backward)


def kl_categorical(p_logits: Tensor, q_logits: Tensor, weights: np.ndarray | None = None) -> Tensor:
    """Mean over rows of KL(softmax(p) || softmax(q)).

    With ``weights`` (one per row), the weighted sum of the rows'
    divergences instead of their mean.
    """
    if p_logits.shape != q_logits.shape or p_logits.ndim != 2:
        raise ShapeError(
            "kl_categorical", f"shapes {p_logits.shape} and {q_logits.shape} must match, rank 2"
        )
    n = p_logits.shape[0]
    if weights is not None and np.shape(weights) != (n,):
        raise ShapeError("kl_categorical", f"weights {np.shape(weights)} vs {n} rows")

    def _logsm(a):
        m = a.max(axis=1, keepdims=True)
        e = np.exp(a - m)
        return a - m - np.log(e.sum(axis=1, keepdims=True))

    logp = _logsm(p_logits.data)
    logq = _logsm(q_logits.data)
    p = np.exp(logp)
    rows = (p * (logp - logq)).sum(axis=1)
    if weights is None:
        out = np.asarray(rows.mean())
    else:
        weights = np.asarray(weights, dtype=p_logits.dtype)
        out = np.asarray((rows * weights).sum())

    def backward(g):
        w = None if weights is None else (g * weights)[:, None]
        if q_logits.requires_grad:
            dq = np.exp(logq) - p
            _accum(q_logits, g * dq / n if w is None else dq * w)
        if p_logits.requires_grad:
            dp = (logp - logq) - rows[:, None]
            _accum(p_logits, g * p * dp / n if w is None else p * dp * w)

    return _make("kl_categorical", out, (p_logits, q_logits), backward)


def l1_loss(a: Tensor, b: Tensor, weights: np.ndarray | None = None) -> Tensor:
    """Mean absolute difference.

    With ``weights`` (one per row), the sum over rows of the row's weight
    times its summed absolute difference instead.
    """
    if a.shape != b.shape:
        raise ShapeError("l1_loss", f"shapes {a.shape} and {b.shape} differ")
    if weights is not None and (a.ndim != 2 or np.shape(weights) != a.shape[:1]):
        raise ShapeError("l1_loss", f"weights {np.shape(weights)} vs rows of {a.shape}")
    diff = a.data - b.data
    n = a.size
    if weights is None:
        out = np.asarray(np.abs(diff).mean())
    else:
        weights = np.asarray(weights, dtype=a.dtype)[:, None]
        out = np.asarray((np.abs(diff) * weights).sum())

    def backward(g):
        s = g * np.sign(diff) / n if weights is None else np.sign(diff) * (g * weights)
        if a.requires_grad:
            _accum(a, s)
        if b.requires_grad:
            _accum(b, -s)

    return _make("l1_loss", out, (a, b), backward)


def custom_op(
    op: str,
    data: np.ndarray,
    parents: Iterable[Tensor],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    """Extension point for modules defining their own primitives (e.g. CTC)."""
    return _make(op, data, tuple(parents), backward)
