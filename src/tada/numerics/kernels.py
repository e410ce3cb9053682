"""Array kernels: the forward formulas of the engine primitives that
inference runs.

Each kernel takes and returns numpy arrays and checks its operands' shapes,
raising the engine's :class:`ShapeError`. The taped primitive of the same
name in :mod:`.engine` computes its forward by calling the kernel, so every
formula exists once; inference calls the kernels directly and builds no
tensor and no tape. A kernel whose backward needs intermediates returns
them after the output. Constants are Python floats, so float32 operands
give float32 results.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeError, ValidationError


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map ``x @ w + b``, bit-identical to the matmul and then the add."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError("linear", f"x {x.shape}, w {w.shape}, b {b.shape} do not form x @ w + b")
    out = x @ w
    if out.dtype == b.dtype:
        out += b
    else:
        out = out + b
    return out


def scatter_rows(rows: np.ndarray, idx: np.ndarray, length: int) -> np.ndarray:
    """Place ``rows[i]`` at row ``idx[i]`` of a zero (length, d) array."""
    if len(np.unique(idx)) != len(idx):
        raise ValidationError("scatter_rows: duplicate target positions")
    if idx.size and (idx.min() < 0 or idx.max() >= length):
        raise ShapeError("scatter_rows", f"index out of range for length {length}")
    out = np.zeros((length,) + rows.shape[1:], dtype=rows.dtype)
    out[idx] = rows
    return out


GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian error linear unit (tanh form), and the tanh it took."""
    # tanh(c * (x + 0.044715 * x**3)), formed in place; x**3 would go through
    # libm pow. Every step keeps the operand order of the plain formula.
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= 0.5
    out *= x
    return out, t


def layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis, and its normalized rows and inverse
    standard deviations."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm", f"gain/bias must be ({d},), got {gain.shape} and {bias.shape}")
    # sum / d is bit-identical to ndarray.mean and skips numpy's slow _mean wrapper.
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


class _RopeTable:
    """Rotary cos and sin rows for one ``(d, base, dtype)``.

    Row p is computed for position p, bit-equal to computing it for p
    alone; the table grows by doubling to cover the largest position asked
    for. The rows last asked for are kept, because the q and k of every
    layer of a forward ask for the same positions in turn.
    """

    def __init__(self, d: int, base: float, dtype):
        self.freqs = base ** (-np.arange(d // 2, dtype=np.float64) * 2.0 / d)
        self.dtype = dtype
        self.cos = self.sin = np.zeros((0, d // 2), dtype=dtype)
        self.last: tuple = (None, None)

    def rows(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raw = positions.tobytes()
        if self.last[0] == raw:
            return self.last[1]
        if positions.size and positions.min() < 0:
            raise ShapeError("rope", "positions must be >= 0")
        need = int(positions.max()) + 1 if positions.size else 0
        if self.cos.shape[0] < need:
            ang = np.arange(max(need, 2 * self.cos.shape[0], 64), dtype=np.float64)[:, None] * self.freqs
            self.cos, self.sin = np.cos(ang).astype(self.dtype), np.sin(ang).astype(self.dtype)
        hit = (self.cos[positions], self.sin[positions])
        self.last = (raw, hit)
        return hit


_ROPE_TABLES: dict[tuple, _RopeTable] = {}


def _rope_angles(d: int, positions: np.ndarray, base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``positions`` of the cos and sin tables for width ``d``."""
    key = (d, base, dtype)
    table = _ROPE_TABLES.get(key)
    if table is None:
        table = _ROPE_TABLES[key] = _RopeTable(d, base, dtype)
    return table.rows(np.asarray(positions, dtype=np.int64))


def split_heads(
    x: np.ndarray, n_heads: int, positions: np.ndarray | None = None, base: float = 10000.0
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Split (T, H * hd) columns into (H, T, hd) heads.

    With ``positions``, every head is also rotated by rotary positions:
    each consecutive (even, odd) coordinate pair of row t turns by the
    angles of ``positions[t]``. Returns the heads and the ``(cos, sin)``
    rows of the rotation (None without one).
    """
    if x.ndim != 2 or n_heads < 1 or x.shape[1] % n_heads != 0:
        raise ShapeError("split_heads", f"cannot split {x.shape} into {n_heads} heads")
    T, d = x.shape
    hd = d // n_heads
    heads = x.reshape(T, n_heads, hd).transpose(1, 0, 2)
    if positions is None:
        return np.ascontiguousarray(heads), None
    positions = np.asarray(positions)
    if hd % 2 != 0 or positions.shape != (T,):
        raise ShapeError(
            "split_heads", f"rotary needs an even head width and ({T},) positions, "
            f"got width {hd} and positions {positions.shape}"
        )
    cos, sin = _rope_angles(hd, positions, base, x.dtype)
    xe, xo = heads[..., 0::2], heads[..., 1::2]
    out = np.empty((n_heads, T, hd), dtype=x.dtype)
    out[..., 0::2] = xe * cos - xo * sin
    out[..., 1::2] = xe * sin + xo * cos
    return out, (cos, sin)


def attention_heads(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask) -> tuple:
    """Scaled dot-product attention of all heads at once, heads merged.

    ``q`` is (H, Tq, hd) and ``k`` and ``v`` are (H, Tk, hd). ``mask`` is
    one (Tq, Tk) mask that applies to every head, or, for a packed run, a
    list of per-sequence masks: the rows of ``q`` and of ``k`` are then
    consecutive sequences, and mask i, of shape (Lq_i, Lk_i), is sequence
    i's own block. Only those blocks are scored, so no (Tq, Tk) array is
    formed and no row can attend outside its own sequence. One mask is a
    run of one sequence. Weights are the masked softmax of the scaled
    scores, so excluded keys and values never reach the output.

    Returns the (Tq, H * hd) output, head-major along the columns, then
    per block its ``(mask, rows, keys)``, its weights and its transposed
    keys.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3 or k.shape != v.shape or q.shape[::2] != k.shape[::2]:
        raise ShapeError(
            "attention_heads", f"q {q.shape}, k {k.shape}, v {v.shape} are not (H, T, hd) alike"
        )
    H, Tq, hd = q.shape
    packed = isinstance(mask, list)
    masks = [np.asarray(m, dtype=bool) for m in mask] if packed else [np.asarray(mask, dtype=bool)]
    blocks, r0, c0 = [], 0, 0  # (mask, its rows, its keys)
    for m in masks:
        r1, c1 = r0 + m.shape[0], c0 + m.shape[-1]
        blocks.append((m, slice(r0, r1), slice(c0, c1)))
        r0, c0 = r1, c1
    if any(m.ndim != 2 for m in masks) or (r0, c0) != (Tq, k.shape[1]):
        shapes = [m.shape for m in masks] if packed else masks[0].shape
        raise ShapeError("attention_heads", f"mask shape {shapes} != ({Tq}, {k.shape[1]})")
    if not all(m.any(axis=-1).all() for m in masks):
        raise ShapeError("attention_heads", "a normalization slice has no included positions")
    c = 1.0 / math.sqrt(hd)
    weights, kts, outs = [], [], []
    for m, r, s in blocks:
        # Operand layouts follow the per-head matmul/transpose2d chain, so
        # every product is bit-identical to it.
        kt = np.ascontiguousarray(k[:, s].transpose(0, 2, 1))
        scores = (q[:, r] @ kt) * c
        mx = np.where(m, scores, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(np.where(m, scores - mx, 0.0)) * m
        w = e / e.sum(axis=-1, keepdims=True)
        outs.append(w @ v[:, s])
        weights.append(w)
        kts.append(kt)
    out = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
    return out.transpose(1, 0, 2).reshape(Tq, H * hd), blocks, weights, kts
