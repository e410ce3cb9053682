"""Array kernels: the forward formulas of the engine primitives that
inference runs.

Each kernel takes and returns numpy arrays and checks its operands' shapes,
raising the engine's :class:`ShapeError`. The taped primitive of the same
name in :mod:`.engine` computes its forward by calling the kernel, so every
formula exists once; inference calls the kernels directly and builds no
tensor and no tape. A kernel whose backward needs intermediates returns
them after the output. Attention takes its keys in one layout, (H, hd, Tk),
as a key/value cache stores them. Constants are Python floats, so float32
operands give float32 results.
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


def neighbour_rows(x: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Every row of ``x`` beside its neighbours: row t of the (T, 3 * d)
    output is ``[x[t - 1], x[t], x[t + 1]]``.

    The rows are consecutive sequences of the given ``lengths``, and a
    neighbour past either end of its row's sequence is a zero row. Also
    returns the (T - 1,) mask that is true where rows t and t + 1 belong to
    one sequence.
    """
    T, d = x.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or np.any(lengths < 0) or lengths.sum() != T:
        raise ShapeError("neighbour_rows", f"lengths {lengths.tolist()} do not split {T} rows")
    boundary = np.zeros(T + 1, dtype=bool)
    boundary[0] = True
    boundary[np.cumsum(lengths)] = True
    same = ~boundary[1:T]
    out = np.zeros((T, 3, d), dtype=x.dtype)
    out[:, 1] = x
    np.copyto(out[1:, 0], x[:-1], where=same[:, None])
    np.copyto(out[:-1, 2], x[1:], where=same[:, None])
    return out.reshape(T, 3 * d), same


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
    # The plain formula, bit for bit: np.add.reduce / d is ndarray.mean
    # without its wrappers, and the bias is added in place. The (rows, 1)
    # steps stay out of place: on a row or two an in-place ufunc costs more.
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - mu
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + eps)
    xhat = xc * inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


class _RopeTable:
    """Rotary tables for one ``(d, base, dtype)``, at full width ``d``.

    Row p of ``cos2`` holds each pair's cosine twice and row p of ``sin2``
    each pair's sine negated then plain, so a pair (x_e, x_o) turns into
    ``x * cos2 + swapped(x) * sin2`` = (x_e cos - x_o sin, x_o cos + x_e sin).
    Row p is computed for position p, bit-equal to computing it for p
    alone; the table grows by doubling to cover the largest position asked
    for. The rows last asked for are kept, because every layer of a forward
    asks for the same positions in turn.
    """

    def __init__(self, d: int, base: float, dtype):
        self.freqs = base ** (-np.arange(d // 2, dtype=np.float64) * 2.0 / d)
        self.dtype = dtype
        self.cos2 = self.sin2 = np.zeros((0, d), dtype=dtype)
        self.last: tuple = (None, None)

    def rows(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raw = positions.tobytes()
        if self.last[0] == raw:
            return self.last[1]
        if positions.size and positions.min() < 0:
            raise ShapeError("rope", "positions must be >= 0")
        need = int(positions.max()) + 1 if positions.size else 0
        if self.cos2.shape[0] < need:
            ang = np.arange(max(need, 2 * self.cos2.shape[0], 64), dtype=np.float64)[:, None] * self.freqs
            cos, sin = np.cos(ang).astype(self.dtype), np.sin(ang).astype(self.dtype)
            self.cos2 = np.repeat(cos, 2, axis=1)
            self.sin2 = np.stack([-sin, sin], axis=2).reshape(cos.shape[0], -1)
        hit = (self.cos2[positions], self.sin2[positions])
        self.last = (raw, hit)
        return hit


_ROPE_TABLES: dict[tuple, _RopeTable] = {}


def _rope_angles(d: int, positions: np.ndarray, base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``positions`` of the full-width ``cos2`` and ``sin2`` tables
    for width ``d`` (see :class:`_RopeTable`)."""
    key = (d, base, dtype)
    table = _ROPE_TABLES.get(key)
    if table is None:
        table = _ROPE_TABLES[key] = _RopeTable(d, base, dtype)
    return table.rows(np.asarray(positions, dtype=np.int64))


def rotate_pairs(x: np.ndarray, cos2: np.ndarray, sin2: np.ndarray) -> np.ndarray:
    """``x * cos2 + swapped(x) * sin2`` as a new C-ordered array: the
    rotary turn of every (even, odd) pair of ``x``'s last axis.

    Bit-equal to the pairwise form ``x_e cos - x_o sin``, ``x_e sin + x_o
    cos``: a product with the negated sine is the negated product, and the
    sum adds the same two products. With ``-sin2`` it is the inverse turn.
    """
    out = np.multiply(x, cos2, out=np.empty(x.shape, dtype=x.dtype))
    # Two strided copies swap the pairs; a fancy-indexed gather costs twice
    # as much, most of all on a transposed view.
    swapped = np.empty(x.shape, dtype=x.dtype)
    swapped[..., 0::2] = x[..., 1::2]
    swapped[..., 1::2] = x[..., 0::2]
    swapped *= sin2
    out += swapped
    return out


def split_heads(
    x: np.ndarray, n_heads: int, positions: np.ndarray | None = None, base: float = 10000.0
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Split (T, H * hd) columns into (H, T, hd) heads.

    With ``positions``, every head is also rotated by rotary positions:
    each consecutive (even, odd) coordinate pair of row t turns by the
    angles of ``positions[t]`` (:func:`rotate_pairs`). Returns the heads and
    the ``(cos2, sin2)`` rows of the rotation (None without one).
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
    rot = _rope_angles(hd, positions, base, x.dtype)
    return rotate_pairs(heads, *rot), rot


def attention_heads(q: np.ndarray, kt: np.ndarray, v: np.ndarray, mask=None) -> tuple:
    """Scaled dot-product attention of all heads at once, heads merged.

    ``q`` is (H, Tq, hd), ``v`` is (H, Tk, hd), and the keys ``kt`` are
    (H, hd, Tk), transposed as a key/value cache holds them, so each block
    multiplies by a view of them. The leading axis is any batch of heads:
    a cache of S streams passes its S * H heads. ``mask`` is one (Tq, Tk)
    mask that applies to every head, None when every row attends every
    key, or, for a packed run, a list of per-sequence blocks: the rows of
    ``q`` and the keys are then consecutive sequences, and block i is
    sequence i's own (Lq_i, Lk_i) mask, or that shape as a tuple when every
    row of the block attends every key of it. Only those blocks are scored,
    so no (Tq, Tk) array is formed and no row can attend outside its own
    sequence. One mask is a run of one sequence. Weights are the masked
    softmax of the scaled scores, so excluded keys and values never reach
    the output; an all-true block (None or a shape) is neither checked nor
    applied, as applying it changes no bit.

    Returns the (Tq, H * hd) output, head-major along the columns, then per
    block its ``(rows, keys)`` slices and its weights.
    """
    if q.ndim != 3 or v.ndim != 3 or kt.shape != (v.shape[0], v.shape[2], v.shape[1]) or q.shape[::2] != v.shape[::2]:
        raise ShapeError(
            "attention_heads", f"q {q.shape}, keys {kt.shape}, v {v.shape} are not (H, Tq, hd), (H, hd, Tk), (H, Tk, hd)"
        )
    H, Tq, hd = q.shape
    Tk = v.shape[1]
    packed = isinstance(mask, list)
    if mask is None:
        masks = [(Tq, Tk)]
    else:
        masks = [m if isinstance(m, tuple) else np.asarray(m, dtype=bool) for m in (mask if packed else [mask])]
    shapes = [m if isinstance(m, tuple) else m.shape for m in masks]
    blocks, r0, c0 = [], 0, 0  # (its rows, its keys)
    for shape in shapes:
        r1, c1 = r0 + shape[0], c0 + shape[-1]
        blocks.append((slice(r0, r1), slice(c0, c1)))
        r0, c0 = r1, c1
    if any(len(shape) != 2 for shape in shapes) or (r0, c0) != (Tq, Tk):
        raise ShapeError("attention_heads", f"mask shape {shapes if packed else shapes[0]} != ({Tq}, {Tk})")
    if not all(m[0] == 0 or m[1] > 0 if isinstance(m, tuple) else m.any(axis=-1).all() for m in masks):
        raise ShapeError("attention_heads", "a normalization slice has no included positions")
    c = 1.0 / math.sqrt(hd)
    weights, outs = [], []
    for m, (r, s) in zip(masks, blocks):
        # Operand layouts follow the per-head matmul/transpose2d chain, so
        # every product is bit-identical to it.
        w = q[:, r] @ kt[:, :, s]
        w *= c
        if not isinstance(m, tuple):
            # Masked softmax: excluded scores become -inf, so after the
            # shift by the row maximum their exp is exactly 0.
            w = np.where(m, w, -np.inf)
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        outs.append(w @ v[:, s])
        weights.append(w)
    out = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
    return out.transpose(1, 0, 2).reshape(Tq, H * hd), blocks, weights
