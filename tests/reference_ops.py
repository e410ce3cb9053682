"""Reference primitives that only tests use.

``rope``, ``slice_cols`` and ``transpose2d`` build attention head by head
from rank-2 pieces: the chain that the engine's head-batched
``split_heads`` and ``attention_heads`` are checked against. They record
tape nodes the way engine primitives do. ``encoder_mask`` builds the
encoder mask row by row, the loop ``masks.encoder_mask`` is checked against.
"""

from __future__ import annotations

import numpy as np

from tada.errors import ShapeError
from tada.numerics.engine import Tensor, _accum, _make, _rope_angles


def rope(x: Tensor, positions: np.ndarray, base: float = 10000.0) -> Tensor:
    """Rotary rotation of consecutive (even, odd) coordinate pairs.

    Norm-preserving per 2-plane; the backward pass is the inverse rotation.
    """
    if x.ndim != 2 or x.shape[1] % 2 != 0:
        raise ShapeError("rope", f"expects (T, even d), got {x.shape}")
    T, d = x.shape
    positions = np.asarray(positions)
    if positions.shape != (T,):
        raise ShapeError("rope", f"positions must be ({T},), got {positions.shape}")
    cos, sin = _rope_angles(d, positions, base, x.dtype)
    xe, xo = x.data[:, 0::2], x.data[:, 1::2]
    out = np.empty_like(x.data)
    out[:, 0::2] = xe * cos - xo * sin
    out[:, 1::2] = xe * sin + xo * cos

    def backward(g):
        ge, go = g[:, 0::2], g[:, 1::2]
        gx = np.empty_like(g)
        gx[:, 0::2] = ge * cos + go * sin
        gx[:, 1::2] = -ge * sin + go * cos
        _accum(x, gx)

    return _make("rope", out, (x,), backward)


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    if a.ndim != 2 or not (0 <= lo < hi <= a.shape[1]):
        raise ShapeError("slice_cols", f"range [{lo},{hi}) invalid for shape {a.shape}")
    out = a.data[:, lo:hi].copy()

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[:, lo:hi] = g
        _accum(a, ga)

    return _make("slice_cols", out, (a,), backward)


def transpose2d(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError("transpose2d", f"expects rank-2, got {a.shape}")
    out = a.data.T.copy()

    def backward(g):
        _accum(a, g.T)

    return _make("transpose2d", out, (a,), backward)


def encoder_mask(p, T: int) -> np.ndarray:
    """``masks.encoder_mask`` for valid positions, one frame at a time."""
    p = np.asarray(p, dtype=np.int64)
    ext = np.concatenate([[0], p, [T + 1]])  # ext[i] = p_i with sentinels
    mask = np.zeros((T, T), dtype=bool)
    assigned = np.zeros(T + 1, dtype=bool)
    assigned[p] = True

    # Map each frame to its segment index i such that p_i < q <= p_{i+1}.
    seg = np.searchsorted(p, np.arange(1, T + 1), side="left")  # 0..L
    for q in range(1, T + 1):
        if assigned[q]:
            i = int(np.searchsorted(p, q)) + 1  # 1-based token index
            lo, hi = ext[i - 1] + 1, ext[i + 1] - 1
        else:
            i = int(seg[q - 1])  # tokens before q
            lo, hi = ext[i] + 1, ext[i + 1] - 1
        lo = max(lo, 1)
        hi = min(hi, T)
        if lo <= hi:
            mask[q - 1, lo - 1 : hi] = True
        mask[q - 1, q - 1] = True
    return mask
