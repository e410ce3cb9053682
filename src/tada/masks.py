"""Attention masks and indicator signals derived from aligned positions.

All positions are 1-based frame indices. Rows index query frames and columns
index key frames; a true entry means the query may attend the key.

The encoder window for the i-th assigned frame spans from just after the
previous assigned frame to just before the next one; unassigned frames are
confined to their segment interior. The streaming-decoder window for a frame
covers its own segment plus the immediately preceding one, with boundary
segments handled through the sentinels ``p_0 = p_-1 = 0``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def _check_positions(p: np.ndarray, T: int) -> np.ndarray:
    p = np.asarray(p, dtype=np.int64)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError(f"positions must be a non-empty 1-D sequence, got shape {p.shape}")
    if T < 1:
        raise ValidationError(f"frame count must be >= 1, got {T}")
    if p[0] < 1 or p[-1] > T:
        raise ValidationError(f"positions must lie in [1, {T}], got range [{p[0]}, {p[-1]}]")
    if np.any(np.diff(p) <= 0):
        raise ValidationError(f"positions must be strictly increasing, got {p.tolist()}")
    return p


def encoder_mask(p, T: int) -> np.ndarray:
    """Boolean (T, T) encoder attention mask.

    Assigned row p_i sees [p_{i-1}+1, p_{i+1}-1]; an unassigned row between
    p_i and p_{i+1} sees [p_i+1, p_{i+1}-1], using sentinels p_0 = 0 and
    p_{L+1} = T+1 for the boundary segments. Every row's window holds the
    row itself.
    """
    p = _check_positions(p, T)
    q = np.arange(1, T + 1)
    ext = np.concatenate([[0], p, [T + 1]])  # ext[i] = p_i with sentinels
    i = np.searchsorted(p, q, side="left")  # tokens before q, so p_i < q <= p_{i+1}
    assigned = ext[i + 1] == q
    lo = ext[i] + 1
    hi = ext[i + 1 + assigned] - 1  # p_{i+2} - 1 for an assigned row, else p_{i+1} - 1
    return (q >= lo[:, None]) & (q <= hi[:, None])


def decoder_stream_mask(p, T: int) -> np.ndarray:
    """Boolean (T, T) streaming-decoder mask.

    Row q is governed by the first aligned position p_i >= q (self-inclusive
    for assigned rows) and may attend columns [p_{i-2}+1, p_i]; computation
    inside a segment is non-autoregressive. Rows after the last aligned
    position form a trailing segment attending [p_{L-1}+1, T].
    """
    p = _check_positions(p, T)
    q = np.arange(1, T + 1)
    i = np.searchsorted(p, q, side="left")  # index of the governing p_i in p; L if trailing
    lo = np.concatenate([[0, 0], p])[i] + 1  # p_{i-2} + 1, or p_{L-1} + 1
    hi = np.append(p, T)[i]  # p_i, or T
    return (q >= lo[:, None]) & (q <= hi[:, None])


def indicator(p, T: int) -> np.ndarray:
    """Length-T binary vector with ones exactly at the assigned positions."""
    p = _check_positions(p, T)
    vec = np.zeros(T, dtype=np.int64)
    vec[p - 1] = 1
    return vec


def segment_bounds(p, T: int) -> list[tuple[int, int]]:
    """Half-open 1-based (start, end] frame ranges of the decoding segments.

    Segment i covers (p_{i-1}, p_i]; a trailing segment (p_L, T] is appended
    when unassigned frames remain after the last aligned position.
    """
    p = _check_positions(p, T)
    bounds = []
    prev = 0
    for pi in p.tolist():
        bounds.append((prev, pi))
        prev = pi
    if prev < T:
        bounds.append((prev, T))
    return bounds


def stream_windows(p, T: int) -> list[tuple[int, int, int]]:
    """The streaming decoder's windows as 0-based ``(start, lo, hi)``, one
    per segment of :func:`segment_bounds`: rows lo..hi-1 attend rows
    start..hi-1, the previous segment's and their own, exactly as in
    :func:`decoder_stream_mask`."""
    bounds = segment_bounds(p, T)
    return [(start, lo, hi) for start, (lo, hi) in zip([0] + [lo for lo, _ in bounds], bounds)]


def render_mask(mask: np.ndarray, p) -> str:
    """ASCII grid of a mask with asterisks marking assigned rows/columns."""
    T = mask.shape[0]
    p = set(np.asarray(p, dtype=np.int64).tolist())
    header = "    " + " ".join("*" if (j + 1) in p else " " for j in range(T))
    lines = [header]
    for q in range(T):
        tag = "*" if (q + 1) in p else " "
        cells = " ".join("#" if mask[q, j] else "." for j in range(T))
        lines.append(f"{q + 1:>2}{tag} {cells}")
    return "\n".join(lines)
