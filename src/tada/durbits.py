"""Gray-coded analog-bit codec for frame counts and flow-target packing.

Integers are gray-coded most-significant-bit first, mapped to {-1, +1}
analog values, and concatenated after the latent vector to form the
composite regression target ``[s | analog(gray(f_before)) | analog(gray(f_after))]``.
Decoding quantizes with a strict positive-sign rule and inverts the gray
code by prefix XOR.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

DEFAULT_BITS = 8


def gray_encode(n, b: int = DEFAULT_BITS) -> np.ndarray:
    """Gray codes of the integers ``n`` as ``b`` bits each, most significant
    first, on a new last axis."""
    n = np.asarray(n, dtype=np.int64)
    bad = n[(n < 0) | (n >= 1 << b)]
    if bad.size:
        raise ValidationError(f"gray_encode: {bad.flat[0]} out of range for {b} bits")
    g = n ^ (n >> 1)
    return (g[..., None] >> np.arange(b - 1, -1, -1)) & 1


def gray_decode(bits) -> np.ndarray:
    """Invert :func:`gray_encode` over the last axis: the binary digits are
    the prefix XOR of the MSB-first gray bits."""
    bits = np.asarray(bits, dtype=np.int64)
    binary = np.bitwise_xor.accumulate(bits, axis=-1)
    return binary @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def to_analog(bits) -> np.ndarray:
    """Map bits {0, 1} to analog values {-1.0, +1.0}."""
    bits = np.asarray(bits)
    return np.where(bits > 0, 1.0, -1.0)


def quantize(x) -> np.ndarray:
    """Map real values to bits with the strict rule x > 0 -> 1, else 0."""
    return (np.asarray(x) > 0).astype(np.int64)


def pack(s, f_before, f_after, b: int = DEFAULT_BITS) -> np.ndarray:
    """Compose flow targets [s | analog bits of f_before | of f_after].

    ``s`` is (..., d) and the frame counts are (...): one slot or a row of
    slots per token, giving (..., d + 2b).
    """
    s = np.asarray(s, dtype=np.float64)
    bits = to_analog(gray_encode(np.stack([f_before, f_after], axis=-1), b))
    return np.concatenate([s, bits.reshape(*bits.shape[:-2], 2 * b)], axis=-1)


def unpack(y, d: int, b: int = DEFAULT_BITS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split flow vectors (..., d + 2b) back into (s, f_before, f_after)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != d + 2 * b:
        raise ValidationError(f"unpack: vector width {y.shape[-1]} != d + 2b = {d + 2 * b}")
    f_before, f_after = np.moveaxis(gray_decode(quantize(y[..., d:]).reshape(*y.shape[:-1], 2, b)), -1, 0)
    return y[..., :d], f_before, f_after


def durations_from_positions(p, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Unassigned-frame counts before and after each aligned position.

    ``f_before[i] = p_i - p_{i-1} - 1`` (with ``p_0 = 0``) and
    ``f_after[i] = p_{i+1} - p_i - 1`` (with ``p_{L+1} = T + 1``), so
    ``f_after[i] == f_before[i+1]`` holds by construction.
    """
    p = np.asarray(p, dtype=np.int64)
    ext = np.concatenate([[0], p, [T + 1]])
    gaps = np.diff(ext) - 1
    return gaps[:-1], gaps[1:]


def fits_bits(p, T: int, b: int) -> bool:
    """Whether every gap of :func:`durations_from_positions` is at most
    ``2**b - 1`` frames, the widest that :func:`gray_encode` takes at ``b``
    bits: the rule for what ``b`` duration bits hold."""
    f_before, f_after = durations_from_positions(p, T)
    return int(max(f_before.max(), f_after.max())) < (1 << b)


def positions_from_durations(f_before, f_after) -> tuple[np.ndarray, int]:
    """Rebuild aligned positions and total frame count from gap counts.

    When ``f_after[i] != f_before[i+1]`` the later sample ``f_before[i+1]``
    wins, matching the decode-time reconciliation rule.
    """
    f_before = np.asarray(f_before, dtype=np.int64)
    f_after = np.asarray(f_after, dtype=np.int64)
    if f_before.shape != f_after.shape or f_before.ndim != 1 or f_before.size == 0:
        raise ValidationError("positions_from_durations: need equal-length non-empty gap arrays")
    positions = np.cumsum(f_before + 1)
    T = int(positions[-1] + f_after[-1])
    return positions, T


def chain_consistency(f_before, f_after) -> float:
    """Fraction of adjacent pairs satisfying f_after[i] == f_before[i+1]."""
    f_before = np.asarray(f_before, dtype=np.int64)
    f_after = np.asarray(f_after, dtype=np.int64)
    if f_before.size <= 1:
        return 1.0
    return float(np.mean(f_after[:-1] == f_before[1:]))
