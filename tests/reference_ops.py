"""Reference primitives that only tests use.

``rope``, ``slice_cols`` and ``transpose2d`` build attention head by head
from rank-2 pieces: the chain that the engine's head-batched
``split_heads`` and ``attention_heads`` are checked against. They record
tape nodes the way engine primitives do. ``encoder_mask`` builds the
encoder mask row by row, the loop ``masks.encoder_mask`` is checked against.
``ConcatStackCache`` and ``cached_stack_step`` are the one-stream cached
transformer step written plainly, the reference ``nn.stack_step`` is
checked against. ``layer_norm`` is the plain formula the in-place kernel
of that name is checked against.
``stream_decode_walk`` decodes one segment after another, each on a cache
of the previous segment's entries: the walk that the codec's one-pass
streaming decode is checked against.
``gray_encode``, ``gray_decode``, ``positions_from_durations`` and
``context_rows`` code one integer, one gap or one row at a time, the loops
``durbits`` and ``backbone.context_rows`` are checked against.
``softmax_masked`` is the masked softmax as a primitive of its own, which
the per-head reference attention uses.
``ctc_log_likelihood`` runs one CTC lattice per utterance, the reference
for the batched lattice of ``aligner.ctc_log_likelihood``;
``rotate_pairs`` swaps pairs by a fancy-indexed gather, and
``neighbour_rows`` is a concat, a row gather and a reshape whose gradient
``np.add.at`` sums, the forms the kernels and primitives of the same names
are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from tada import masks, nn
from tada import numerics as nx
from tada.aligner import NEG_INF, _extend_with_blanks, ctc_required_frames
from tada.errors import InfeasibleError, ShapeError, ValidationError
from tada.numerics import kernels
from tada.numerics.engine import Tensor, _accum, _make
from tada.numerics.kernels import _rope_angles


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
    cos2, sin2 = _rope_angles(d, positions, base, x.dtype)
    cos, sin = cos2[:, 0::2], sin2[:, 1::2]  # each pair's angle, once
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


class ConcatStackCache:
    """One stream's per-layer keys and values as (H, n, hd) arrays that
    every step concatenates onto."""

    def __init__(self, cfg):
        shape = (cfg.n_heads, 0, cfg.d_model // cfg.n_heads)
        self.keys = [np.zeros(shape) for _ in range(cfg.n_layers)]
        self.values = [np.zeros(shape) for _ in range(cfg.n_layers)]


def cached_stack_step(params, prefix, x, cache: ConcatStackCache, cfg):
    """``nn.stack_step`` on one stream, from separate q, k and v products,
    the pairwise rotary form, a cache grown by concatenation, a causal mask
    over the cached entries and the new rows, and a softmax that masks the
    scores, shifts them and masks again."""
    H, hd = cfg.n_heads, cfg.d_model // cfg.n_heads
    n = cache.keys[0].shape[1]
    positions = np.arange(n, n + len(x))
    mask = np.arange(n + len(x)) <= positions[:, None]
    cos2, sin2 = _rope_angles(hd, positions, cfg.rope_base, x.dtype)
    cos, sin = cos2[:, 0::2], sin2[:, 1::2]

    def lin(name, h):
        return kernels.linear(h, params[f"{name}/w"].data, params[f"{name}/b"].data)

    def ln(name, h):
        return kernels.layer_norm(h, params[f"{name}/g"].data, params[f"{name}/b"].data)[0]

    def heads(h):
        return h.reshape(len(h), H, hd).transpose(1, 0, 2)

    def rotated(h):
        out = np.empty(h.shape, dtype=h.dtype)
        he, ho = h[..., 0::2], h[..., 1::2]
        out[..., 0::2] = he * cos - ho * sin
        out[..., 1::2] = he * sin + ho * cos
        return out

    for i in range(cfg.n_layers):
        p = f"{prefix}/layer{i}"
        h = ln(f"{p}/ln1", x)
        q, k, v = rotated(heads(lin(f"{p}/wq", h))), rotated(heads(lin(f"{p}/wk", h))), heads(lin(f"{p}/wv", h))
        cache.keys[i] = np.concatenate([cache.keys[i], k], axis=1, dtype=k.dtype)
        cache.values[i] = np.concatenate([cache.values[i], v], axis=1, dtype=v.dtype)
        scores = (q @ np.ascontiguousarray(cache.keys[i].transpose(0, 2, 1))) * (1.0 / math.sqrt(hd))
        mx = np.where(mask, scores, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(np.where(mask, scores - mx, 0.0)) * mask
        w = e / e.sum(axis=-1, keepdims=True)
        x = x + lin(f"{p}/wo", (w @ cache.values[i]).transpose(1, 0, 2).reshape(len(x), H * hd))
        x = x + lin(f"{p}/ff2", kernels.gelu(lin(f"{p}/ff1", ln(f"{p}/ln2", x)))[0])
    return ln(f"{prefix}/ln_out", x)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Layer norm over the last axis as the plain formula."""
    mu = x.sum(axis=-1, keepdims=True) / x.shape[-1]
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / x.shape[-1]
    return xc * (1.0 / np.sqrt(var + eps)) * gain + bias


def stream_decode_walk(codec, s, p, T: int):
    """``CodecModel.decode_streaming_segments`` as a walk over the segments.

    Each segment runs every layer on its own rows, on a cache that holds
    that layer's rotated keys and values of the previous segment followed
    by its own: the entries the streaming window lets it see, and no
    others. Yields (start, end, features, signal) like the method.
    """
    params, cfg = codec.params, codec.tf
    p = np.asarray(p, dtype=np.int64)
    x_all = codec._decoder_input("dec_stream", np.asarray(s, dtype=nn.param_dtype(params)), p, T)
    previous = [None] * cfg.n_layers  # per layer, the previous segment's keys and values
    for lo, hi in masks.segment_bounds(p, T):
        x = x_all[lo:hi]
        for i in range(cfg.n_layers):
            cache = nn.LayerCache(cfg)
            if previous[i] is not None:
                cache.extend(*previous[i])
            mask = np.ones((hi - lo, cache.n + hi - lo), dtype=bool)
            x = nn.block(params, f"dec_stream/tf/layer{i}", x, mask, cfg, np.arange(lo, hi), cache)
            previous[i] = cache.keys[:, lo - hi :], cache.values[:, lo - hi :]
        h = nn.ln(params, "dec_stream/tf/ln_out", x)
        yield lo, hi, nn.linear(params, "dec_stream/feat", h), nn.linear(params, "dec_stream/sig", h)


def gray_encode(n: int, b: int) -> np.ndarray:
    """Gray code of one integer ``n`` as ``b`` bits, most significant first."""
    g = n ^ (n >> 1)
    return np.array([(g >> (b - 1 - i)) & 1 for i in range(b)], dtype=np.int64)


def gray_decode(bits) -> int:
    """Invert :func:`gray_encode` by a running XOR over MSB-first bits."""
    n = 0
    acc = 0
    for bit in np.asarray(bits, dtype=np.int64).tolist():
        acc ^= bit
        n = (n << 1) | acc
    return n


def positions_from_durations(f_before, f_after) -> tuple[np.ndarray, int]:
    """Aligned positions and frame count, one gap at a time."""
    positions = np.empty(len(f_before), dtype=np.int64)
    positions[0] = f_before[0] + 1
    for i in range(1, len(f_before)):
        positions[i] = positions[i - 1] + f_before[i] + 1
    return positions, int(positions[-1] + f_after[-1])


def context_rows(config, tokens, slots, steps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``backbone.context_rows`` with the acoustic rows copied one by one."""
    steps = np.asarray(steps)
    text = np.array([config.bos_id, *tokens, config.pad_id])
    ids = text[np.minimum(steps, text.size - 1)]
    slot = steps - config.k_shift - 1
    has_ac = (slot >= 0) & (slot < len(slots))
    acoustic = np.zeros((steps.size, config.d_acoustic))
    for row in range(steps.size):
        if has_ac[row]:
            acoustic[row] = slots[slot[row]]
    return ids, acoustic, has_ac


def softmax_masked(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over the positions where ``mask`` is true.

    Excluded positions get exactly zero weight and their input values never
    enter the computation (they are replaced before the exp), so outputs are
    bit-identical under arbitrary perturbation of excluded inputs.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise ShapeError("softmax_masked", f"mask shape {mask.shape} != input shape {x.shape}")
    if not np.all(mask.any(axis=axis)):
        raise ShapeError("softmax_masked", "a normalization slice has no included positions")
    safe = np.where(mask, x.data, -np.inf)
    m = safe.max(axis=axis, keepdims=True)
    shifted = np.where(mask, x.data - m, 0.0)
    e = np.exp(shifted) * mask
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(x, out * (g - dot))

    return _make("softmax_masked", out, (x,), backward)


def _ctc_lattice(y: np.ndarray, lab: np.ndarray, blank: int) -> np.ndarray:
    """The CTC recursion on one utterance's lattice: entry (t, s) sums every
    path prefix through frame t - 1 that may step to state s at frame t.
    ``_ctc_lattice(y[::-1], lab[::-1], blank)[::-1, ::-1]`` is beta."""
    T = y.shape[0]
    emit = y[:, lab]
    skip = np.flatnonzero((lab[2:] != blank) & (lab[2:] != lab[:-2])) + 2
    lattice = np.full((T, lab.size), NEG_INF)
    lattice[0, :2] = 0.0
    for t in range(1, T):
        prev = lattice[t - 1] + emit[t - 1]
        cur = prev.copy()
        cur[1:] = np.logaddexp(cur[1:], prev[:-1])
        cur[skip] = np.logaddexp(cur[skip], prev[skip - 2])
        lattice[t] = cur
    return lattice


def ctc_log_likelihood(log_probs, targets, blank: int | None = None, lengths=None) -> Tensor:
    """``aligner.ctc_log_likelihood`` with one lattice per utterance, and
    the occupancy added up utterance by utterance."""
    y_t = log_probs if isinstance(log_probs, Tensor) else nx.tensor(log_probs)
    y = y_t.data
    width = y.shape[1]
    blank = width - 1 if blank is None else blank
    packed = lengths is not None
    if not packed:
        lengths, targets = [y.shape[0]], [targets]
    if len(targets) != len(lengths) or sum(lengths) != y.shape[0]:
        raise ValidationError("ctc_log_likelihood: targets and lengths do not match the rows")
    seqs = []  # (rows, extended labels, alpha, log-likelihood)
    for T, end, tg in zip(lengths, np.cumsum(lengths), targets):
        tg = np.asarray(tg, dtype=np.int64)
        if T < ctc_required_frames(tg):
            raise InfeasibleError(f"ctc_log_likelihood: {T} frames cannot emit {tg.size} targets")
        rows = slice(end - T, end)
        lab = _extend_with_blanks(tg, blank)
        alpha = _ctc_lattice(y[rows], lab, blank) + y[rows][:, lab]
        seqs.append((rows, lab, alpha, float(np.logaddexp.reduce(alpha[T - 1, -2:]))))
    out = np.asarray([ll for *_, ll in seqs], dtype=y.dtype)

    def backward(g):
        grad = np.zeros_like(y)
        for (rows, lab, alpha, loglik), gi in zip(seqs, np.broadcast_to(g, out.shape)):
            beta = _ctc_lattice(y[rows][::-1], lab[::-1], blank)[::-1, ::-1]
            occupancy = np.exp(alpha + beta - loglik)
            block = grad[rows]
            idx = np.broadcast_to(np.arange(occupancy.shape[0])[:, None], occupancy.shape)
            np.add.at(block, (idx, np.broadcast_to(lab[None, :], occupancy.shape)), occupancy)
            block *= gi
        _accum(y_t, grad)

    return _make("ctc_log_likelihood", out if packed else out.reshape(()), (y_t,), backward)


def rotate_pairs(x: np.ndarray, cos2: np.ndarray, sin2: np.ndarray) -> np.ndarray:
    """``kernels.rotate_pairs`` with the pairs swapped by a fancy-indexed
    gather."""
    swap = np.arange(x.shape[-1]).reshape(-1, 2)[:, ::-1].reshape(-1)
    out = np.multiply(x, cos2, out=np.empty(x.shape, dtype=x.dtype))
    swapped = x[..., swap]
    swapped *= sin2
    out += swapped
    return out


def neighbour_rows(x: Tensor, lengths) -> Tensor:
    """``nx.neighbour_rows`` as a zero row concatenated below ``x``, a
    gather of each row's left, own and right rows (the zero row past a
    sequence's ends) and a reshape; the gather's backward sums with
    ``np.add.at``."""
    T, d = x.shape
    lengths = np.asarray(lengths)
    ends = np.cumsum(lengths)
    left, right = np.arange(T) - 1, np.arange(T) + 1
    left[ends - lengths] = T
    right[ends - 1] = T
    idx = np.stack([left, np.arange(T), right], axis=1).reshape(-1)
    padded = nx.concat([x, nx.zeros((1, d), dtype=x.dtype)], axis=0)
    return nx.reshape(nx.gather_rows(padded, idx), (T, 3 * d))
