"""Shared model plumbing: parameter dicts, linear/MLP layers, and masked
transformer blocks with rotary positions, built on the numerics engine.

Parameters live in a flat ``dict[str, Tensor]`` keyed by slash-separated
names so a whole model round-trips through the checkpoint container
unchanged. A model computes in the dtype of its parameters: the tensors it
builds from numpy inputs take that dtype (:func:`input_tensor`), whatever
the ambient ``nx.precision``.

The layers (:func:`linear`, :func:`ln`, :func:`gelu`, :func:`mlp`,
:func:`attention`, :func:`block`, :func:`stack`) take either input. A
``Tensor`` runs the engine's taped primitives, as training does. An
ndarray runs the same formulas as array kernels (``nx.kernels``) on the
parameters' arrays and returns an ndarray, recording nothing, as the rest
of inference does. Attention on arrays is always a cached pass: an ndarray
:func:`stack` runs on a fresh :class:`StackCache`, :func:`stack_step` on
the cache its caller keeps, which may hold several streams that step in
lockstep, and :func:`stack_windows` on a :class:`WindowCache` per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import configline
from . import numerics as nx
from .errors import ValidationError
from .numerics import Tensor, kernels


@dataclass
class TransformerConfig:
    n_layers: int = configline.ranged(2, 1)
    d_model: int = configline.ranged(64, 1)
    n_heads: int = configline.ranged(4, 1)
    d_ff: int = configline.ranged(256, 1)
    rope_base: float = 10000.0

    def __post_init__(self):
        configline.check(self)
        head_dim, rest = divmod(self.d_model, self.n_heads)
        if rest:
            raise ValidationError(f"TransformerConfig: d_model {self.d_model} must divide evenly into {self.n_heads} heads")
        if head_dim % 2:
            raise ValidationError(f"TransformerConfig: head dimension {head_dim} must be even for rotary pairs")


# ---------------------------------------------------------------------------
# Parameter initialization helpers
# ---------------------------------------------------------------------------


def init_linear(params: dict, name: str, rng: np.random.Generator, d_in: int, d_out: int, std: float = 0.02) -> None:
    params[f"{name}/w"] = nx.randn((d_in, d_out), rng, std=std, requires_grad=True)
    params[f"{name}/b"] = nx.zeros((d_out,), requires_grad=True)


def linear(params: dict, name: str, x):
    w, b = params[f"{name}/w"], params[f"{name}/b"]
    if isinstance(x, Tensor):
        return nx.linear(x, w, b)
    return kernels.linear(x, w.data, b.data)


def param_dtype(params: dict) -> type:
    """The dtype a model computes in: that of its parameters."""
    return next(iter(params.values())).dtype.type


def input_tensor(params: dict, x) -> Tensor:
    """``x`` as a constant tensor of the parameters' dtype; a tensor passes through."""
    return x if isinstance(x, Tensor) else nx.tensor(x, dtype=param_dtype(params))


def init_ln(params: dict, name: str, d: int) -> None:
    params[f"{name}/g"] = nx.ones((d,), requires_grad=True)
    params[f"{name}/b"] = nx.zeros((d,), requires_grad=True)


def ln(params: dict, name: str, x):
    g, b = params[f"{name}/g"], params[f"{name}/b"]
    if isinstance(x, Tensor):
        return nx.layer_norm(x, g, b)
    return kernels.layer_norm(x, g.data, b.data)[0]


def gelu(x):
    return nx.gelu(x) if isinstance(x, Tensor) else kernels.gelu(x)[0]


def init_embedding(params: dict, name: str, rng: np.random.Generator, rows: int, d: int, std: float = 0.02) -> None:
    params[name] = nx.randn((rows, d), rng, std=std, requires_grad=True)


def init_mlp(params: dict, prefix: str, rng: np.random.Generator, dims: list[int], std: float = 0.02) -> None:
    for i in range(len(dims) - 1):
        init_linear(params, f"{prefix}/fc{i}", rng, dims[i], dims[i + 1], std=std)


def mlp(params: dict, prefix: str, x, n_layers: int):
    """Stack of linear layers with GELU between them (none after the last)."""
    for i in range(n_layers):
        x = linear(params, f"{prefix}/fc{i}", x)
        if i < n_layers - 1:
            x = gelu(x)
    return x


def local_mix(params: dict, name: str, x, lengths=None):
    """Kernel-3 neighbour mixer: GELU of a linear map of each row beside its
    left and right neighbours; taped for a Tensor ``x``, on arrays for an
    ndarray.

    The rows are consecutive sequences of the given ``lengths`` (default:
    one sequence), and each sequence sees zero rows past either of its ends,
    so no row mixes with another sequence's.
    """
    lengths = [x.shape[0]] if lengths is None else lengths
    if isinstance(x, Tensor):
        rows = nx.neighbour_rows(x, lengths)
    else:
        rows = kernels.neighbour_rows(x, lengths)[0]
    return gelu(linear(params, name, rows))


def init_block(params: dict, prefix: str, rng: np.random.Generator, cfg: TransformerConfig) -> None:
    d = cfg.d_model
    init_ln(params, f"{prefix}/ln1", d)
    init_linear(params, f"{prefix}/wq", rng, d, d)
    init_linear(params, f"{prefix}/wk", rng, d, d)
    init_linear(params, f"{prefix}/wv", rng, d, d)
    init_linear(params, f"{prefix}/wo", rng, d, d)
    init_ln(params, f"{prefix}/ln2", d)
    init_linear(params, f"{prefix}/ff1", rng, d, cfg.d_ff)
    init_linear(params, f"{prefix}/ff2", rng, cfg.d_ff, d)


def init_stack(params: dict, prefix: str, rng: np.random.Generator, cfg: TransformerConfig) -> None:
    for i in range(cfg.n_layers):
        init_block(params, f"{prefix}/layer{i}", rng, cfg)
    init_ln(params, f"{prefix}/ln_out", cfg.d_model)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def attention(
    params: dict,
    prefix: str,
    x,
    mask,
    cfg: TransformerConfig,
    positions: np.ndarray,
    cache: LayerCache | None = None,
):
    """Multi-head attention of the rows of ``x`` at ``positions``: taped
    for a Tensor ``x``, cached (on ``cache``) for an ndarray.

    Taped, the rows attend to each other: ``mask`` is (T, T), or a list of
    per-sequence (L_i, L_i) masks when the rows are a packed run of
    sequences (see :func:`stack`). Cached, the rows are L rows of each of
    the cache's S streams, stream after stream; their rotated keys and
    their values are appended to ``cache``, and each stream's rows attend
    to that stream's cached rows followed by its own new rows. ``mask``,
    shared by every stream, has one column per such row, is None when they
    attend all of them, or, on an empty cache, is a packed run's list of
    masks. A :class:`WindowCache` returns instead each block's window of
    the rows, and ``mask`` holds one block per window, as
    :func:`kernels.attention_heads` takes it. The cached path takes q, k
    and v from one product with the cache's ``wq|wk|wv`` columns and
    rotates q and k in one call, as 2H heads.
    """
    H, d = cfg.n_heads, cfg.d_model
    if isinstance(x, Tensor):
        q = nx.split_heads(linear(params, f"{prefix}/wq", x), H, positions, cfg.rope_base)
        k = nx.split_heads(linear(params, f"{prefix}/wk", x), H, positions, cfg.rope_base)
        v = nx.split_heads(linear(params, f"{prefix}/wv", x), H)
        return linear(params, f"{prefix}/wo", nx.attention_heads(q, k, v, mask))
    S = cache.streams
    qkv = kernels.linear(x, *cache.qkv_weights(params, prefix))
    qk = kernels.split_heads(qkv[:, : 2 * d], 2 * H, positions, cfg.rope_base)[0]
    v = qkv[:, 2 * d :].reshape(-1, H, d // H).transpose(1, 0, 2)
    kt, v = cache.extend(_stream_heads(qk[H:], S), _stream_heads(v, S))
    out = kernels.attention_heads(_stream_heads(qk[:H], S), kt, v, mask)[0]
    return linear(params, f"{prefix}/wo", _stream_rows(out, S))


def _stream_heads(heads: np.ndarray, streams: int) -> np.ndarray:
    """(H, S * L, hd) heads of S streams' rows, stream after stream, as
    (S * H, L, hd): stream s's heads at ``s * H .. s * H + H - 1``."""
    if streams == 1:
        return heads
    H, _, hd = heads.shape
    return heads.reshape(H, streams, -1, hd).swapaxes(0, 1).reshape(streams * H, -1, hd)


def _stream_rows(out: np.ndarray, streams: int) -> np.ndarray:
    """The (L, S * d) output of S * H heads as (S * L, d) rows, stream after stream."""
    if streams == 1:
        return out
    L = out.shape[0]
    return out.reshape(L, streams, -1).swapaxes(0, 1).reshape(streams * L, -1)


def block(
    params: dict,
    prefix: str,
    x,
    mask,
    cfg: TransformerConfig,
    positions: np.ndarray,
    cache: LayerCache | None = None,
):
    """One pre-norm transformer layer; ``mask`` and ``cache`` as in :func:`attention`."""
    x = x + attention(params, prefix, ln(params, f"{prefix}/ln1", x), mask, cfg, positions, cache)
    h = linear(params, f"{prefix}/ff1", ln(params, f"{prefix}/ln2", x))
    return x + linear(params, f"{prefix}/ff2", gelu(h))


def sequence_positions(lengths) -> np.ndarray:
    """Positions 0, 1, ... restarting at each of consecutive sequences."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def stack(
    params: dict,
    prefix: str,
    x,
    mask,
    cfg: TransformerConfig,
    positions: np.ndarray | None = None,
):
    """Run the full transformer stack: taped for a Tensor ``x``; for an
    ndarray, a cached pass (:func:`stack_step`'s code) on a fresh
    :class:`StackCache`.

    ``mask`` is one (T, T) mask over the rows, or, for a packed run, a list
    of per-sequence masks: the rows are then consecutive sequences, mask i
    is sequence i's own (L_i, L_i) block, and a row attends only within its
    own sequence. Positions default to 0, 1, ... restarting per sequence.
    """
    T = x.shape[0]
    masks = mask if isinstance(mask, list) else [mask]
    lengths = [m.shape[0] for m in masks]
    if any(m.shape != (n, n) for m, n in zip(masks, lengths)) or sum(lengths) != T:
        shapes = [m.shape for m in masks] if isinstance(mask, list) else mask.shape
        raise ValueError(f"mask shape {shapes} does not match sequence length {T}")
    if positions is None:
        positions = sequence_positions(lengths)
    layers = [None] * cfg.n_layers if isinstance(x, Tensor) else StackCache(cfg).layers
    for i, layer in enumerate(layers):
        x = block(params, f"{prefix}/layer{i}", x, mask, cfg, positions, layer)
    return ln(params, f"{prefix}/ln_out", x)


def causal_mask(T: int) -> np.ndarray:
    return np.tril(np.ones((T, T), dtype=bool))


def full_mask(T: int) -> np.ndarray:
    return np.ones((T, T), dtype=bool)


# ---------------------------------------------------------------------------
# Incremental decoding with per-layer key/value caches
# ---------------------------------------------------------------------------


def _room_for(buf: np.ndarray, n0: int, n: int, axis: int, dtype) -> np.ndarray:
    """``buf`` if its ``axis`` holds ``n`` entries of ``dtype``; else a new
    buffer of at least double the capacity, holding its first ``n0``."""
    if n <= buf.shape[axis] and buf.dtype == dtype:
        return buf
    shape = list(buf.shape)
    shape[axis] = max(n, 2 * buf.shape[axis], LayerCache.FIRST_CAPACITY)
    grown = np.empty(shape, dtype=dtype)
    kept = (slice(None),) * axis + (slice(0, n0),)
    grown[kept] = buf[kept]
    return grown


class LayerCache:
    """One layer's cached keys and values: ``n`` entries of each of
    ``streams`` sequences.

    The streams are a batch axis of the heads: stream s's heads are rows
    ``s * H .. s * H + H - 1`` of each buffer, so one attention call
    serves every stream and a stream's rows meet its own keys only. Keys
    are stored after the rotary rotation, so a step rotates only its own
    new rows, and transposed, as attention multiplies by them. Both buffers
    grow in place by doubling their capacity, so appending copies only the
    new rows. The cache holds the dtype of the rows it is given. It also
    keeps the layer's ``wq|wk|wv`` weights concatenated (:meth:`qkv_weights`),
    so a cache serves one model.
    """

    FIRST_CAPACITY = 16

    def __init__(self, cfg: TransformerConfig, streams: int = 1):
        H, hd = cfg.n_heads, cfg.d_model // cfg.n_heads
        self.streams = streams
        self.n = 0
        self._kt = np.zeros((streams * H, hd, 0))  # (S * H, hd, capacity)
        self._v = np.zeros((streams * H, 0, hd))  # (S * H, capacity, hd)
        self._qkv: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def capacity(self) -> int:
        return self._v.shape[1]

    @property
    def keys(self) -> np.ndarray:
        """The cached rotated keys, (S * H, n, hd), as a view."""
        return self._kt[:, :, : self.n].transpose(0, 2, 1)

    @property
    def values(self) -> np.ndarray:
        """The cached values, (S * H, n, hd), as a view."""
        return self._v[:, : self.n]

    def qkv_weights(self, params: dict, prefix: str) -> tuple[np.ndarray, np.ndarray]:
        """The ``wq|wk|wv`` weight columns and biases of layer ``prefix``,
        concatenated on the first call."""
        if self._qkv is None:
            names = [f"{prefix}/{w}" for w in ("wq", "wk", "wv")]
            self._qkv = (
                np.concatenate([params[f"{name}/w"].data for name in names], axis=1),
                np.concatenate([params[f"{name}/b"].data for name in names]),
            )
        return self._qkv

    def extend(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append new (S * H, m, hd) rows; return views of all cached keys,
        transposed to (S * H, hd, n), and values, (S * H, n, hd)."""
        n0, n = self.n, self.n + k.shape[1]
        self._kt = _room_for(self._kt, n0, n, 2, k.dtype)
        self._v = _room_for(self._v, n0, n, 1, v.dtype)
        self._kt[:, :, n0:n] = k.transpose(0, 2, 1)
        self._v[:, n0:n] = v
        self.n = n
        return self._kt[:, :, :n], self._v[:, :n]


class WindowCache(LayerCache):
    """One layer's keys and values for a single pass in which each block of
    rows attends a window of the pass's own rows.

    :meth:`extend` takes the keys and values of every row at once and
    returns, block after block, those of the rows in each block's window:
    the packed keys of :func:`kernels.attention_heads`, with one block per
    window. Keys come back transposed, (H, hd, n), C-ordered as a
    :class:`LayerCache` holds them. Nothing is kept between calls.
    """

    def __init__(self, cfg: TransformerConfig, window_rows: np.ndarray):
        super().__init__(cfg)
        self.window_rows = window_rows

    def extend(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.take(k.transpose(0, 2, 1), self.window_rows, axis=2), v[:, self.window_rows]


class StackCache:
    """Per-layer key/value caches for incremental decoding of ``streams``
    sequences that step in lockstep.

    Each layer holds the streams as a batch axis of its heads
    (:class:`LayerCache`), so a step of every stream is one call per layer,
    and a stream attends over its own entries only. Every stream holds
    ``len(cache)`` entries, at positions ``0 .. len(cache) - 1``.
    """

    def __init__(self, cfg: TransformerConfig, streams: int = 1):
        if streams < 1:
            raise ValidationError(f"StackCache: streams must be >= 1, got {streams}")
        self.cfg = cfg
        self.streams = streams
        self.layers = [LayerCache(cfg, streams) for _ in range(cfg.n_layers)]
        self.n = 0

    def __len__(self) -> int:
        return self.n


def stack_step(params: dict, prefix: str, x_new: np.ndarray, cache: StackCache, cfg: TransformerConfig) -> np.ndarray:
    """The array :func:`stack` on a cache the caller keeps: append L new
    rows of each of the cache's S streams and return their outputs, on
    arrays through the kernels.

    ``x_new`` is (S * L, d): the streams' rows, stream after stream. A
    stream's new rows sit at positions ``len(cache) + 0 .. L - 1`` and
    attend causally to each other and to every cached entry of their own
    stream. A one-row step attends with no mask, as its row sees every
    entry; a longer one takes one (L, len(cache) + L) causal mask, shared
    by every head and stream.
    """
    S, n = cache.streams, len(cache)
    L, extra = divmod(x_new.shape[0], S)
    if extra or L < 1:
        raise ValueError(f"{x_new.shape[0]} new rows do not split into {S} streams")
    new = np.arange(n, n + L)
    mask = None if L == 1 else np.arange(n + L) <= new[:, None]
    positions = np.tile(new, S)
    x = x_new
    for i, layer in enumerate(cache.layers):
        x = block(params, f"{prefix}/layer{i}", x, mask, cfg, positions, layer)
    cache.n = n + L
    return ln(params, f"{prefix}/ln_out", x)


def stack_windows(params: dict, prefix: str, x: np.ndarray, windows, cfg: TransformerConfig) -> np.ndarray:
    """The array :func:`stack` in which each block of rows attends every
    row of its own window, and no other.

    ``windows`` holds 0-based ``(start, lo, hi)``, in row order: rows
    ``lo..hi-1`` attend rows ``start..hi-1``. The blocks tile the rows, and
    row t sits at position t. Each layer runs its row-wise work (norms,
    projections, rotation, feed-forward) once over all rows; only attention
    runs per block, on the keys a :class:`WindowCache` gathers, each block
    passed as its all-true shape, so no mask is built or applied.
    """
    window_rows = np.concatenate([np.arange(start, hi) for start, _, hi in windows])
    blocks = [(hi - lo, hi - start) for start, lo, hi in windows]
    positions = np.arange(x.shape[0])
    for i in range(cfg.n_layers):
        x = block(params, f"{prefix}/layer{i}", x, blocks, cfg, positions, WindowCache(cfg, window_rows))
    return ln(params, f"{prefix}/ln_out", x)


def save_params(path, params: dict, config) -> None:
    """Write a model checkpoint: its parameters and its config line."""
    arrays = {k: p.data for k, p in params.items()}
    arrays[configline.ARRAY_NAME] = configline.to_array(config)
    nx.save_arrays(path, arrays)


def load_params(path, config_cls, dtype=None) -> tuple:
    """The config and the trainable parameters of a ``save_params`` checkpoint.

    The parameters keep the checkpoint's float32 unless ``dtype`` is given
    (``np.float64`` for a float64 check).
    """
    arrays = nx.load_arrays(path)
    config = configline.from_array(config_cls, arrays.pop(configline.ARRAY_NAME, None), path)
    return config, {
        k: nx.tensor(v, requires_grad=True, dtype=v.dtype.type if dtype is None else dtype)
        for k, v in arrays.items()
    }


def check_params(path, params: dict, init) -> None:
    """Raise :class:`ValidationError` naming ``path`` unless ``params`` holds
    exactly the arrays, by name and shape, that ``init()`` creates.

    ``init`` builds a fresh model's parameter dict; it runs under
    ``nx.shapes_only``, so no weight is drawn.
    """
    with nx.shapes_only():
        expected = {k: p.shape for k, p in init().items()}
    problems = [
        ("missing", sorted(expected.keys() - params.keys())),
        ("unexpected", sorted(params.keys() - expected.keys())),
        ("misshaped", sorted(k for k in expected.keys() & params.keys() if params[k].shape != expected[k])),
    ]
    found = [f"{what} {_names(keys)}" for what, keys in problems if keys]
    if found:
        raise ValidationError(f"{path}: arrays do not match the checkpoint's config: {'; '.join(found)}")


def _names(keys: list[str], limit: int = 4) -> str:
    more = f" and {len(keys) - limit} more" if len(keys) > limit else ""
    return ", ".join(keys[:limit]) + more
