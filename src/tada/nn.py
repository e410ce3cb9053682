"""Shared model plumbing: parameter dicts, linear/MLP layers, and masked
transformer blocks with rotary positions, built on the numerics engine.

Parameters live in a flat ``dict[str, Tensor]`` keyed by slash-separated
names so a whole model round-trips through the checkpoint container
unchanged. A model computes in the dtype of its parameters: the tensors it
builds from numpy inputs take that dtype (:func:`input_tensor`), whatever
the ambient ``nx.precision``.

The layers (:func:`linear`, :func:`ln`, :func:`gelu`, :func:`mlp`,
:func:`attention`, :func:`block`) take either input. A ``Tensor`` runs the
engine's taped primitives, as training and :func:`stack` do. An ndarray
runs the same formulas as array kernels (``nx.kernels``) on the
parameters' arrays and returns an ndarray, recording nothing, as
:func:`stack_step` and the rest of inference do.
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
    n_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.n_heads < 1:
            raise ValidationError(f"TransformerConfig: n_heads must be >= 1, got {self.n_heads}")
        if self.d_model % self.n_heads != 0:
            raise ValidationError(
                f"TransformerConfig: d_model {self.d_model} must divide evenly into {self.n_heads} heads"
            )
        head_dim = self.d_model // self.n_heads
        if head_dim < 2 or head_dim % 2 != 0:
            raise ValidationError(
                f"TransformerConfig: head dimension {head_dim} must be even and positive for rotary pairs"
            )


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


def local_mix(params: dict, name: str, x: Tensor, lengths=None) -> Tensor:
    """Kernel-3 neighbour mixer: GELU of a linear map of each row beside its
    left and right neighbours.

    The rows are consecutive sequences of the given ``lengths`` (default:
    one sequence), and each sequence sees zero rows past either of its ends,
    so no row mixes with another sequence's.
    """
    T, d = x.shape
    lengths = np.array([T] if lengths is None else lengths)
    ends = np.cumsum(lengths)
    left, right = np.arange(T) - 1, np.arange(T) + 1
    left[ends - lengths] = T  # row T of ``padded`` is the zero row
    right[ends - 1] = T
    padded = nx.concat([x, nx.zeros((1, d), dtype=x.dtype)], axis=0)
    rows = nx.gather_rows(padded, np.stack([left, np.arange(T), right], axis=1).reshape(-1))
    return nx.gelu(linear(params, name, nx.reshape(rows, (T, 3 * d))))


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
    """Multi-head attention of the rows of ``x`` at ``positions``.

    Without ``cache`` the rows attend to each other: ``mask`` is (T, T), or
    a list of per-sequence (L_i, L_i) masks when the rows are a packed run
    of sequences (see :func:`stack`). With ``cache`` (ndarray rows only)
    they attend to the cached rows followed by themselves, ``mask`` has one
    column per such row, and their rotated keys and their values are
    appended to the cache.
    """
    q = _heads(linear(params, f"{prefix}/wq", x), cfg, positions)
    k = _heads(linear(params, f"{prefix}/wk", x), cfg, positions)
    v = _heads(linear(params, f"{prefix}/wv", x), cfg)
    if cache is not None:
        k, v = cache.extend(k, v)
    if isinstance(q, Tensor):
        heads = nx.attention_heads(q, k, v, mask)
    else:
        heads = kernels.attention_heads(q, k, v, mask)[0]
    return linear(params, f"{prefix}/wo", heads)


def _heads(x, cfg: TransformerConfig, positions: np.ndarray | None = None):
    """(H, T, hd) heads of ``x``, rotated by ``positions`` when given."""
    if isinstance(x, Tensor):
        return nx.split_heads(x, cfg.n_heads, positions, cfg.rope_base)
    return kernels.split_heads(x, cfg.n_heads, positions, cfg.rope_base)[0]


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
    x: Tensor,
    mask,
    cfg: TransformerConfig,
    positions: np.ndarray | None = None,
) -> Tensor:
    """Run the full transformer stack.

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
    for i in range(cfg.n_layers):
        x = block(params, f"{prefix}/layer{i}", x, mask, cfg, positions)
    return ln(params, f"{prefix}/ln_out", x)


def causal_mask(T: int) -> np.ndarray:
    return np.tril(np.ones((T, T), dtype=bool))


def full_mask(T: int) -> np.ndarray:
    return np.ones((T, T), dtype=bool)


# ---------------------------------------------------------------------------
# Incremental decoding with per-layer key/value caches
# ---------------------------------------------------------------------------


class LayerCache:
    """One layer's cached keys and values, (H, n, hd) each.

    Keys are stored after the rotary rotation, so a step rotates only its
    own new rows. The cache holds the dtype of the rows it is given.
    """

    def __init__(self, cfg: TransformerConfig):
        shape = (cfg.n_heads, 0, cfg.d_model // cfg.n_heads)
        self.keys = np.zeros(shape)
        self.values = np.zeros(shape)

    def extend(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append new rows; return all cached keys and values."""
        self.keys = np.concatenate([self.keys, k], axis=1, dtype=k.dtype)
        self.values = np.concatenate([self.values, v], axis=1, dtype=v.dtype)
        return self.keys, self.values

    def keep(self, rows: np.ndarray) -> None:
        self.keys = self.keys[:, rows]
        self.values = self.values[:, rows]


class StackCache:
    """Per-layer key/value caches for incremental decoding.

    Entries carry their absolute positions and a stream label, so a caller
    can build each step's mask from them: one cache can hold several
    independent sequences, or a window that drops its oldest entries.
    """

    def __init__(self, cfg: TransformerConfig):
        self.cfg = cfg
        self.layers = [LayerCache(cfg) for _ in range(cfg.n_layers)]
        self.positions = np.zeros((0,), dtype=np.int64)
        self.streams = np.zeros((0,), dtype=np.int64)

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the entries that ``rows`` (a boolean mask or indices) selects."""
        for layer in self.layers:
            layer.keep(rows)
        self.positions = self.positions[rows]
        self.streams = self.streams[rows]

    def __len__(self) -> int:
        return int(self.positions.size)


def stack_step(
    params: dict,
    prefix: str,
    x_new: np.ndarray,
    new_positions: np.ndarray,
    cache: StackCache,
    cfg: TransformerConfig,
    mask: np.ndarray,
    streams: np.ndarray | None = None,
) -> np.ndarray:
    """The cached twin of :func:`stack`: append ``x_new`` rows to the cache
    and return their outputs, on arrays through the kernels.

    ``mask`` is (n_new, len(cache) + n_new): row r of it says which cached
    entries, then which new rows, new row r attends to. Excluded entries
    never enter the softmax. The new rows' positions and ``streams`` labels
    (default: all stream 0) are appended to the cache.
    """
    n_new = new_positions.size
    if mask.shape != (n_new, len(cache) + n_new):
        raise ValueError(f"mask shape {mask.shape} does not match {n_new} new rows after {len(cache)} cached")
    new_streams = np.zeros(n_new, dtype=np.int64) if streams is None else np.asarray(streams)
    x = x_new
    for i, layer in enumerate(cache.layers):
        x = block(params, f"{prefix}/layer{i}", x, mask, cfg, new_positions, layer)
    cache.positions = np.concatenate([cache.positions, new_positions])
    cache.streams = np.concatenate([cache.streams, new_streams])
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
