"""Shared model plumbing: parameter dicts, linear/MLP layers, and masked
transformer blocks with rotary positions, built on the numerics engine.

Parameters live in a flat ``dict[str, Tensor]`` keyed by slash-separated
names so a whole model round-trips through the checkpoint container
unchanged. A model computes in the dtype of its parameters: the tensors it
builds from numpy inputs take that dtype (:func:`input_tensor`), whatever
the ambient ``nx.precision``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import configline
from . import numerics as nx
from .errors import ValidationError
from .numerics import Tensor


@dataclass
class TransformerConfig:
    n_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must divide evenly into heads")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError("head dimension must be even for rotary pairs")


# ---------------------------------------------------------------------------
# Parameter initialization helpers
# ---------------------------------------------------------------------------


def init_linear(params: dict, name: str, rng: np.random.Generator, d_in: int, d_out: int, std: float = 0.02) -> None:
    params[f"{name}/w"] = nx.randn((d_in, d_out), rng, std=std, requires_grad=True)
    params[f"{name}/b"] = nx.zeros((d_out,), requires_grad=True)


def linear(params: dict, name: str, x: Tensor) -> Tensor:
    return nx.linear(x, params[f"{name}/w"], params[f"{name}/b"])


def param_dtype(params: dict) -> type:
    """The dtype a model computes in: that of its parameters."""
    return next(iter(params.values())).dtype.type


def input_tensor(params: dict, x) -> Tensor:
    """``x`` as a constant tensor of the parameters' dtype; a tensor passes through."""
    return x if isinstance(x, Tensor) else nx.tensor(x, dtype=param_dtype(params))


def init_ln(params: dict, name: str, d: int) -> None:
    params[f"{name}/g"] = nx.ones((d,), requires_grad=True)
    params[f"{name}/b"] = nx.zeros((d,), requires_grad=True)


def ln(params: dict, name: str, x: Tensor) -> Tensor:
    return nx.layer_norm(x, params[f"{name}/g"], params[f"{name}/b"])


def init_embedding(params: dict, name: str, rng: np.random.Generator, rows: int, d: int, std: float = 0.02) -> None:
    params[name] = nx.randn((rows, d), rng, std=std, requires_grad=True)


def init_mlp(params: dict, prefix: str, rng: np.random.Generator, dims: list[int], std: float = 0.02) -> None:
    for i in range(len(dims) - 1):
        init_linear(params, f"{prefix}/fc{i}", rng, dims[i], dims[i + 1], std=std)


def mlp(params: dict, prefix: str, x: Tensor, n_layers: int) -> Tensor:
    """Stack of linear layers with GELU between them (none after the last)."""
    for i in range(n_layers):
        x = linear(params, f"{prefix}/fc{i}", x)
        if i < n_layers - 1:
            x = nx.gelu(x)
    return x


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
    x: Tensor,
    mask: np.ndarray,
    cfg: TransformerConfig,
    positions: np.ndarray,
    cache: LayerCache | None = None,
) -> Tensor:
    """Multi-head attention of the rows of ``x`` at ``positions``.

    Without ``cache`` the rows attend to each other and ``mask`` is (T, T).
    With ``cache`` they attend to the cached rows followed by themselves,
    ``mask`` has one column per such row, and their rotated keys and their
    values are appended to the cache.
    """
    q = nx.split_heads(linear(params, f"{prefix}/wq", x), cfg.n_heads, positions, cfg.rope_base)
    k = nx.split_heads(linear(params, f"{prefix}/wk", x), cfg.n_heads, positions, cfg.rope_base)
    v = nx.split_heads(linear(params, f"{prefix}/wv", x), cfg.n_heads)
    if cache is not None:
        k, v = cache.extend(k, v)
    return linear(params, f"{prefix}/wo", nx.attention_heads(q, k, v, mask))


def block(
    params: dict,
    prefix: str,
    x: Tensor,
    mask: np.ndarray,
    cfg: TransformerConfig,
    positions: np.ndarray,
    cache: LayerCache | None = None,
) -> Tensor:
    x = x + attention(params, prefix, ln(params, f"{prefix}/ln1", x), mask, cfg, positions, cache)
    h = linear(params, f"{prefix}/ff1", ln(params, f"{prefix}/ln2", x))
    return x + linear(params, f"{prefix}/ff2", nx.gelu(h))


def stack(
    params: dict,
    prefix: str,
    x: Tensor,
    mask: np.ndarray,
    cfg: TransformerConfig,
    positions: np.ndarray | None = None,
) -> Tensor:
    """Run the full transformer stack under one shared attention mask."""
    T = x.shape[0]
    if mask.shape != (T, T):
        raise ValueError(f"mask shape {mask.shape} does not match sequence length {T}")
    if positions is None:
        positions = np.arange(T)
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

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append new rows; return all cached keys and values."""
        self.keys = np.concatenate([self.keys, k.data], axis=1, dtype=k.dtype)
        self.values = np.concatenate([self.values, v.data], axis=1, dtype=v.dtype)
        return Tensor(self.keys), Tensor(self.values)

    def keep(self, rows: np.ndarray) -> None:
        self.keys = self.keys[:, rows]
        self.values = self.values[:, rows]


class StackCache:
    """Per-layer key/value caches for incremental decoding.

    Entries carry their absolute positions, so windowed eviction stays
    exact, and a stream label: one cache can hold several independent
    sequences, and an entry is attended to only from its own stream.
    """

    def __init__(self, cfg: TransformerConfig):
        self.cfg = cfg
        self.layers = [LayerCache(cfg) for _ in range(cfg.n_layers)]
        self.positions = np.zeros((0,), dtype=np.int64)
        self.streams = np.zeros((0,), dtype=np.int64)

    def evict_upto(self, position: int) -> None:
        """Drop all cached entries with absolute position <= ``position``."""
        keep = self.positions > position
        for layer in self.layers:
            layer.keep(keep)
        self.positions = self.positions[keep]
        self.streams = self.streams[keep]

    def __len__(self) -> int:
        return int(self.positions.size)


def stack_step(
    params: dict,
    prefix: str,
    x_new: Tensor,
    new_positions: np.ndarray,
    cache: StackCache,
    cfg: TransformerConfig,
    attend_from: int = -1,
    streams: np.ndarray | None = None,
    causal: bool = False,
) -> Tensor:
    """Append ``x_new`` rows to the cache and return their outputs.

    ``streams`` labels each new row (default: all stream 0). A new row
    attends to a cached entry or a new row when it has the row's stream and
    a position greater than ``attend_from``, and, with ``causal``, a
    position no greater than the row's own. Without ``causal`` the chunk
    has no order inside it. Excluded entries never enter the softmax, so
    one stream's values never reach another stream's outputs.
    """
    new_streams = np.zeros(new_positions.size, dtype=np.int64) if streams is None else np.asarray(streams)
    with nx.no_grad():
        positions = np.concatenate([cache.positions, new_positions])
        all_streams = np.concatenate([cache.streams, new_streams])
        mask = (all_streams == new_streams[:, None]) & (positions > attend_from)
        if causal:
            mask &= positions <= new_positions[:, None]
        x = x_new
        for i, layer in enumerate(cache.layers):
            x = block(params, f"{prefix}/layer{i}", x, mask, cfg, new_positions, layer)
        cache.positions = positions
        cache.streams = all_streams
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
