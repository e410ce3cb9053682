"""Conditional flow-matching head over packed latent + duration-bit targets.

Training regresses a conditioned vector field onto the straight-path
velocity ``y1 - (1 - sigma_min) * y0`` at interpolated points
``y_t = t*y1 + (1 - (1 - sigma_min)*t)*y0``; sampling integrates the field
with a fixed-step Euler solver from Gaussian noise. Classifier-free
guidance extrapolates only the first ``d_latent`` dimensions; the trailing
2b duration-bit dimensions bypass guidance entirely.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import nn
from . import numerics as nx
from .errors import NumericalAbort, ValidationError
from .numerics import Tensor


@dataclass
class FlowConfig:
    d_latent: int = 8
    bits: int = 8
    d_cond: int = 128
    d_time: int = 32
    width: int = 256
    n_hidden: int = 3
    sigma_min: float = 1e-5

    @property
    def d_target(self) -> int:
        return self.d_latent + 2 * self.bits


_TIME_FREQS: dict[int, np.ndarray] = {}  # d_time -> (1, d_time // 2) frequencies


def time_embedding(t: np.ndarray, d_time: int, dtype=np.float64) -> np.ndarray:
    """Sinusoidal features of t in [0, 1]; constant w.r.t. the graph."""
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    freqs = _TIME_FREQS.get(d_time)
    if freqs is None:
        freqs = _TIME_FREQS[d_time] = np.exp(np.linspace(0.0, np.log(1000.0), d_time // 2))[None, :]
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(dtype)


class VectorFieldModel:
    """MLP v(y_t, t | c) over the concatenated [y_t, time features, c].

    :meth:`field` is the taped reference. :meth:`field_np` is the sampler's
    path: the first layer is split by input block, so the condition's share
    (:meth:`cond_rows`) is computed once per token, not once per Euler step.
    """

    def __init__(
        self,
        config: FlowConfig,
        rng: np.random.Generator | None = None,
        params: dict | None = None,
        prefix: str = "flow",
    ):
        self.config = config
        self.prefix = prefix
        self.n_layers = len(self.layer_dims(config)) - 1
        if params is not None:
            self.params = params
            return
        if rng is None:
            raise ValidationError("VectorFieldModel: need rng or params")
        self.params = {}
        nn.init_mlp(self.params, prefix, rng, self.layer_dims(config))

    @staticmethod
    def layer_dims(config: FlowConfig) -> list[int]:
        d_in = config.d_target + config.d_time + config.d_cond
        return [d_in] + [config.width] * config.n_hidden + [config.d_target]

    @classmethod
    def init_into(cls, params: dict, prefix: str, config: FlowConfig, rng: np.random.Generator) -> "VectorFieldModel":
        """Initialize fresh field parameters inside an existing param dict."""
        nn.init_mlp(params, prefix, rng, cls.layer_dims(config))
        return cls(config, params=params, prefix=prefix)

    def field(self, y_t, t, cond) -> Tensor:
        """Vector field at a batch of points; all inputs row-aligned."""
        y_t = nn.input_tensor(self.params, y_t)
        cond = nn.input_tensor(self.params, cond)
        n = y_t.shape[0]
        t = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1), (n,))
        temb = nx.tensor(time_embedding(t, self.config.d_time, y_t.dtype.type))
        if cond.shape[0] == 1 and n > 1:
            cond = nx.concat([cond] * n, axis=0)
        x = nx.concat([y_t, temb, cond], axis=1)
        return self._hidden(nn.linear(self.params, f"{self.prefix}/fc0", x))

    def _hidden(self, h):
        """The layers after the first, from the first layer's pre-activation
        (a Tensor or an ndarray, as :func:`nn.linear` takes)."""
        for i in range(1, self.n_layers):
            h = nn.linear(self.params, f"{self.prefix}/fc{i}", nn.gelu(h))
        return h

    def _first_layer_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row blocks of ``fc0/w`` that multiply y_t, the time features and c."""
        w = self.params[f"{self.prefix}/fc0/w"].data
        d_y, d_t = self.config.d_target, self.config.d_time
        return w[:d_y], w[d_y : d_y + d_t], w[d_y + d_t :]

    def cond_rows(self, cond: np.ndarray) -> np.ndarray:
        """The condition's share of the first pre-activation, ``c @ W_c + b``.

        It does not depend on (y_t, t), so a sampler computes it once per
        token and branch and passes it to every :meth:`field_np` step.
        """
        cond = np.asarray(cond, dtype=nn.param_dtype(self.params))
        if cond.ndim != 2 or cond.shape[1] != self.config.d_cond:
            raise ValidationError(f"cond_rows: cond must be (n, {self.config.d_cond}), got {cond.shape}")
        return cond @ self._first_layer_blocks()[2] + self.params[f"{self.prefix}/fc0/b"].data

    def field_np(self, y: np.ndarray, t: float, cond_rows: np.ndarray) -> np.ndarray:
        """The field on arrays at scalar time t, given :meth:`cond_rows` of
        the condition; it records no tape.

        ``cond_rows`` holds one row per row of ``y`` (or a single row for all).
        Equals :meth:`field` up to the summation order of the first layer.
        """
        y = np.asarray(y, dtype=nn.param_dtype(self.params))
        if cond_rows.shape[0] not in (1, y.shape[0]):
            raise ValidationError(f"field_np: {cond_rows.shape[0]} condition rows for {y.shape[0]} points")
        w_y, w_t, _ = self._first_layer_blocks()
        temb = time_embedding(t, self.config.d_time, y.dtype.type)
        return self._hidden(y @ w_y + temb @ w_t + cond_rows)


def interpolate(y1, y0, t, sigma_min: float) -> np.ndarray:
    """y_t = t * y1 + (1 - (1 - sigma_min) * t) * y0, rows weighted by t."""
    y1 = np.asarray(y1, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0) or np.any(t > 1):
        raise ValidationError("interpolate: t must lie in [0, 1]")
    t = t.reshape(-1, *([1] * (y1.ndim - 1))) if t.ndim else t
    return t * y1 + (1.0 - (1.0 - sigma_min) * t) * y0


def _row_noise(row: np.ndarray, seed: int) -> tuple[float, np.ndarray]:
    """Per-row (t, y0) draw keyed by (seed, row content).

    Hash-derived seeding makes the loss invariant under batch permutation
    while staying deterministic per seed.
    """
    digest = hashlib.blake2b(
        np.ascontiguousarray(row, dtype=np.float64).tobytes() + seed.to_bytes(8, "little", signed=True),
        digest_size=8,
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    return float(rng.random()), rng.standard_normal(row.size)


def flow_loss(
    model: VectorFieldModel,
    targets: np.ndarray,
    cond: Tensor | np.ndarray,
    sigma_min: float,
    seed: int,
) -> Tensor:
    """Mean over rows of || v(y_t, t | c) - (y1 - (1 - sigma_min) y0) ||^2.

    t ~ U(0,1) per row, y0 ~ N(0, I) per element, both derived from
    (seed, target row), so the loss is deterministic per seed and invariant
    under permutation of the batch.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2:
        raise ValidationError(f"flow_loss: targets must be (n, d), got {targets.shape}")
    n = targets.shape[0]
    t = np.empty(n)
    y0 = np.empty_like(targets)
    for i in range(n):
        t[i], y0[i] = _row_noise(targets[i], seed)
    y_t = interpolate(targets, y0, t, sigma_min)
    velocity = targets - (1.0 - sigma_min) * y0
    v = model.field(y_t, t, cond)
    diff = v - nx.tensor(velocity, dtype=v.dtype.type)
    return nx.mean_(nx.sum_(nx.square(diff), axis=1))


def cfg_combine(v_pos: np.ndarray, v_neg: np.ndarray, scale: float, d_guided: int) -> np.ndarray:
    """Guide the first ``d_guided`` dims: v_neg + scale * (v_pos - v_neg);
    the remaining dims pass the positive branch through unchanged."""
    v_pos = np.asarray(v_pos, dtype=np.float64)
    v_neg = np.asarray(v_neg, dtype=np.float64)
    if v_pos.shape != v_neg.shape:
        raise ValidationError(f"cfg_combine: shapes {v_pos.shape} vs {v_neg.shape}")
    out = v_pos.copy()
    if scale == 1.0:  # exact conditional sampling, no round-off from the blend
        return out
    out[..., :d_guided] = v_neg[..., :d_guided] + scale * (
        v_pos[..., :d_guided] - v_neg[..., :d_guided]
    )
    return out


def euler_sample(
    field,
    config: FlowConfig,
    n_steps: int,
    cfg_scale: float,
    seed: int,
    n_samples: int = 1,
) -> np.ndarray:
    """Integrate the guided field from Gaussian noise over ``n_steps``.

    ``field`` is a callable (y, t) -> velocity rows, row-aligned with y.
    With guidance on (``cfg_scale != 1``) each step makes one call on the
    stacked rows ``[y; y]``: the first half is the positive branch, the
    second half the negative one. At ``cfg_scale == 1`` it gets ``y`` alone.
    Deterministic given (seed, field, config, n_steps, cfg_scale).
    """
    d = config.d_target
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n_samples, d))
    guided = cfg_scale != 1.0
    for k in range(n_steps):
        t = k / n_steps
        v = field(np.concatenate([y, y]) if guided else y, t)
        if not np.all(np.isfinite(v)):
            raise NumericalAbort(f"euler_sample: non-finite field at Euler step {k}")
        if guided:
            v = cfg_combine(v[:n_samples], v[n_samples:], cfg_scale, config.d_latent)
        y = y + v / n_steps
        if not np.all(np.isfinite(y)):
            raise NumericalAbort(f"euler_sample: non-finite state at Euler step {k}")
    return y


# ---------------------------------------------------------------------------
# Analytic oracle fields for integrator verification
# ---------------------------------------------------------------------------


def point_mass_field(y_target: np.ndarray, sigma_min: float):
    """Exact conditional field for a point-mass target.

    Along y_t = t*y1 + (1-(1-s)t)*y0 the velocity is constant, so Euler
    reproduces the exact flow for any step count.
    """
    y_target = np.asarray(y_target, dtype=np.float64)

    def field(y: np.ndarray, t: float) -> np.ndarray:
        y0 = (y - t * y_target) / (1.0 - (1.0 - sigma_min) * t)
        return y_target - (1.0 - sigma_min) * y0

    return field


def gaussian_target_field(mu: np.ndarray, spread: float, sigma_min: float):
    """Closed-form marginal field for a Gaussian target N(mu, spread^2 I).

    The point-mass conditional path widened to a non-degenerate target: the
    marginal at time t is N(t*mu, a(t)^2 I) with
    a(t)^2 = t^2 spread^2 + (1 - (1 - sigma_min) t)^2, the field is
    mu + (a'(t)/a(t)) (y - t*mu), and the exact flow map is available in
    closed form, so Euler's genuine O(1/N) error can be measured directly.

    Returns (field, terminal) where terminal(y_start) is the exact endpoint.
    """
    mu = np.asarray(mu, dtype=np.float64)

    def a(t: float) -> float:
        return np.sqrt(t * t * spread * spread + (1.0 - (1.0 - sigma_min) * t) ** 2)

    def adot_over_a(t: float) -> float:
        return (t * spread * spread - (1.0 - sigma_min) * (1.0 - (1.0 - sigma_min) * t)) / (
            a(t) ** 2
        )

    def field(y: np.ndarray, t: float) -> np.ndarray:
        return mu + adot_over_a(t) * (y - t * mu)

    def terminal(y_start: np.ndarray) -> np.ndarray:
        return mu + a(1.0) * np.asarray(y_start, dtype=np.float64)

    return field, terminal


def two_point_field(mu_a: np.ndarray, mu_b: np.ndarray, w_a: float, sigma_min: float):
    """Marginal field for a two-point-mass target mixture.

    The posterior-weighted blend of the two conditional point-mass fields;
    it curves in time, so fixed-step Euler shows genuine first-order error.
    """
    mu_a = np.asarray(mu_a, dtype=np.float64)
    mu_b = np.asarray(mu_b, dtype=np.float64)

    def field(y: np.ndarray, t: float) -> np.ndarray:
        a_t = 1.0 - (1.0 - sigma_min) * t
        var = max(a_t * a_t, 1e-12)
        d2a = ((y - t * mu_a) ** 2).sum(axis=-1)
        d2b = ((y - t * mu_b) ** 2).sum(axis=-1)
        la = np.log(w_a) - 0.5 * d2a / var
        lb = np.log(1.0 - w_a) - 0.5 * d2b / var
        m = np.maximum(la, lb)
        ra = np.exp(la - m)
        rb = np.exp(lb - m)
        wa = (ra / (ra + rb))[..., None]
        va = mu_a - (1.0 - sigma_min) * (y - t * mu_a) / a_t
        vb = mu_b - (1.0 - sigma_min) * (y - t * mu_b) / a_t
        return wa * va + (1.0 - wa) * vb

    return field


def euler_integrate(field, y_start: np.ndarray, n_steps: int) -> np.ndarray:
    """Plain fixed-step Euler for analytic fields (no guidance, no RNG)."""
    y = np.array(y_start, dtype=np.float64)
    for k in range(n_steps):
        y = y + field(y, k / n_steps) / n_steps
    return y
