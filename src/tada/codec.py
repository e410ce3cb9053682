"""Alignment-aware variational tokenizer: frames -> per-token latents -> frames.

The encoder is a masked transformer whose exclusion windows guarantee that
token i's latent mean depends only on transformer-input frames inside
[p_{i-1}+1, p_{i+1}-1]. Two architecturally identical decoders differ only
in their mask: the joint decoder attends globally, the streamable decoder
under the two-segment window so it can run with an evictable KV cache.

Loss = lambda_mel * multi-scale log-magnitude spectral L1
     + lambda_sem * frame-wise token/blank cross-entropy
     + lambda_kl  * per-token clamped mean-square of the latent means.
The adversarial terms of the full system carry zero weight here and are
not implemented.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import masks, nn
from . import numerics as nx
from .errors import NumericalAbort, ValidationError
from .numerics import Tensor


@dataclass
class CodecConfig:
    d_frame: int = 16
    d_latent: int = 8
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_layers: int = 2
    samples_per_frame: int = 16
    vocab_size: int = 32
    sigma0: float = 0.5
    k_sigma: float = 1.0
    kl_floor: float = 0.5
    latent_dropout: float = 0.1
    lambda_mel: float = 1.0
    lambda_sem: float = 0.5
    lambda_kl: float = 0.02
    noise_warmup_frac: float = 0.25  # fraction of steps trained on plain means
    spectral_windows: tuple[int, ...] = (32, 64, 128)


@dataclass
class DecodedFrames:
    """Decoder output bundle; tensors during training, arrays via .numpy()."""

    features: Tensor
    signal: Tensor
    sem_logits: Tensor

    def numpy(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.features.data), np.asarray(self.signal.data)


@dataclass
class CodecLossReport:
    mel: Tensor
    sem: Tensor
    kl: Tensor
    total: Tensor

    def floats(self) -> dict[str, float]:
        return {
            "mel": float(self.mel.data),
            "sem": float(self.sem.data),
            "kl": float(self.kl.data),
            "total": float(self.total.data),
        }


def reparameterize(s_mu: Tensor | np.ndarray, k_sigma: float, seed: int, sigma0: float = 0.5) -> Tensor:
    """Sample s = s_mu + sigma * eps with sigma ~ |N(0, k_sigma * sigma0)|.

    The per-element scale draw is folded with eps into an additive constant,
    so gradients pass straight through to the means.
    """
    if k_sigma < 1.0:
        raise ValidationError(f"reparameterize: k_sigma must be >= 1, got {k_sigma}")
    mu = s_mu if isinstance(s_mu, Tensor) else nx.tensor(s_mu)
    rng = np.random.default_rng(seed)
    sigma = np.abs(rng.normal(0.0, k_sigma * sigma0, size=mu.shape))
    eps = rng.standard_normal(mu.shape)
    return mu + nx.tensor(sigma * eps, dtype=mu.dtype.type)


def latent_dropout(s: Tensor, rate: float, seed: int) -> Tensor:
    """Zero each latent coordinate with probability ``rate``; survivors are
    scaled by 1/(1-rate) so the expectation is preserved. Training only."""
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"latent_dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return s
    rng = np.random.default_rng(seed)
    keep = (rng.random(s.shape) >= rate) / (1.0 - rate)
    return nx.mul(s, nx.tensor(keep, dtype=s.dtype.type))


def scatter_latents(s: Tensor, p: np.ndarray, T: int) -> Tensor:
    """Sparse sequence with s_i at row p_i (1-based) and zeros elsewhere."""
    p = np.asarray(p, dtype=np.int64)
    if p.size and (p.min() < 1 or p.max() > T):
        raise ValidationError(f"scatter_latents: positions outside [1, {T}]")
    return nx.scatter_rows(s, p - 1, T)


# ---------------------------------------------------------------------------
# Multi-scale spectral loss machinery
# ---------------------------------------------------------------------------


_DFT_CACHE: dict[tuple[int, str], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _dft_basis(window: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    key = (window, np.dtype(dtype).name)
    if key not in _DFT_CACHE:
        n = np.arange(window)
        k = np.arange(window // 2 + 1)
        ang = 2.0 * np.pi * np.outer(n, k) / window
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * (n + 0.5) / window)
        _DFT_CACHE[key] = (
            np.cos(ang).astype(dtype),
            -np.sin(ang).astype(dtype),
            hann.astype(dtype),
        )
    return _DFT_CACHE[key]


_FRAME_IDX_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _frame_indices(n: int, window: int, hop: int) -> np.ndarray:
    key = (n, window)
    idx = _FRAME_IDX_CACHE.get(key)
    if idx is None:
        n_frames = 1 + (n - window) // hop
        idx = (np.arange(n_frames)[:, None] * hop + np.arange(window)[None, :]).reshape(-1)
        if len(_FRAME_IDX_CACHE) > 1024:
            _FRAME_IDX_CACHE.clear()
        _FRAME_IDX_CACHE[key] = idx
    return idx


def log_magnitude_spectrogram(signal: Tensor, window: int) -> Tensor | None:
    """Hann-windowed log-magnitude DFT frames (hop = window / 4).

    Returns None when the signal is shorter than one window.
    """
    n = signal.size
    if n < window:
        return None
    hop = window // 4
    n_frames = 1 + (n - window) // hop
    idx = _frame_indices(n, window, hop)
    flat = nx.reshape(signal, (n, 1))
    framed = nx.reshape(nx.gather_rows(flat, idx), (n_frames, window))
    cos_b, sin_b, hann = _dft_basis(window, signal.dtype)
    windowed = nx.mul(framed, nx.tensor(hann, dtype=signal.dtype.type))
    re = nx.matmul(windowed, nx.tensor(cos_b, dtype=signal.dtype.type))
    im = nx.matmul(windowed, nx.tensor(sin_b, dtype=signal.dtype.type))
    power = nx.square(re) + nx.square(im)
    return nx.log(nx.sqrt(power + 1e-10) + 1e-5)


def multiscale_spectral_l1(pred: Tensor, target: Tensor, windows=(32, 64, 128)) -> Tensor:
    """Sum over scales of the L1 distance between log-magnitude spectra."""
    if pred.shape != target.shape:
        raise ValidationError(f"spectral loss: shapes {pred.shape} vs {target.shape}")
    total = None
    for window in windows:
        a = log_magnitude_spectrogram(pred, window)
        b = log_magnitude_spectrogram(target, window)
        if a is None or b is None:
            continue
        term = nx.l1_loss(a, b)
        total = term if total is None else total + term
    if total is None:
        raise ValidationError("spectral loss: signal shorter than every window")
    return total


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


class CodecModel:
    def __init__(self, config: CodecConfig, rng: np.random.Generator | None = None, params: dict | None = None):
        self.config = config
        self.tf = nn.TransformerConfig(
            n_layers=config.n_layers,
            d_model=config.d_model,
            n_heads=config.n_heads,
            d_ff=config.d_ff,
        )
        if params is not None:
            self.params = params
            return
        if rng is None:
            raise ValidationError("CodecModel: need rng or params")
        d = config.d_model
        self.params = {}
        nn.init_linear(self.params, "enc/in_proj", rng, config.d_frame, d)
        nn.init_linear(self.params, "enc/mix", rng, 3 * d, d)
        nn.init_embedding(self.params, "enc/indicator", rng, 2, d)
        nn.init_stack(self.params, "enc/tf", rng, self.tf)
        nn.init_linear(self.params, "enc/lat", rng, d, config.d_latent)
        for dec in ("dec_joint", "dec_stream"):
            nn.init_linear(self.params, f"{dec}/z_proj", rng, config.d_latent, d)
            nn.init_embedding(self.params, f"{dec}/indicator", rng, 2, d)
            nn.init_stack(self.params, f"{dec}/tf", rng, self.tf)
            nn.init_linear(self.params, f"{dec}/feat", rng, d, config.d_frame)
            nn.init_linear(self.params, f"{dec}/sig", rng, d, config.samples_per_frame)
            nn.init_linear(self.params, f"{dec}/sem", rng, d, config.vocab_size + 1)

    # -- encoder -----------------------------------------------------------

    def frontend(self, frames) -> Tensor:
        """Per-frame projection plus a kernel-3 local mixer (pre-transformer)."""
        x = nn.input_tensor(self.params, frames)
        T = x.shape[0]
        x = nn.linear(self.params, "enc/in_proj", x)
        zero = nx.zeros((1, x.shape[1]), dtype=x.dtype)
        left = nx.concat([zero, nx.gather_rows(x, np.arange(0, T - 1))], axis=0)
        right = nx.concat([nx.gather_rows(x, np.arange(1, T)), zero], axis=0)
        return x + nx.gelu(nn.linear(self.params, "enc/mix", nx.concat([left, x, right], axis=1)))

    def encode_from_hidden(self, hidden: Tensor, p: np.ndarray) -> Tensor:
        """Masked transformer over prepared frame features; gather latent means."""
        p = np.asarray(p, dtype=np.int64)
        T = hidden.shape[0]
        ind = masks.indicator(p, T)
        x = hidden + nx.embed(self.params["enc/indicator"], ind)
        h = nn.stack(self.params, "enc/tf", x, masks.encoder_mask(p, T), self.tf)
        return nn.linear(self.params, "enc/lat", nx.gather_rows(h, p - 1))

    def encode(self, frames, p: np.ndarray) -> Tensor:
        """Latent means s_mu (L, d_latent) at the aligned positions."""
        return self.encode_from_hidden(self.frontend(frames), p)

    # -- decoders ----------------------------------------------------------

    def _decode_stack(self, dec: str, s: Tensor, p: np.ndarray, T: int, mask: np.ndarray) -> Tensor:
        z = scatter_latents(s, p, T)
        ind = masks.indicator(p, T)
        x = nn.linear(self.params, f"{dec}/z_proj", z) + nx.embed(self.params[f"{dec}/indicator"], ind)
        return nn.stack(self.params, f"{dec}/tf", x, mask, self.tf)

    def decode(self, s, p: np.ndarray, T: int, mode: str = "joint") -> DecodedFrames:
        """Reconstruct (T, d_frame) features and (T, r) signal from latents.

        mode "joint" uses global attention, "streaming" the two-segment
        window mask (identical architecture, different mask).
        """
        if mode not in ("joint", "streaming"):
            raise ValidationError(f"decode: unknown mode {mode!r}")
        s = nn.input_tensor(self.params, s)
        dec = "dec_joint" if mode == "joint" else "dec_stream"
        mask = nn.full_mask(T) if mode == "joint" else masks.decoder_stream_mask(p, T)
        h = self._decode_stack(dec, s, p, T, mask)
        return DecodedFrames(
            features=nn.linear(self.params, f"{dec}/feat", h),
            signal=nn.linear(self.params, f"{dec}/sig", h),
            sem_logits=nn.linear(self.params, f"{dec}/sem", h),
        )

    def decode_streaming_segments(self, s, p: np.ndarray, T: int):
        """Segment-by-segment streaming decode with a two-segment KV cache.

        Yields (start, end, features, signal) with 1-based half-open frame
        ranges (start, end]; concatenated outputs equal the full streaming
        pass up to floating-point round-off. Cache entries older than the
        previous segment are evicted before each step.
        """
        s_arr = s.data if isinstance(s, Tensor) else np.asarray(s)
        p = np.asarray(p, dtype=np.int64)
        with nx.no_grad():
            z = np.zeros((T, self.config.d_latent), dtype=nn.param_dtype(self.params))
            z[p - 1] = s_arr
            ind = masks.indicator(p, T)
            x_all = nn.linear(self.params, "dec_stream/z_proj", Tensor(z)) + nx.embed(
                self.params["dec_stream/indicator"], ind
            )
            bounds = masks.segment_bounds(p, T)
            cache = nn.StackCache(self.tf)
            ext = np.concatenate([[0, 0], p])  # ext[i+1] = p_i
            for seg_idx, (lo, hi) in enumerate(bounds, start=1):
                if seg_idx <= p.size:
                    window_lo = int(ext[seg_idx - 1]) + 1  # p_{i-2} + 1, 1-based
                else:
                    window_lo = int(ext[p.size]) + 1  # trailing: p_{L-1} + 1
                cache.evict_upto(window_lo - 2)  # 0-based positions <= window_lo - 2
                rows = Tensor(x_all.data[lo:hi])
                h = nn.stack_step(
                    self.params,
                    "dec_stream/tf",
                    rows,
                    np.arange(lo, hi),
                    cache,
                    self.tf,
                    attend_from=window_lo - 2,
                )
                feats = nn.linear(self.params, "dec_stream/feat", h)
                sig = nn.linear(self.params, "dec_stream/sig", h)
                yield lo, hi, np.asarray(feats.data), np.asarray(sig.data)

    def decode_streaming_full(self, s, p: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
        """Streaming decode collected into full (T, d_frame) and (T, r) arrays."""
        dtype = nn.param_dtype(self.params)
        feats = np.zeros((T, self.config.d_frame), dtype=dtype)
        sig = np.zeros((T, self.config.samples_per_frame), dtype=dtype)
        for lo, hi, f, g in self.decode_streaming_segments(s, p, T):
            feats[lo:hi] = f
            sig[lo:hi] = g
        return feats, sig

    def save(self, path) -> None:
        nn.save_params(path, self.params, self.config)

    @classmethod
    def load(cls, path, dtype=None) -> "CodecModel":
        config, params = nn.load_params(path, CodecConfig, dtype)
        nn.check_params(path, params, lambda: cls(config, np.random.default_rng(0)).params)
        return cls(config, params=params)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def codec_loss(
    pred: DecodedFrames,
    target_signal,
    tokens: np.ndarray,
    p: np.ndarray,
    s_mu: Tensor,
    config: CodecConfig,
) -> CodecLossReport:
    """Composite reconstruction objective: spectral L1, semantic CE and clamped KL."""
    tokens = np.asarray(tokens, dtype=np.int64)
    p = np.asarray(p, dtype=np.int64)
    T = pred.features.shape[0]
    tgt = target_signal
    if not isinstance(tgt, Tensor):
        tgt = nx.tensor(tgt, dtype=pred.signal.dtype.type)
    mel = multiscale_spectral_l1(
        nx.reshape(pred.signal, (-1,)), nx.reshape(tgt, (-1,)), config.spectral_windows
    )
    frame_targets = np.full(T, config.vocab_size, dtype=np.int64)  # blank
    frame_targets[p - 1] = tokens
    sem = nx.cross_entropy(pred.sem_logits, frame_targets)
    per_token = nx.scale(nx.sum_(nx.square(s_mu), axis=1), 1.0 / config.d_latent)
    kl = nx.mean_(nx.maximum_const(per_token, config.kl_floor))
    total = (
        nx.scale(mel, config.lambda_mel)
        + nx.scale(sem, config.lambda_sem)
        + nx.scale(kl, config.lambda_kl)
    )
    return CodecLossReport(mel=mel, sem=sem, kl=kl, total=total)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train_codec(
    corpus: list[dict],
    config: CodecConfig,
    steps: int = 2000,
    stream_steps: int = 1500,
    batch_size: int = 8,
    lr: float = 2e-3,
    seed: int = 0,
    log_every: int = 0,
) -> CodecModel:
    """Two-phase training: encoder + joint decoder, then the streamable
    decoder with the encoder frozen.

    ``corpus`` entries need keys: frames, signal, tokens, positions.
    """
    rng = np.random.default_rng(seed)
    model = CodecModel(config, rng)
    enc_keys = [k for k in model.params if k.startswith("enc/")]
    joint_keys = [k for k in model.params if k.startswith("dec_joint/")]
    stream_keys = [k for k in model.params if k.startswith("dec_stream/")]

    def run_phase(n_steps: int, train_keys: list[str], mode: str, freeze_encoder: bool, tag: str):
        opt = nx.Adam({k: model.params[k] for k in train_keys}, lr=lr)
        warmup = int(n_steps * config.noise_warmup_frac)
        for step in range(n_steps):
            idx = rng.integers(0, len(corpus), size=min(batch_size, len(corpus)))
            opt.zero_grad()
            log = {}
            for j, i in enumerate(idx):
                utt = corpus[i]
                # A frozen encoder records no tape: its KL term has no
                # optimizer, and the decoder sees only the detached latents.
                with nx.no_grad() if freeze_encoder else contextlib.nullcontext():
                    s_mu = model.encode(utt["frames"], utt["positions"])
                if step >= warmup:
                    # sampling noise and dropout enter after the warm-up so
                    # the latents carry signal before they must survive noise
                    s = reparameterize(
                        s_mu, config.k_sigma, seed=int(rng.integers(1 << 31)), sigma0=config.sigma0
                    )
                    s = latent_dropout(s, config.latent_dropout, seed=int(rng.integers(1 << 31)))
                else:
                    s = s_mu
                dec = model.decode(s, utt["positions"], utt["frames"].shape[0], mode=mode)
                report = codec_loss(
                    dec, utt["signal"], utt["tokens"], utt["positions"], s_mu, config
                )
                loss = nx.scale(report.total, 1.0 / len(idx))
                if not np.isfinite(loss.data):
                    raise NumericalAbort(f"train_codec[{tag}]: diverged at step {step}")
                loss.backward()
                log = report.floats()
            opt.step()
            if log_every and step % log_every == 0:
                print(f"codec[{tag}] step {step}: {log}")

    run_phase(steps, enc_keys + joint_keys, "joint", freeze_encoder=False, tag="joint")
    run_phase(stream_steps, stream_keys, "streaming", freeze_encoder=True, tag="stream")
    return model
