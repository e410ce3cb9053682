"""Alignment-aware variational tokenizer: frames -> per-token latents -> frames.

The encoder is a masked transformer whose exclusion windows guarantee that
token i's latent mean depends only on transformer-input frames inside
[p_{i-1}+1, p_{i+1}-1]. Two architecturally identical decoders differ only
in their mask: the joint decoder attends globally, the streamable decoder
under the two-segment window, so a segment's frames need only its own
token's latent and the one before.

Loss = lambda_mel * multi-scale log-magnitude spectral L1
     + lambda_sem * frame-wise token/blank cross-entropy
     + lambda_kl  * per-token clamped mean-square of the latent means.
The adversarial terms of the full system carry zero weight here and are
not implemented.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from . import masks, nn
from . import numerics as nx
from .configline import check, ranged
from .errors import ValidationError
from .numerics import Tensor


@dataclass
class CodecConfig:
    d_frame: int = ranged(16, 1)
    d_latent: int = ranged(8, 1)
    d_model: int = ranged(64, 1)
    n_heads: int = ranged(4, 1)
    d_ff: int = ranged(128, 1)
    n_layers: int = ranged(2, 1)
    samples_per_frame: int = ranged(16, 1)
    vocab_size: int = ranged(32, 1)
    sigma0: float = ranged(0.5, 0)
    k_sigma: float = ranged(1.0, 1)
    kl_floor: float = ranged(0.5, 0)
    latent_dropout: float = ranged(0.1, 0, 1, below=True)
    lambda_mel: float = ranged(1.0, 0)
    lambda_sem: float = ranged(0.5, 0)
    lambda_kl: float = ranged(0.02, 0)
    noise_warmup_frac: float = ranged(0.25, 0, 1)  # fraction of steps trained on plain means
    spectral_windows: tuple[int, ...] = ranged((32, 64, 128), 4)  # the hop is window // 4

    def __post_init__(self):
        check(self)


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


def _per_sequence(draw, shape: tuple, seed, lengths) -> np.ndarray:
    """``draw(rng, shape)`` from ``default_rng(seed)``; with ``lengths``,
    one draw per run of consecutive rows from its own seed, stacked."""
    if lengths is None:
        return draw(np.random.default_rng(seed), shape)
    return np.concatenate([draw(np.random.default_rng(sd), (n, *shape[1:])) for sd, n in zip(seed, lengths)])


def reparameterize(
    s_mu: Tensor | np.ndarray, k_sigma: float, seed, sigma0: float = 0.5, lengths=None
) -> Tensor:
    """Sample s = s_mu + sigma * eps with sigma ~ |N(0, k_sigma * sigma0)|.

    The per-element scale draw is folded with eps into an additive constant,
    so gradients pass straight through to the means. With ``lengths``, the
    rows are consecutive utterances' latents and ``seed`` holds one seed
    per utterance: each draws exactly what it would draw alone.
    """
    mu = s_mu if isinstance(s_mu, Tensor) else nx.tensor(s_mu)

    def draw(rng, shape):
        sigma = np.abs(rng.normal(0.0, k_sigma * sigma0, size=shape))
        return sigma * rng.standard_normal(shape)

    return mu + nx.tensor(_per_sequence(draw, mu.shape, seed, lengths), dtype=mu.dtype.type)


def latent_dropout(s: Tensor, rate: float, seed, lengths=None) -> Tensor:
    """Zero each latent coordinate with probability ``rate``; survivors are
    scaled by 1/(1-rate) so the expectation is preserved. Training only.
    ``seed`` and ``lengths`` as in :func:`reparameterize`."""
    if rate == 0.0:
        return s
    keep = _per_sequence(lambda rng, shape: (rng.random(shape) >= rate) / (1.0 - rate), s.shape, seed, lengths)
    return nx.mul(s, nx.tensor(keep, dtype=s.dtype.type))


def scatter_latents(s, p: np.ndarray, T: int):
    """Sparse sequence with s_i at row p_i (1-based) and zeros elsewhere:
    taped for a Tensor ``s``, an ndarray for an ndarray."""
    p = np.asarray(p, dtype=np.int64)
    if p.size and (p.min() < 1 or p.max() > T):
        raise ValidationError(f"scatter_latents: positions outside [1, {T}]")
    if isinstance(s, Tensor):
        return nx.scatter_rows(s, p - 1, T)
    return nx.kernels.scatter_rows(s, p - 1, T)


# ---------------------------------------------------------------------------
# Multi-scale spectral loss machinery
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _dft_basis(window: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = np.arange(window)
    k = np.arange(window // 2 + 1)
    ang = 2.0 * np.pi * np.outer(n, k) / window
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * (n + 0.5) / window)
    return np.cos(ang).astype(dtype), -np.sin(ang).astype(dtype), hann.astype(dtype)


@functools.lru_cache(maxsize=1024)
def _frame_indices(n: int, window: int, hop: int) -> np.ndarray:
    n_frames = 1 + (n - window) // hop
    return (np.arange(n_frames)[:, None] * hop + np.arange(window)[None, :]).reshape(-1)


def log_magnitude_spectrogram(signal: Tensor, window: int, lengths=None) -> Tensor | None:
    """Hann-windowed log-magnitude DFT frames (hop = window / 4).

    With ``lengths``, the flat signal is consecutive sequences of those
    sample counts: each is framed on its own, and the frames of those at
    least one window long are stacked in order. Returns None when no
    sequence is as long as one window.
    """
    hop = window // 4
    lengths = [signal.size] if lengths is None else lengths
    starts = np.cumsum(lengths) - lengths
    parts = [_frame_indices(n, window, hop) + start for n, start in zip(lengths, starts) if n >= window]
    if not parts:
        return None
    idx = parts[0] if len(parts) == 1 else np.concatenate(parts)
    flat = nx.reshape(signal, (signal.size, 1))
    framed = nx.reshape(nx.gather_rows(flat, idx), (idx.size // window, window))
    cos_b, sin_b, hann = _dft_basis(window, signal.dtype)
    windowed = nx.mul(framed, nx.tensor(hann, dtype=signal.dtype.type))
    re = nx.matmul(windowed, nx.tensor(cos_b, dtype=signal.dtype.type))
    im = nx.matmul(windowed, nx.tensor(sin_b, dtype=signal.dtype.type))
    power = nx.square(re) + nx.square(im)
    return nx.log(nx.sqrt(power + 1e-10) + 1e-5)


def multiscale_spectral_l1(pred: Tensor, target: Tensor, windows=(32, 64, 128), lengths=None) -> Tensor:
    """Sum over scales of the L1 distance between log-magnitude spectra.

    With ``lengths`` (sample counts of consecutive sequences), the mean
    over the sequences of each one's own sum; a scale counts for the
    sequences at least one window long.
    """
    if pred.shape != target.shape:
        raise ValidationError(f"spectral loss: shapes {pred.shape} vs {target.shape}")
    lengths = np.array([pred.size] if lengths is None else lengths)
    fits = np.zeros(lengths.size, dtype=bool)
    total = None
    for window in windows:
        counts = np.where(lengths >= window, 1 + (lengths - window) // (window // 4), 0)
        if not counts.any():
            continue
        fits |= counts > 0
        a = log_magnitude_spectrogram(pred, window, lengths)
        b = log_magnitude_spectrogram(target, window, lengths)
        weights = None
        if lengths.size > 1:
            fit = counts[counts > 0]
            weights = np.repeat(1.0 / (lengths.size * fit * (window // 2 + 1)), fit)
        term = nx.l1_loss(a, b, weights)
        total = term if total is None else total + term
    if not fits.all():
        raise ValidationError("spectral loss: signal shorter than every window")
    return total


def pack_utterances(batch: list[dict]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Stacked frames, positions and frame counts of utterances packed in
    order: each utterance's 1-based positions shift by the frames before it."""
    lengths = [utt["frames"].shape[0] for utt in batch]
    starts = np.cumsum(lengths) - lengths
    frames = np.concatenate([utt["frames"] for utt in batch])
    p = np.concatenate([np.asarray(utt["positions"], dtype=np.int64) + start for utt, start in zip(batch, starts)])
    return frames, p, lengths


def _local_positions(p: np.ndarray, T: int, lengths) -> list[np.ndarray]:
    """Packed positions split into each sequence's own 1-based positions."""
    if sum(lengths) != T:
        raise ValidationError(f"sequence lengths {list(lengths)} do not sum to the {T} frames")
    ends = np.cumsum(lengths)
    bounds = np.searchsorted(p, ends, side="right")
    return [p[lo:hi] - (end - n) for lo, hi, end, n in zip(np.r_[0, bounds[:-1]], bounds, ends, lengths)]


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

    # Every pass below takes optional ``lengths``: the frames are then
    # consecutive utterances of those lengths, and ``p`` holds the 1-based
    # positions of all their tokens in the packed frames (see
    # ``pack_utterances``). Each utterance is computed as if alone.

    def frontend(self, frames, lengths=None):
        """Per-frame projection plus a kernel-3 local mixer (pre-transformer):
        taped for a Tensor ``frames``, on arrays of the parameters' dtype for
        an ndarray."""
        if not isinstance(frames, Tensor):
            frames = np.asarray(frames, dtype=nn.param_dtype(self.params))
        x = nn.linear(self.params, "enc/in_proj", frames)
        return x + nn.local_mix(self.params, "enc/mix", x, lengths)

    def encode_from_hidden(self, hidden, p: np.ndarray, lengths=None):
        """Masked transformer over prepared frame features; gather latent
        means. Taped for a Tensor ``hidden``, an ndarray for an ndarray."""
        p = np.asarray(p, dtype=np.int64)
        T = hidden.shape[0]
        ind = masks.indicator(p, T)
        lengths = [T] if lengths is None else lengths
        mask = [masks.encoder_mask(q, n) for q, n in zip(_local_positions(p, T, lengths), lengths)]
        table = self.params["enc/indicator"]
        taped = isinstance(hidden, Tensor)
        x = hidden + (nx.gather_rows(table, ind) if taped else table.data[ind])
        h = nn.stack(self.params, "enc/tf", x, mask, self.tf)
        return nn.linear(self.params, "enc/lat", nx.gather_rows(h, p - 1) if taped else h[p - 1])

    def encode(self, frames, p: np.ndarray, lengths=None) -> Tensor:
        """Latent means s_mu (L, d_latent) at the aligned positions, taped,
        as training needs them. :meth:`encode_from_hidden` of
        :meth:`frontend` of an ndarray gives them on arrays."""
        frames = nn.input_tensor(self.params, frames)
        return self.encode_from_hidden(self.frontend(frames, lengths), p, lengths)

    # -- decoders ----------------------------------------------------------

    def _decoder_input(self, dec: str, s, p: np.ndarray, T: int):
        """Decoder input rows: projected latents at the aligned frames plus
        the indicator embedding; taped for a Tensor ``s``, an ndarray for an
        ndarray."""
        z = scatter_latents(s, p, T)
        ind = masks.indicator(p, T)
        table = self.params[f"{dec}/indicator"]
        rows = nx.gather_rows(table, ind) if isinstance(z, Tensor) else table.data[ind]
        return nn.linear(self.params, f"{dec}/z_proj", z) + rows

    def decode(self, s, p: np.ndarray, T: int, mode: str = "joint", lengths=None) -> DecodedFrames:
        """Reconstruct (T, d_frame) features and (T, r) signal from latents.

        mode "joint" uses global attention, "streaming" the two-segment
        window mask (identical architecture, different mask).
        """
        if mode not in ("joint", "streaming"):
            raise ValidationError(f"decode: unknown mode {mode!r}")
        s = nn.input_tensor(self.params, s)
        p = np.asarray(p, dtype=np.int64)
        dec = "dec_joint" if mode == "joint" else "dec_stream"
        x = self._decoder_input(dec, s, p, T)
        lengths = [T] if lengths is None else lengths
        mask = [
            nn.full_mask(n) if mode == "joint" else masks.decoder_stream_mask(q, n)
            for q, n in zip(_local_positions(p, T, lengths), lengths)
        ]
        h = nn.stack(self.params, f"{dec}/tf", x, mask, self.tf)
        return DecodedFrames(
            features=nn.linear(self.params, f"{dec}/feat", h),
            signal=nn.linear(self.params, f"{dec}/sig", h),
            sem_logits=nn.linear(self.params, f"{dec}/sem", h),
        )

    def decode_streaming_segments(self, s, p: np.ndarray, T: int):
        """Streaming decode, yielded segment by segment.

        Yields (start, end, features, signal) with 1-based half-open frame
        ranges (start, end], the bounds of ``masks.segment_bounds``. The
        rows of segment (p_{i-1}, p_i] attend exactly the rows
        (p_{i-2}, p_i] (``masks.stream_windows``), so frames up to p_{i-1}
        never read a latent after token i - 1. One :func:`nn.stack_windows`
        pass decodes every segment: each layer's row-wise work runs once
        over all frames, and attention per segment on its window's keys.
        Outputs equal the full streaming pass up to floating-point round-off.
        """
        p = np.asarray(p, dtype=np.int64)
        windows = masks.stream_windows(p, T)
        s = np.asarray(s, dtype=nn.param_dtype(self.params))
        x = self._decoder_input("dec_stream", s, p, T)
        h = nn.stack_windows(self.params, "dec_stream/tf", x, windows, self.tf)
        feats = nn.linear(self.params, "dec_stream/feat", h)
        sig = nn.linear(self.params, "dec_stream/sig", h)
        for _, lo, hi in windows:
            yield lo, hi, feats[lo:hi], sig[lo:hi]

    def decode_streaming_full(self, s, p: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
        """Streaming decode as full (T, d_frame) features and (T, r) signal:
        :meth:`decode_streaming_segments`' segments, collected."""
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
    lengths=None,
) -> CodecLossReport:
    """Composite reconstruction objective: spectral L1, semantic CE and clamped KL.

    With ``lengths`` (packed utterances, as for :meth:`CodecModel.decode`),
    each term is the mean over the utterances of the utterance's own term.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    p = np.asarray(p, dtype=np.int64)
    T, r = pred.signal.shape
    tgt = target_signal
    if not isinstance(tgt, Tensor):
        tgt = nx.tensor(tgt, dtype=pred.signal.dtype.type)
    frames = np.array([T] if lengths is None else lengths)
    mel = multiscale_spectral_l1(
        nx.reshape(pred.signal, (-1,)), nx.reshape(tgt, (-1,)), config.spectral_windows,
        None if lengths is None else frames * r,
    )
    frame_targets = np.full(T, config.vocab_size, dtype=np.int64)  # blank
    frame_targets[p - 1] = tokens
    sem = nx.cross_entropy(pred.sem_logits, frame_targets, nn.sequence_weights(frames))
    per_token = nx.scale(nx.sum_(nx.square(s_mu), axis=1), 1.0 / config.d_latent)
    clamped = nx.maximum_const(per_token, config.kl_floor)
    kl = nn.sequence_mean(clamped, np.diff(np.searchsorted(p, np.cumsum(frames), side="right"), prepend=0))
    total = (
        nx.scale(mel, config.lambda_mel)
        + nx.scale(sem, config.lambda_sem)
        + nx.scale(kl, config.lambda_kl)
    )
    return CodecLossReport(mel=mel, sem=sem, kl=kl, total=total)


def codec_batch_loss(
    model: CodecModel, batch: list[dict], mode: str = "joint", seeds: list[tuple[int, int]] | None = None
) -> CodecLossReport:
    """Mean over ``batch`` of each utterance's :func:`codec_loss`, from one
    packed encode and one packed decode in ``mode``.

    ``seeds``, one (noise, dropout) pair per utterance, sample the latents
    with :func:`reparameterize` and :func:`latent_dropout`; without them
    the decoder sees the means. In streaming mode the encoder is frozen and
    records no tape: its KL term has no optimizer, and the decoder sees only
    the detached latents. Entries need keys: frames, signal, tokens,
    positions.
    """
    cfg = model.config
    frames, p, lengths = pack_utterances(batch)
    with nx.no_grad() if mode == "streaming" else contextlib.nullcontext():
        s_mu = model.encode(frames, p, lengths)
    s = s_mu
    if seeds is not None:
        counts = [np.size(utt["positions"]) for utt in batch]
        s = reparameterize(s_mu, cfg.k_sigma, [a for a, _ in seeds], cfg.sigma0, counts)
        s = latent_dropout(s, cfg.latent_dropout, [b for _, b in seeds], counts)
    dec = model.decode(s, p, frames.shape[0], mode, lengths)
    signal = np.concatenate([utt["signal"] for utt in batch])
    tokens = np.concatenate([utt["tokens"] for utt in batch])
    return codec_loss(dec, signal, tokens, p, s_mu, cfg, lengths)


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

    Each step is one :func:`codec_batch_loss` over a sampled batch, one
    packed pass with one backward. ``corpus`` entries need keys: frames,
    signal, tokens, positions.
    """
    rng = np.random.default_rng(seed)
    model = CodecModel(config, rng)

    def run_phase(n_steps: int, prefixes: tuple[str, ...], mode: str) -> None:
        warmup = int(n_steps * config.noise_warmup_frac)

        def loss(step: int, idx: np.ndarray) -> tuple[Tensor, dict]:
            seeds = None
            if step >= warmup:
                # sampling noise and dropout enter after the warm-up so
                # the latents carry signal before they must survive noise
                seeds = [(int(rng.integers(1 << 31)), int(rng.integers(1 << 31))) for _ in idx]
            report = codec_batch_loss(model, [corpus[i] for i in idx], mode, seeds)
            return report.total, report.floats()

        params = {k: p for k, p in model.params.items() if k.startswith(prefixes)}
        nx.fit(f"train_codec[{mode}]", params, loss, len(corpus), n_steps, batch_size, lr, rng, log_every)

    run_phase(steps, ("enc/", "dec_joint/"), "joint")
    run_phase(stream_steps, ("dec_stream/",), "streaming")
    return model
