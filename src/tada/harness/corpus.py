"""Synthetic corpus with ground truth known by construction.

Every token of an utterance is rendered as a run of 1..6 frames whose
feature vectors come from a deterministic template of (token id, speaker,
frames-remaining-in-run), plus Gaussian noise; gap frames use a
speaker-colored silence template. The ground-truth aligned position of a
token is the last frame of its run (frames-remaining 0), which gives CTC
training a single maximally frequent feature class per token to
concentrate its emission peaks on.

Frame feature layout (d_frame = 16), the encoder/aligner observation:

    dims 0..8   token identity vector (zero during gaps)
    dims 9..11  [voiced flag, remaining-frames ramp, final-frame marker]
    dims 12..15 speaker hum: projection of the 16-dim speaker parameters

The per-frame 1-D signal (r samples) is a sum of sinusoids at integer
per-frame DFT bins: the token id selects the main tone's bin and amplitude
level, frames-remaining the amplitude of a low bin, and the speaker a
(DC, high-bin) amplitude direction. Integer bins are orthogonal over one
frame and their magnitudes are independent of phase, so the phase-blind
multi-scale spectral reconstruction loss can drive a decoder toward
signals the nearest-template oracle classifies exactly; the oracle matches
per-frame DFT-bin magnitudes and never looks at phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import configline
from ..aligner import filter_alignment
from ..errors import ValidationError
from ..numerics import load_arrays, save_arrays

TOKEN_DIMS = 9
MARK_DIMS = 3
SPK_DIMS = 4
HEADER = "#synthconfig "


@dataclass
class SynthConfig:
    vocab_size: int = configline.ranged(32, 1)
    n_speakers: int = configline.ranged(4, 1)
    d_frame: int = configline.ranged(16, TOKEN_DIMS + MARK_DIMS + SPK_DIMS, TOKEN_DIMS + MARK_DIMS + SPK_DIMS)
    samples_per_frame: int = configline.ranged(16, 1)
    dur_min: int = configline.ranged(1, 1)
    dur_max: int = configline.ranged(6, 1)
    gap_min: int = configline.ranged(0, 0)
    gap_max: int = configline.ranged(3, 0)
    tokens_min: int = configline.ranged(3, 1)
    tokens_max: int = configline.ranged(10, 1)
    noise: float = configline.ranged(0.05, 0)
    seed: int = configline.ranged(0, 0)

    def __post_init__(self):
        configline.check(self)
        if self.dur_max < self.dur_min or self.gap_max < self.gap_min:
            raise ValidationError("SynthConfig: invalid duration law")
        if self.tokens_max < self.tokens_min:
            raise ValidationError(f"SynthConfig: tokens_max {self.tokens_max} is below tokens_min {self.tokens_min}")


class TemplateBank:
    """Deterministic feature/signal templates derived from the corpus seed."""

    def __init__(self, config: SynthConfig):
        self.config = config
        rng = np.random.default_rng(config.seed ^ 0x5EED)
        V, S = config.vocab_size, config.n_speakers
        tok = rng.standard_normal((V, TOKEN_DIMS))
        self.token_vec = tok / np.linalg.norm(tok, axis=1, keepdims=True)
        spk = rng.standard_normal((S, 16))
        self.speaker_param = spk / np.linalg.norm(spk, axis=1, keepdims=True)
        self.speaker_proj = rng.standard_normal((16, SPK_DIMS)) / np.sqrt(16)
        frame = self.speaker_param @ self.speaker_proj
        self.speaker_frame = frame / np.linalg.norm(frame, axis=1, keepdims=True)
        # Signal tone plan on integer per-frame DFT bins (orthogonal over a
        # frame, phase-free magnitudes). Token: bin 2..6 at one of 7 levels;
        # frames-remaining: bin 1 amplitude; speaker: a (DC, bin 7) direction.
        r = config.samples_per_frame
        n_token_bins = max(2, (V + 6) // 7)
        if n_token_bins + 2 >= r // 2:
            raise ValidationError("SynthConfig: vocabulary too large for the tone plan")
        self.token_bin = 2 + np.arange(V) % n_token_bins
        self.token_amp = 0.5 + 0.3 * (np.arange(V) // n_token_bins)
        self.rem_bin = 1
        self.rem_amp = 0.5 + 0.3 * np.arange(config.dur_max)
        self.speaker_bin = 2 + n_token_bins
        angles = np.deg2rad(np.linspace(10.0, 88.0, S))
        self.speaker_dc = 1.2 * np.cos(angles)
        self.speaker_hi = 1.2 * np.sin(angles)
        self._grid = (np.arange(r) + 0.5) / r
        self.tones = np.stack([self._tone(b) for b in range(self.speaker_bin + 1)])  # row b: bin b
        # Markov text distribution: each token prefers a few successors.
        trans = np.full((V, V), 0.02)
        for w in range(V):
            successors = rng.choice(V, size=6, replace=False)
            trans[w, successors] += rng.dirichlet(np.ones(6)) * 4.0
        self.transition = trans / trans.sum(axis=1, keepdims=True)

    def _tone(self, bin_index: int) -> np.ndarray:
        return np.sin(2.0 * np.pi * bin_index * self._grid)

    def _speaker_component(self, speaker: int) -> np.ndarray:
        return self.speaker_dc[speaker] + self.speaker_hi[speaker] * self._tone(self.speaker_bin)

    def signal_template(self, token: int, speaker: int, remaining: int) -> np.ndarray:
        return (
            self.token_amp[token] * self._tone(self.token_bin[token])
            + self.rem_amp[remaining] * self._tone(self.rem_bin)
            + self._speaker_component(speaker)
        )

    def silence_signal(self, speaker: int) -> np.ndarray:
        return 0.3 * self._speaker_component(speaker)

    def n_magnitude_bins(self) -> int:
        return self.speaker_bin + 1  # DC .. speaker bin

    def speaker_signal_profile(self, speaker: int) -> np.ndarray:
        """Unit-norm (DC, high-bin) amplitude direction of this speaker."""
        prof = np.array([self.speaker_dc[speaker], self.speaker_hi[speaker]])
        return prof / np.linalg.norm(prof)

    def all_templates(self) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
        """Stacked signal templates and (token, speaker, remaining) labels.

        Silence templates carry the label (-1, speaker, -1).
        """
        cfg = self.config
        rows, labels = [], []
        for w in range(cfg.vocab_size):
            for s in range(cfg.n_speakers):
                for rem in range(cfg.dur_max):
                    rows.append(self.signal_template(w, s, rem))
                    labels.append((w, s, rem))
        for s in range(cfg.n_speakers):
            rows.append(self.silence_signal(s))
            labels.append((-1, s, -1))
        return np.stack(rows), labels

    def sample_tokens(self, rng: np.random.Generator, length: int) -> np.ndarray:
        V = self.config.vocab_size
        out = np.empty(length, dtype=np.int64)
        out[0] = rng.integers(V)
        for i in range(1, length):
            out[i] = rng.choice(V, p=self.transition[out[i - 1]])
        return out


@dataclass
class UttRecord:
    utt_id: int
    speaker: int
    tokens: np.ndarray
    positions: np.ndarray  # 1-based ground-truth p, last frame of each run
    T: int

    def to_line(self) -> str:
        toks = ",".join(map(str, self.tokens.tolist()))
        pos = ",".join(map(str, self.positions.tolist()))
        return f"id={self.utt_id} speaker={self.speaker} T={self.T} tokens={toks} p={pos}"

    @classmethod
    def from_line(cls, line: str, where: str = "manifest record") -> "UttRecord":
        try:
            kv = dict(item.split("=", 1) for item in line.split())
            rec = cls(
                utt_id=int(kv["id"]),
                speaker=int(kv["speaker"]),
                tokens=np.array([int(x) for x in kv["tokens"].split(",")], dtype=np.int64),
                positions=np.array([int(x) for x in kv["p"].split(",")], dtype=np.int64),
                T=int(kv["T"]),
            )
        except KeyError as exc:
            raise ValidationError(f"{where}: missing key {exc} in {line!r}") from None
        except ValueError:
            raise ValidationError(f"{where}: cannot parse record {line!r}") from None
        if rec.tokens.size != rec.positions.size:
            raise ValidationError(f"{where}: {rec.tokens.size} tokens but {rec.positions.size} positions")
        return rec

    def check(self, config: SynthConfig, where: str = "manifest record") -> None:
        """Raise :class:`ValidationError` unless the speaker, the token ids
        and the positions lie in the ranges ``config`` and ``T`` allow."""
        if not 0 <= self.speaker < config.n_speakers:
            raise ValidationError(f"{where}: speaker {self.speaker} outside [0, {config.n_speakers})")
        bad = self.tokens[(self.tokens < 0) | (self.tokens >= config.vocab_size)]
        if bad.size:
            raise ValidationError(f"{where}: token id {bad[0]} outside [0, {config.vocab_size})")
        p = self.positions
        if p[0] < 1 or p[-1] > self.T or np.any(np.diff(p) <= 0):
            raise ValidationError(f"{where}: positions must increase strictly within 1..{self.T}")


@dataclass
class Manifest:
    config: SynthConfig
    records: list[UttRecord] = field(default_factory=list)

    def save(self, path) -> None:
        lines = [f"{HEADER}{configline.to_line(self.config)}"]
        lines += [r.to_line() for r in self.records]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "Manifest":
        lines = configline.utf8(Path(path).read_bytes(), path).splitlines()
        if not lines or not lines[0].startswith(HEADER):
            raise ValidationError(f"{path}: missing #synthconfig header")
        config = configline.from_line(SynthConfig, lines[0][len(HEADER) :], f"{path} line 1")
        records = []
        for i, ln in enumerate(lines[1:], start=2):
            if ln.strip():
                rec = UttRecord.from_line(ln, f"{path} line {i}")
                rec.check(config, f"{path} line {i}")
                records.append(rec)
        return cls(config=config, records=records)


def _render_utterance(
    bank: TemplateBank,
    rng: np.random.Generator,
    tokens: np.ndarray,
    speaker: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames, signal, and ground-truth positions for one utterance.

    The runs are laid out gap 0, token 0, gap 1, ..., token L-1, gap L.
    A voiced frame holds its token's vector, the marks [1, remaining-frames
    ramp, final-frame flag] and the speaker hum, and its signal is
    :meth:`TemplateBank.signal_template`; a gap frame holds only a fainter
    hum and :meth:`~TemplateBank.silence_signal`. All rows are built at
    once from each frame's token and frames-remaining index.
    """
    cfg = bank.config
    L = tokens.size
    durs = rng.integers(cfg.dur_min, cfg.dur_max + 1, size=L)
    gaps = rng.integers(cfg.gap_min, cfg.gap_max + 1, size=L + 1)
    runs = np.zeros(2 * L + 1, dtype=np.int64)
    runs[0::2], runs[1::2] = gaps, durs
    ends = np.cumsum(runs)
    T = int(ends[-1])
    run_token = np.full(2 * L + 1, -1, dtype=np.int64)
    run_token[1::2] = tokens
    frame_token = np.repeat(run_token, runs)
    remaining = np.repeat(ends - 1, runs) - np.arange(T)
    voiced = frame_token >= 0
    tok, rem = frame_token[voiced], remaining[voiced]

    frames = np.zeros((T, cfg.d_frame))
    marks = slice(TOKEN_DIMS, TOKEN_DIMS + MARK_DIMS)
    frames[voiced, :TOKEN_DIMS] = bank.token_vec[tok]
    frames[voiced, marks] = np.stack([np.ones(tok.size), rem / max(cfg.dur_max - 1, 1), rem == 0], axis=1)
    frames[voiced, TOKEN_DIMS + MARK_DIMS :] = 0.8 * bank.speaker_frame[speaker]
    frames[~voiced, TOKEN_DIMS + MARK_DIMS :] = 0.4 * bank.speaker_frame[speaker]

    signal = np.empty((T, cfg.samples_per_frame))
    signal[voiced] = (
        bank.token_amp[tok][:, None] * bank.tones[bank.token_bin[tok]]
        + bank.rem_amp[rem][:, None] * bank.tones[bank.rem_bin]
        + bank._speaker_component(speaker)
    )
    signal[~voiced] = bank.silence_signal(speaker)
    positions = ends[1::2].copy()  # 1-based last frame of each token's run
    if cfg.noise > 0:
        frames += rng.normal(0.0, cfg.noise, frames.shape)
        signal += rng.normal(0.0, cfg.noise, signal.shape)
    return frames, signal, positions


def gen_corpus(config: SynthConfig, n_utterances: int) -> tuple[Manifest, dict[str, np.ndarray]]:
    """Generate a manifest plus named frame/signal arrays.

    Utterances whose ground-truth alignment would fail the run/gap filters
    are redrawn, so every manifest record passes ``filter_alignment``.
    """
    rng = np.random.default_rng(config.seed)
    bank = TemplateBank(config)
    manifest = Manifest(config=config)
    arrays: dict[str, np.ndarray] = {}
    for utt_id in range(n_utterances):
        while True:
            L = int(rng.integers(config.tokens_min, config.tokens_max + 1))
            tokens = bank.sample_tokens(rng, L)
            speaker = int(rng.integers(config.n_speakers))
            frames, signal, positions = _render_utterance(bank, rng, tokens, speaker)
            if filter_alignment(positions, frames.shape[0]) is None:
                break
        manifest.records.append(
            UttRecord(utt_id=utt_id, speaker=speaker, tokens=tokens, positions=positions, T=frames.shape[0])
        )
        arrays[f"utt{utt_id:05d}/frames"] = frames.astype(np.float32)
        arrays[f"utt{utt_id:05d}/signal"] = signal.astype(np.float32)
    return manifest, arrays


def save_corpus(manifest: Manifest, arrays: dict[str, np.ndarray], manifest_path, arrays_path) -> None:
    manifest.save(manifest_path)
    save_arrays(arrays_path, arrays)


def load_corpus(manifest_path, arrays_path) -> tuple[Manifest, dict[str, np.ndarray]]:
    """A corpus's manifest and arrays; raises ``ValidationError`` naming the
    file when the manifest holds no record, or when the arrays lack the
    frames or signal of an utterance that the manifest lists."""
    manifest, arrays = Manifest.load(manifest_path), load_arrays(arrays_path)
    if not manifest.records:
        raise ValidationError(f"{manifest_path}: no utterance records")
    for rec in manifest.records:
        for name in ("frames", "signal"):
            if f"utt{rec.utt_id:05d}/{name}" not in arrays:
                raise ValidationError(f"{arrays_path}: no {name} of utterance {rec.utt_id}, listed in {manifest_path}")
    return manifest, arrays


def utterance_arrays(arrays: dict[str, np.ndarray], utt_id: int) -> tuple[np.ndarray, np.ndarray]:
    frames = arrays[f"utt{utt_id:05d}/frames"].astype(np.float64)
    signal = arrays[f"utt{utt_id:05d}/signal"].astype(np.float64)
    return frames, signal


# ---------------------------------------------------------------------------
# Oracle decoding
# ---------------------------------------------------------------------------


class OracleDecoder:
    """Nearest-template segmentation and classification of signal frames.

    Operates on per-frame DFT-bin magnitudes at the corpus's integer tone
    bins; these are orthogonal over a frame and independent of phase, so
    classification is invariant to the phases a magnitude-spectral
    reconstruction loss leaves unconstrained.
    """

    def __init__(self, bank: TemplateBank):
        self.bank = bank
        signals, self.labels = bank.all_templates()
        self.label_arr = np.array(self.labels, dtype=np.int64)
        bins = np.arange(bank.n_magnitude_bins())
        self._basis = np.exp(-2j * np.pi * np.outer(bins, bank._grid))
        # Equalize scales: a DC offset c measures r*c, a sine of amplitude a
        # measures a*r/2; halve the DC row so both read r/2 * amplitude.
        self._scale = np.where(bins == 0, 0.5, 1.0)
        self.templates = self._magnitudes(signals)
        self._n_spk = bank.config.n_speakers

    def _magnitudes(self, signal_rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(signal_rows, dtype=np.float64)
        return np.abs(rows @ self._basis.T) * self._scale

    def classify_frames(self, signal_rows: np.ndarray) -> np.ndarray:
        """Per-frame (token, speaker, remaining) labels; token -1 = silence."""
        feats = self._magnitudes(signal_rows)
        d2 = (
            (feats * feats).sum(axis=1, keepdims=True)
            - 2.0 * feats @ self.templates.T
            + (self.templates * self.templates).sum(axis=1)
        )
        return self.label_arr[np.argmin(d2, axis=1)]

    def decode(self, signal_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Token sequence and their 1-based final-frame positions.

        A token is emitted at every voiced frame classified as final
        (remaining == 0), which is exact on clean corpus output.
        """
        labels = self.classify_frames(signal_rows)
        final = (labels[:, 0] >= 0) & (labels[:, 2] == 0)
        positions = np.flatnonzero(final) + 1
        return labels[final, 0], positions

    def speaker_estimate(self, signal_rows: np.ndarray) -> np.ndarray:
        """Least-squares (DC, high-bin) speaker direction, unit norm."""
        feats = self._magnitudes(signal_rows)
        prof = feats[:, [0, self.bank.speaker_bin]].mean(axis=0)
        norm = np.linalg.norm(prof)
        return prof / norm if norm > 0 else prof

    def speaker_id_estimate(self, signal_rows: np.ndarray) -> int:
        est = self.speaker_estimate(signal_rows)
        profiles = np.stack(
            [self.bank.speaker_signal_profile(s) for s in range(self._n_spk)]
        )
        return int(np.argmax(profiles @ est))
