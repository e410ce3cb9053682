"""End-to-end inference: prompt preparation, autoregressive generation with
flow sampling and guidance, speaker-consistency rejection sampling, and
segment-streaming synthesis.

Generation prefills the prompt in one backbone call, then walks the fused
single-stream context step by step; every guidance branch is a stream of
one KV cache, so each step is one backbone call. At the step carrying text
token i the flow head samples the packed (latent, duration-bit) vector of
token i-K+1; candidates are ranked by speaker-embedding cosine against the
prompt reference, and the sampled durations chain back into positions for
the streaming decoder (on a chain mismatch the later sample f_before wins).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import durbits, flowhead, nn
from . import numerics as nx
from .aligner import AlignerModel, filter_alignment
from .backbone import BackboneModel, FusedStep, sfg_logits
from .codec import CodecModel
from .errors import ValidationError
from .numerics import Tensor


# ---------------------------------------------------------------------------
# Speaker embedding head
# ---------------------------------------------------------------------------


class SpeakerHead:
    """3-layer MLP from token latents to a speaker embedding space."""

    def __init__(
        self,
        d_latent: int = 8,
        dims: tuple[int, int, int] = (64, 64, 16),
        rng: np.random.Generator | None = None,
        params: dict | None = None,
        prefix: str = "spk",
    ):
        self.d_latent = d_latent
        self.dims = tuple(dims)
        self.prefix = prefix
        self.n_layers = len(dims)
        if params is not None:
            self.params = params
            return
        if rng is None:
            raise ValidationError("SpeakerHead: need rng or params")
        self.params = {}
        nn.init_mlp(self.params, prefix, rng, [d_latent, *dims])

    def embed_t(self, s: Tensor) -> Tensor:
        return nn.mlp(self.params, self.prefix, s, self.n_layers)

    def embed(self, s: np.ndarray) -> np.ndarray:
        with nx.no_grad():
            return np.asarray(self.embed_t(nx.tensor(np.atleast_2d(s))).data)

    def save_arrays(self) -> dict[str, np.ndarray]:
        out = {k: p.data for k, p in self.params.items()}
        out[f"{self.prefix}_config/d_latent"] = np.array([float(self.d_latent)])
        out[f"{self.prefix}_config/dims"] = np.array([float(d) for d in self.dims])
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], prefix: str = "spk") -> "SpeakerHead":
        d_latent = int(arrays[f"{prefix}_config/d_latent"][0])
        dims = tuple(int(x) for x in arrays[f"{prefix}_config/dims"])
        params = {
            k: nx.tensor(v, requires_grad=True)
            for k, v in arrays.items()
            if k.startswith(f"{prefix}/")
        }
        return cls(d_latent=d_latent, dims=dims, params=params, prefix=prefix)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def train_speaker_head(
    latents: np.ndarray,
    targets: np.ndarray,
    d_latent: int = 8,
    dims: tuple[int, int, int] = (64, 64, 16),
    steps: int = 800,
    batch_size: int = 64,
    lr: float = 2e-3,
    seed: int = 0,
) -> SpeakerHead:
    """Cosine-similarity regression of head(latent) onto speaker parameters."""
    rng = np.random.default_rng(seed)
    head = SpeakerHead(d_latent=d_latent, dims=dims, rng=rng)
    opt = nx.Adam(head.params, lr=lr)
    targets = np.asarray(targets, dtype=np.float64)
    tnorm = targets / (np.linalg.norm(targets, axis=1, keepdims=True) + 1e-12)
    for _ in range(steps):
        idx = rng.integers(0, len(latents), size=min(batch_size, len(latents)))
        opt.zero_grad()
        e = head.embed_t(nx.tensor(latents[idx]))
        dots = nx.sum_(nx.mul(e, nx.tensor(tnorm[idx])), axis=1)
        norms = nx.sqrt(nx.sum_(nx.square(e), axis=1) + 1e-12)
        cos = nx.mul(dots, nx.reciprocal(norms))
        loss = nx.mean_(nx.scale(cos, -1.0)) + 1.0
        loss.backward()
        opt.step()
    return head


# ---------------------------------------------------------------------------
# Prompt
# ---------------------------------------------------------------------------


@dataclass
class Prompt:
    tokens: np.ndarray
    positions: np.ndarray
    T: int
    latents: np.ndarray  # encoder means, no sampling noise at inference
    f_before: np.ndarray
    f_after: np.ndarray
    ref_embedding: np.ndarray  # unit-norm speaker reference
    frames: np.ndarray | None = None
    speaker: int | None = None
    utt_id: int | None = None


def prepare_prompt(
    frames: np.ndarray,
    transcript: np.ndarray,
    aligner_model: AlignerModel | None,
    codec_model: CodecModel,
    speaker_head: SpeakerHead,
    positions: np.ndarray | None = None,
) -> Prompt:
    """Align, encode, and embed a prompt; raises with a reason when the
    alignment is infeasible or fails the run/gap filters.

    Pre-extracted ``positions`` (e.g. from an alignment cache) skip the
    aligner forward pass.
    """
    transcript = np.asarray(transcript, dtype=np.int64)
    if transcript.size == 0:
        raise ValidationError("prepare_prompt: empty transcript")
    frames = np.asarray(frames, dtype=np.float64)
    T = frames.shape[0]
    if positions is None:
        if aligner_model is None:
            raise ValidationError("prepare_prompt: need an aligner model or positions")
        positions = aligner_model.align(frames, transcript).positions
    else:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size != transcript.size:
            raise ValidationError("prepare_prompt: positions/transcript length mismatch")
    reason = filter_alignment(positions, T)
    if reason is not None:
        raise ValidationError(f"prepare_prompt: alignment filtered: {reason}")
    with nx.no_grad():
        s_mu = np.asarray(codec_model.encode(frames, positions).data)
    f_before, f_after = durbits.durations_from_positions(positions, T)
    emb = speaker_head.embed(s_mu).mean(axis=0)
    ref = emb / (np.linalg.norm(emb) + 1e-12)
    return Prompt(
        tokens=transcript,
        positions=positions,
        T=T,
        latents=s_mu,
        f_before=f_before,
        f_after=f_after,
        ref_embedding=ref,
        frames=frames,
    )


# ---------------------------------------------------------------------------
# Rejection sampling
# ---------------------------------------------------------------------------


@dataclass
class RejectionOutcome:
    index: int
    cos: float
    below_threshold: bool
    rounds: int
    pool_size: int


def rejection_select(
    embeddings: np.ndarray,
    reference: np.ndarray,
    theta: float = 0.7,
) -> tuple[int, float, bool]:
    """Argmax-cosine candidate; flags when even the best falls below theta.

    Ties break toward the lower candidate index.
    """
    embeddings = np.atleast_2d(embeddings)
    if embeddings.shape[0] < 1:
        raise ValidationError("rejection_select: need at least one candidate")
    cosines = np.array([cosine(e, reference) for e in embeddings])
    best = int(np.argmax(cosines))
    return best, float(cosines[best]), bool(cosines[best] < theta)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@dataclass
class GenParams:
    n_fm: int = 10
    cfg_scale: float = 1.8
    neg_mode: str = "zero"  # "zero" | "tfg"
    candidates: int = 1  # R
    sfg_scale: float | None = None  # blend text-only logits in SLM mode
    mode: str = "tts"  # "tts" | "slm"
    temperature: float = 1.0
    top_k: int = 0
    max_tokens: int = 24
    theta: float = 0.7
    retries: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.neg_mode not in ("zero", "tfg"):
            raise ValidationError(f"GenParams: unknown neg_mode {self.neg_mode!r}")
        if self.mode not in ("tts", "slm"):
            raise ValidationError(f"GenParams: unknown mode {self.mode!r}")
        if self.candidates < 1:
            raise ValidationError("GenParams: candidates must be >= 1")


@dataclass
class StepStat:
    token_index: int
    pool_size: int
    chosen_cos: float
    below_threshold: bool
    rounds: int
    llm_time: float = 0.0  # the one backbone call that steps every guidance branch
    flow_time: float = 0.0


@dataclass
class GenerationResult:
    text_tokens: np.ndarray
    latents: np.ndarray
    f_before: np.ndarray
    f_after: np.ndarray
    chain_rate: float
    step_stats: list[StepStat] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def positions(self) -> tuple[np.ndarray, int]:
        return durbits.positions_from_durations(self.f_before, self.f_after)


def _sample_token(logits: np.ndarray, rng: np.random.Generator, temperature: float, top_k: int) -> int:
    z = np.asarray(logits, dtype=np.float64)
    if temperature <= 0:
        return int(np.argmax(z))
    z = z / temperature
    if top_k and top_k < z.size:
        cutoff = np.partition(z, -top_k)[-top_k]
        z = np.where(z >= cutoff, z, -np.inf)
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return int(rng.choice(z.size, p=p))


def generate(
    model: BackboneModel,
    codec_model: CodecModel,
    speaker_head: SpeakerHead,
    prompt: Prompt,
    text: np.ndarray | None,
    params: GenParams,
) -> GenerationResult:
    """Run the fused autoregressive loop and flow-sample acoustic slots.

    TTS mode teacher-forces ``text``; SLM mode samples text tokens from the
    (optionally SFG-blended) logits. Deterministic for a fixed seed.
    """
    cfg = model.config
    K = cfg.k_shift
    rng = np.random.default_rng(params.seed)
    if params.mode == "tts":
        if text is None or np.asarray(text).size == 0:
            raise ValidationError("generate: TTS mode needs non-empty text")
        text = np.asarray(text, dtype=np.int64)

    Lp = prompt.tokens.size
    prompt_packed = [
        durbits.pack(prompt.latents[i], int(prompt.f_before[i]), int(prompt.f_after[i]), cfg.bits)
        for i in range(Lp)
    ]

    flow_cfg = flowhead.FlowConfig(
        d_latent=cfg.d_latent,
        bits=cfg.bits,
        d_cond=cfg.d_cond,
        d_time=cfg.flow.d_time,
        width=cfg.flow.width,
        n_hidden=cfg.flow.n_hidden,
        sigma_min=cfg.flow.sigma_min,
        n_steps=params.n_fm,
        cfg_scale=params.cfg_scale,
        neg_mode="zero" if params.neg_mode == "zero" else "text-free",
    )

    # One cache holds every guidance branch as its own stream: the positive
    # branch is stream 0, then the text-free negative, then the text-only
    # SFG branch, each present only when its guidance is on.
    cache = model.new_cache()
    tfg = params.neg_mode == "tfg"
    sfg = params.sfg_scale is not None
    streams = np.arange(1 + tfg + sfg)

    def branch_rows(tid: int, slot: np.ndarray | None) -> list[FusedStep]:
        rows = [FusedStep(token_id=tid, acoustic=slot, mode="text-speech")]
        if tfg:
            rows.append(FusedStep(token_id=cfg.pad_id, acoustic=slot, mode="text-speech"))
        if sfg:
            rows.append(FusedStep(token_id=tid, acoustic=None, mode="text-only"))
        return rows

    all_tokens: list[int] = list(prompt.tokens.tolist())
    if params.mode == "tts":
        all_tokens.extend(text.tolist())
    gen_packed: dict[int, np.ndarray] = {}  # 1-based combined token index -> packed
    gen_order: list[int] = []
    stats: list[StepStat] = []
    warnings: list[str] = []

    def slot_for(a: int) -> np.ndarray | None:
        if a < 1:
            return None
        if a <= Lp:
            return prompt_packed[a - 1]
        return gen_packed.get(a)

    def text_id_for(j: int, sampled: list[int]) -> int:
        if j == 0:
            return cfg.bos_id
        idx = j - 1  # 0-based combined token index
        if idx < Lp:
            return int(prompt.tokens[idx])
        tgt = idx - Lp
        if params.mode == "tts":
            return int(text[tgt]) if tgt < text.size else cfg.pad_id
        return sampled[tgt] if tgt < len(sampled) else cfg.pad_id

    sampled_text: list[int] = []
    n_targets = text.size if params.mode == "tts" else None
    done_text = False

    # Prefill: steps 0 .. Lp-1 predict no acoustic slot and are followed by
    # a prompt token, so one causal call takes them all and nothing reads
    # their outputs.
    n_prefill = min(Lp, cfg.max_context)
    prefill = [
        row for j in range(n_prefill) for row in branch_rows(text_id_for(j, sampled_text), slot_for(j - K))
    ]
    model.step(prefill, cache, np.tile(streams, n_prefill))
    j = Lp
    while j < cfg.max_context:
        tid = text_id_for(j, sampled_text)
        t0 = time.perf_counter()
        outs = model.step(branch_rows(tid, slot_for(j - K)), cache, streams)
        llm_time = time.perf_counter() - t0
        c_pos = outs[0].cond
        c_neg = outs[1].cond if tfg else np.zeros(cfg.d_cond)
        logits = outs[0].text_logits
        if sfg:
            logits = sfg_logits(outs[-1].text_logits, logits, params.sfg_scale)

        # Flow-sample the acoustic slot this step predicts.
        m = j - K + 1
        flow_time = 0.0
        if m > Lp and (n_targets is None or m <= Lp + (n_targets or 0)) and m <= len(all_tokens):
            t0 = time.perf_counter()
            chosen, stat = _sample_slot(
                model, speaker_head, flow_cfg, c_pos, c_neg, prompt.ref_embedding, params, rng, m
            )
            flow_time = time.perf_counter() - t0
            stat.llm_time = llm_time
            stat.flow_time = flow_time
            stats.append(stat)
            gen_packed[m] = chosen
            gen_order.append(m)
            if stat.below_threshold:
                warnings.append(f"token {m}: best cosine {stat.chosen_cos:.3f} below threshold")

        # Advance text.
        nxt = j + 1
        next_token_idx = nxt - 1
        if params.mode == "slm" and not done_text and next_token_idx >= Lp:
            k = next_token_idx - Lp
            if k == len(sampled_text):
                token = _sample_token(logits, rng, params.temperature, params.top_k)
                if token == cfg.pad_id or len(sampled_text) >= params.max_tokens:
                    done_text = True
                else:
                    sampled_text.append(token)
                    all_tokens.append(token)

        total_tokens = len(all_tokens)
        last_flow_step = total_tokens + K - 1  # step predicting token index total_tokens
        if params.mode == "slm" and not done_text:
            pass  # keep stepping; more text may arrive
        elif j >= last_flow_step:
            break
        j += 1
    else:
        warnings.append("context limit reached")

    n_gen = len(gen_order)
    d = cfg.d_latent
    latents = np.zeros((n_gen, d))
    f_before = np.zeros(n_gen, dtype=np.int64)
    f_after = np.zeros(n_gen, dtype=np.int64)
    for i, m in enumerate(sorted(gen_order)):
        s, fb, fa = durbits.unpack(gen_packed[m], d, cfg.bits)
        latents[i] = s
        f_before[i] = fb
        f_after[i] = fa
    chain = durbits.chain_consistency(f_before, f_after)
    gen_text = (
        text if params.mode == "tts" else np.asarray(sampled_text, dtype=np.int64)
    )
    return GenerationResult(
        text_tokens=np.asarray(gen_text, dtype=np.int64),
        latents=latents,
        f_before=f_before,
        f_after=f_after,
        chain_rate=chain,
        step_stats=stats,
        warnings=warnings,
    )


def _sample_slot(
    model: BackboneModel,
    speaker_head: SpeakerHead,
    flow_cfg: flowhead.FlowConfig,
    c_pos: np.ndarray,
    c_neg: np.ndarray,
    reference: np.ndarray,
    params: GenParams,
    rng: np.random.Generator,
    token_index: int,
) -> tuple[np.ndarray, StepStat]:
    """Draw R flow candidates (plus retry rounds) and pick by speaker cosine."""
    R = params.candidates
    d = flow_cfg.d_latent

    # One condition projection per token and branch, shared by every Euler
    # step and retry round; with guidance, rows [0, R) are the positive
    # branch and [R, 2R) the negative one, as euler_sample stacks them.
    conds = np.stack([c_pos, c_neg]) if flow_cfg.cfg_scale != 1.0 else c_pos[None, :]
    rows = np.repeat(model.flow.cond_rows(conds), R, axis=0)

    def field(y, t):
        return model.flow.field_np(y, t, rows)

    best_y, best_cos, best_flag = None, -np.inf, True
    rounds = 0
    max_rounds = 1 + (params.retries if R > 1 else 0)
    pool = 0
    while rounds < max_rounds:
        y = flowhead.euler_sample(field, flow_cfg, seed=int(rng.integers(1 << 31)), n_samples=R)
        emb = speaker_head.embed(y[:, :d])
        idx, cos_val, below = rejection_select(emb, reference, params.theta)
        pool += R
        rounds += 1
        if cos_val > best_cos:
            best_y, best_cos, best_flag = y[idx], cos_val, below
        if not below:
            break
    stat = StepStat(
        token_index=token_index,
        pool_size=pool,
        chosen_cos=best_cos,
        below_threshold=best_flag,
        rounds=rounds,
    )
    return best_y, stat


def tfg_negative(
    model: BackboneModel,
    context: list[FusedStep],
) -> list[FusedStep]:
    """Text-free twin of a context: every text id becomes the padding token,
    acoustics and modes are kept; same length as the input."""
    pad = model.config.pad_id
    return [FusedStep(token_id=pad, acoustic=s.acoustic, mode=s.mode) for s in context]


# ---------------------------------------------------------------------------
# Checkpoint bundling (backbone + speaker head in one container)
# ---------------------------------------------------------------------------


def save_lm_checkpoint(path, model: BackboneModel, speaker_head: SpeakerHead) -> None:
    arrays = {k: p.data for k, p in model.params.items()}
    arrays.update(model.config.scalar_arrays())
    arrays.update(speaker_head.save_arrays())
    nx.save_arrays(path, arrays)


def load_lm_checkpoint(path, dtype=None) -> tuple[BackboneModel, SpeakerHead]:
    arrays = nx.load_arrays(path)
    head = SpeakerHead.from_arrays(arrays)
    from .backbone import BackboneConfig  # local import avoids a cycle at module load

    config = BackboneConfig.from_scalar_arrays(arrays)
    params = {
        k: nx.tensor(v, requires_grad=True, dtype=dtype)
        for k, v in arrays.items()
        if not (k.startswith("config/") or k.startswith("spk/") or k.startswith("spk_config/"))
    }
    return BackboneModel(config, params=params), head


# ---------------------------------------------------------------------------
# Streaming synthesis
# ---------------------------------------------------------------------------


@dataclass
class StreamedAudio:
    frames: np.ndarray
    signal: np.ndarray
    segments: list[tuple[int, int]]
    peak_cache: int
    positions: np.ndarray
    T: int


def stream_synthesize(result: GenerationResult, codec_model: CodecModel) -> StreamedAudio:
    """Decode a generation segment-by-segment with the streamable decoder.

    Emits each token's frames as soon as its segment closes; the KV cache
    never holds more than two segments.
    """
    positions, T = result.positions
    if positions.size == 0:
        raise ValidationError("stream_synthesize: empty generation")
    frames = np.zeros((T, codec_model.config.d_frame))
    signal = np.zeros((T, codec_model.config.samples_per_frame))
    segments = []
    peak = 0
    gen = codec_model.decode_streaming_segments(result.latents, positions, T)
    # Track cache occupancy through the generator's internal cache by
    # re-deriving the bound: at segment i the cache holds at most
    # p_i - p_{i-2} entries after the step.
    ext = np.concatenate([[0, 0], positions])
    for i, (lo, hi, f, g) in enumerate(gen, start=1):
        frames[lo:hi] = f
        signal[lo:hi] = g
        segments.append((lo, hi))
        upper = hi
        lower = int(ext[i - 1]) if i - 1 < ext.size else 0
        peak = max(peak, upper - lower)
    return StreamedAudio(
        frames=frames, signal=signal, segments=segments, peak_cache=peak,
        positions=positions, T=T,
    )
