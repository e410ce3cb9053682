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
from .backbone import BackboneConfig, BackboneModel, context_rows, sfg_logits
from .codec import CodecModel
from .errors import ValidationError
from .numerics import Tensor


# ---------------------------------------------------------------------------
# Speaker embedding head
# ---------------------------------------------------------------------------


class SpeakerHead:
    """3-layer MLP from token latents to a speaker embedding space.

    Given ``params`` (its ``{prefix}/fc{i}`` arrays alone), the layer count
    is the number of weight arrays, and the widths are their shapes.
    """

    def __init__(
        self,
        d_latent: int = 8,
        dims: tuple[int, int, int] = (64, 64, 16),
        rng: np.random.Generator | None = None,
        params: dict | None = None,
        prefix: str = "spk",
    ):
        self.prefix = prefix
        if params is None:
            if rng is None:
                raise ValidationError("SpeakerHead: need rng or params")
            params = {}
            nn.init_mlp(params, prefix, rng, [d_latent, *dims])
        self.params = params
        self.n_layers = sum(k.endswith("/w") for k in params)

    def embed_t(self, s):
        """Embeddings of latent rows: taped for a Tensor, an ndarray for an ndarray."""
        return nn.mlp(self.params, self.prefix, s, self.n_layers)

    def embed(self, s: np.ndarray) -> np.ndarray:
        """Embeddings of one latent or of rows of them, in the parameters' dtype."""
        return self.embed_t(np.ascontiguousarray(np.atleast_2d(s), dtype=nn.param_dtype(self.params)))


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
    log_every: int = 0,
) -> SpeakerHead:
    """Cosine-similarity regression of head(latent) onto speaker parameters."""
    rng = np.random.default_rng(seed)
    head = SpeakerHead(d_latent=d_latent, dims=dims, rng=rng)
    targets = np.asarray(targets, dtype=np.float64)
    tnorm = targets / (np.linalg.norm(targets, axis=1, keepdims=True) + 1e-12)

    def loss(step: int, idx: np.ndarray) -> tuple[Tensor, dict]:
        e = head.embed_t(nn.input_tensor(head.params, latents[idx]))
        dots = nx.sum_(nx.mul(e, nn.input_tensor(head.params, tnorm[idx])), axis=1)
        norms = nx.sqrt(nx.sum_(nx.square(e), axis=1) + 1e-12)
        cos = nx.mul(dots, nx.reciprocal(norms))
        value = nx.mean_(nx.scale(cos, -1.0)) + 1.0
        return value, {"loss": float(value.data)}

    nx.fit("train_speaker_head", head.params, loss, len(latents), steps, batch_size, lr, rng, log_every)
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
    speaker: int | None = None


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

    Pre-extracted ``positions`` (e.g. a manifest record's) skip the
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
    )


# ---------------------------------------------------------------------------
# Rejection sampling
# ---------------------------------------------------------------------------


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
    n_fm: int = 10  # Euler steps per flow sample
    cfg_scale: float = 1.8
    neg_mode: str = "zero"  # "zero" | "tfg"
    candidates: int = 1  # R
    sfg_scale: float | None = None  # blend text-only logits; SLM mode only
    mode: str = "tts"  # "tts" | "slm"
    temperature: float = 1.0
    top_k: int = 0
    max_tokens: int = 24
    theta: float = 0.7
    retries: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_fm < 1:
            raise ValidationError("GenParams: n_fm must be >= 1")
        if self.cfg_scale < 0:
            raise ValidationError("GenParams: cfg_scale must be >= 0")
        if self.neg_mode not in ("zero", "tfg"):
            raise ValidationError(f"GenParams: unknown neg_mode {self.neg_mode!r}")
        if self.mode not in ("tts", "slm"):
            raise ValidationError(f"GenParams: unknown mode {self.mode!r}")
        if self.candidates < 1:
            raise ValidationError("GenParams: candidates must be >= 1")
        if self.sfg_scale is not None and self.mode != "slm":
            raise ValidationError("GenParams: sfg_scale blends sampled text logits, so it needs mode 'slm'")


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
    prefill_time: float = 0.0  # the one backbone call that takes the prompt
    idle_step_time: float = 0.0  # backbone calls of loop steps that sample no acoustic slot
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

    ``tokens`` holds the prompt tokens, then the target text (TTS) or the
    text sampled so far (SLM); ``slots`` holds the prompt's packed slots,
    then each chosen slot in turn. Step j is laid out by
    :func:`~tada.backbone.context_rows` over them, and samples slot
    m = j-K+1 when ``Lp < m <= len(tokens)``.
    """
    cfg = model.config
    K = cfg.k_shift
    rng = np.random.default_rng(params.seed)
    Lp = prompt.tokens.size
    tokens = prompt.tokens.tolist()
    if params.mode == "tts":
        if text is None or np.asarray(text).size == 0:
            raise ValidationError("generate: TTS mode needs non-empty text")
        text = np.asarray(text, dtype=np.int64)
        bad = text[(text < 0) | (text >= cfg.vocab_size)]
        if bad.size:
            raise ValidationError(f"generate: text token ids {bad.tolist()} outside [0, {cfg.vocab_size})")
        tokens += text.tolist()
    slots = [
        durbits.pack(prompt.latents[i], int(prompt.f_before[i]), int(prompt.f_after[i]), cfg.bits)
        for i in range(Lp)
    ]

    # One cache holds every guidance branch as its own stream: the positive
    # branch is stream 0, then the text-free negative (text padded, slot
    # kept), then the text-only SFG branch (text kept, no slot), each
    # present only when its guidance is on.
    cache = model.new_cache()
    tfg = params.neg_mode == "tfg"
    sfg = params.sfg_scale is not None
    streams = np.arange(1 + tfg + sfg)
    text_free = tfg & (streams == 1)
    text_only = sfg & (streams == streams[-1])

    def branch_rows(steps, labels):
        """Fused rows of ``steps``, each in the branch its stream label names."""
        ids, acoustic, has_ac = context_rows(cfg, tokens, slots, steps)
        ids[text_free[labels]] = cfg.pad_id
        no_speech = text_only[labels]
        acoustic[no_speech] = 0.0
        return ids, acoustic, has_ac & ~no_speech, ~no_speech

    # Prefill: steps 0 .. Lp-1 predict no acoustic slot and are followed by
    # a prompt token, so one causal call takes them all and nothing reads
    # their outputs.
    n_prefill = min(Lp, cfg.max_context)
    labels = np.tile(streams, n_prefill)
    prefill = branch_rows(np.repeat(np.arange(n_prefill), streams.size), labels)
    t0 = time.perf_counter()
    model.step(*prefill, cache, labels)
    prefill_time = time.perf_counter() - t0
    idle_step_time = 0.0
    stats: list[StepStat] = []
    warnings: list[str] = []
    text_open = params.mode == "slm"
    for j in range(Lp, cfg.max_context):
        t0 = time.perf_counter()
        outs = model.step(*branch_rows([j] * streams.size, streams), cache, streams)
        llm_time = time.perf_counter() - t0

        m = j - K + 1  # the slot this step predicts, 1-based
        if Lp < m <= len(tokens):
            c_neg = outs[1].cond if tfg else np.zeros(cfg.d_cond)
            t0 = time.perf_counter()
            chosen, stat = _sample_slot(
                model, speaker_head, outs[0].cond, c_neg, prompt.ref_embedding, params, rng, m
            )
            stat.flow_time = time.perf_counter() - t0
            stat.llm_time = llm_time
            stats.append(stat)
            slots.append(chosen)
            if stat.below_threshold:
                warnings.append(f"token {m}: best cosine {stat.chosen_cos:.3f} below threshold")
        else:
            idle_step_time += llm_time

        if text_open:
            logits = outs[0].text_logits
            if sfg:
                logits = sfg_logits(outs[-1].text_logits, logits, params.sfg_scale)
            token = _sample_token(logits, rng, params.temperature, params.top_k)
            if token == cfg.pad_id or len(tokens) - Lp >= params.max_tokens:
                text_open = False
            else:
                tokens.append(token)
        # Once the text is closed, the step predicting the last slot ends the
        # loop. The step that closes the text checks this too: with K=1 it
        # has predicted the last slot already.
        if not text_open and j >= len(tokens) + K - 1:
            break
    else:
        warnings.append("context limit reached")

    gen = [durbits.unpack(slot, cfg.d_latent, cfg.bits) for slot in slots[Lp:]]
    latents = np.array([s for s, _, _ in gen], dtype=np.float64).reshape(-1, cfg.d_latent)
    f_before = np.array([fb for _, fb, _ in gen], dtype=np.int64)
    f_after = np.array([fa for _, _, fa in gen], dtype=np.int64)
    return GenerationResult(
        text_tokens=np.asarray(tokens[Lp:], dtype=np.int64),
        latents=latents,
        f_before=f_before,
        f_after=f_after,
        chain_rate=durbits.chain_consistency(f_before, f_after),
        prefill_time=prefill_time,
        idle_step_time=idle_step_time,
        step_stats=stats,
        warnings=warnings,
    )


def _sample_slot(
    model: BackboneModel,
    speaker_head: SpeakerHead,
    c_pos: np.ndarray,
    c_neg: np.ndarray,
    reference: np.ndarray,
    params: GenParams,
    rng: np.random.Generator,
    token_index: int,
) -> tuple[np.ndarray, StepStat]:
    """Draw R flow candidates (plus retry rounds) and pick by speaker cosine."""
    R = params.candidates
    d = model.config.d_latent

    # One condition projection per token and branch, shared by every Euler
    # step and retry round; with guidance, rows [0, R) are the positive
    # branch and [R, 2R) the negative one, as euler_sample stacks them.
    conds = np.stack([c_pos, c_neg]) if params.cfg_scale != 1.0 else c_pos[None, :]
    rows = np.repeat(model.flow.cond_rows(conds), R, axis=0)

    def field(y, t):
        return model.flow.field_np(y, t, rows)

    best_y, best_cos, best_flag = None, -np.inf, True
    rounds = 0
    max_rounds = 1 + (params.retries if R > 1 else 0)
    pool = 0
    while rounds < max_rounds:
        seed = int(rng.integers(1 << 31))
        y = flowhead.euler_sample(field, model.flow.config, params.n_fm, params.cfg_scale, seed, n_samples=R)
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


# ---------------------------------------------------------------------------
# Checkpoint bundling (backbone + speaker head in one container)
# ---------------------------------------------------------------------------


def save_lm_checkpoint(path, model: BackboneModel, speaker_head: SpeakerHead) -> None:
    """A backbone checkpoint (``BackboneModel.save``) with the head's ``spk/*`` arrays added."""
    nn.save_params(path, {**model.params, **speaker_head.params}, model.config)


def load_lm_checkpoint(path, dtype=None) -> tuple[BackboneModel, SpeakerHead]:
    config, params = nn.load_params(path, BackboneConfig, dtype)
    head = {k: v for k, v in params.items() if k.startswith("spk/")}
    if not head:
        raise ValidationError(f"{path}: no speaker head (spk/* arrays); a base LM checkpoint cannot synthesize")
    backbone = {k: v for k, v in params.items() if k not in head}
    rng = np.random.default_rng(0)
    nn.check_params(path, backbone, lambda: BackboneModel(config, rng).params)
    # The head has no config: its widths are those of its weights, and its
    # input is the backbone's latent.
    widths = []
    while (w := head.get(f"spk/fc{len(widths)}/w")) is not None and w.ndim == 2:
        widths.append(w.shape[1])
    nn.check_params(path, head, lambda: SpeakerHead(config.d_latent, widths, rng).params)
    return BackboneModel(config, params=backbone), SpeakerHead(params=head)


# ---------------------------------------------------------------------------
# Streaming synthesis
# ---------------------------------------------------------------------------


@dataclass
class StreamedAudio:
    frames: np.ndarray
    signal: np.ndarray
    segments: list[tuple[int, int]]
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
    dtype = nn.param_dtype(codec_model.params)
    frames = np.zeros((T, codec_model.config.d_frame), dtype=dtype)
    signal = np.zeros((T, codec_model.config.samples_per_frame), dtype=dtype)
    segments = []
    for lo, hi, f, g in codec_model.decode_streaming_segments(result.latents, positions, T):
        frames[lo:hi] = f
        signal[lo:hi] = g
        segments.append((lo, hi))
    return StreamedAudio(frames=frames, signal=signal, segments=segments, positions=positions, T=T)
