"""Single-stream decoder-only transformer with additive text+acoustic fusion.

Each step carries a text token fused with the acoustic slot (latent plus
analog duration bits) of the token K positions back; the final hidden state
feeds both a language-modeling head and a conditioning projection for the
flow-matching head. A two-entry mode embedding signals per step whether the
model should condition on acoustics (text-speech) or text alone, enabling
stochastic audio-segment dropout during training and speech-free guidance
at inference.

Sequences are laid out as [BOS, w_1 .. w_L, PAD*(K-1)] so the flow target
paired with the step carrying w_i is exactly token i-K+1's packed vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import durbits, flowhead, nn
from . import numerics as nx
from .errors import NumericalAbort, ValidationError
from .numerics import Tensor


@dataclass
class BackboneConfig:
    vocab_size: int = 32
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 4
    d_ff: int = 256
    d_cond: int = 128
    d_latent: int = 8
    bits: int = 8
    k_shift: int = 2
    max_context: int = 512
    lambda_flow: float = 1.0
    lambda_ce: float = 0.05
    lambda_kd: float = 0.05
    dropout_rate: float = 0.3
    dropout_mean_len: int = 8
    flow: flowhead.FlowConfig = field(default_factory=flowhead.FlowConfig)

    def __post_init__(self):
        if self.k_shift < 1:
            raise ValidationError("BackboneConfig: k_shift must be >= 1")
        self.flow.d_latent = self.d_latent
        self.flow.bits = self.bits
        self.flow.d_cond = self.d_cond

    @property
    def bos_id(self) -> int:
        return self.vocab_size

    @property
    def pad_id(self) -> int:
        return self.vocab_size + 1

    @property
    def n_text_ids(self) -> int:
        return self.vocab_size + 2

    @property
    def d_acoustic(self) -> int:
        return self.d_latent + 2 * self.bits


@dataclass
class FusedStep:
    """One step of the single-stream context."""

    token_id: int
    acoustic: np.ndarray | None  # packed [s | analog bits] or None (placeholder)
    mode: str = "text-speech"  # "text-only" | "text-speech"


@dataclass
class BackboneOutput:
    text_logits: np.ndarray
    cond: np.ndarray


@dataclass
class TrainLossReport:
    flow: Tensor
    ce: Tensor
    kd: Tensor
    total: Tensor

    def floats(self) -> dict[str, float]:
        return {
            "flow": float(self.flow.data),
            "ce": float(self.ce.data),
            "kd": float(self.kd.data),
            "total": float(self.total.data),
        }


@dataclass
class SequenceBatchItem:
    """Precomputed per-utterance training inputs."""

    tokens: np.ndarray
    latents: np.ndarray  # sampled latents (L, d_latent)
    f_before: np.ndarray
    f_after: np.ndarray


def sample_segment_modes(n: int, rate: float, mean_len: int, rng: np.random.Generator) -> np.ndarray:
    """Per-step speech flags: contiguous geometric-length segments flip to
    text-only with probability ``rate``. Rate 0 short-circuits (no RNG use)."""
    if rate == 0.0:
        return np.ones(n, dtype=bool)
    modes = np.ones(n, dtype=bool)
    i = 0
    while i < n:
        seg = int(rng.geometric(1.0 / mean_len))
        if rng.random() < rate:
            modes[i : i + seg] = False
        i += seg
    return modes


class BackboneModel:
    def __init__(self, config: BackboneConfig, rng: np.random.Generator | None = None, params: dict | None = None):
        self.config = config
        self.tf = nn.TransformerConfig(
            n_layers=config.n_layers, d_model=config.d_model,
            n_heads=config.n_heads, d_ff=config.d_ff,
        )
        if params is not None:
            self.params = params
            self.flow = flowhead.VectorFieldModel(config.flow, params=self.params, prefix="flow")
        else:
            if rng is None:
                raise ValidationError("BackboneModel: need rng or params")
            d = config.d_model
            self.params = {}
            nn.init_embedding(self.params, "text_emb", rng, config.n_text_ids, d)
            nn.init_embedding(self.params, "mode_emb", rng, 2, d)
            nn.init_linear(self.params, "ac_proj", rng, config.d_acoustic, d)
            self.params["bos_ac"] = nx.randn((1, d), rng, std=0.02, requires_grad=True)
            nn.init_stack(self.params, "tf", rng, self.tf)
            nn.init_linear(self.params, "lm_head", rng, d, config.n_text_ids)
            nn.init_linear(self.params, "cond_head", rng, d, config.d_cond)
            self.flow = flowhead.VectorFieldModel.init_into(self.params, "flow", config.flow, rng)

    # -- fusion --------------------------------------------------------------

    def _fuse_matrix(self, ids: np.ndarray, acoustic: np.ndarray, has_ac: np.ndarray, speech: np.ndarray) -> Tensor:
        """Vectorized additive fusion over a whole context.

        ``acoustic`` is (n, d_acoustic) with zero rows where absent,
        ``has_ac`` marks rows with a real acoustic slot, ``speech`` marks
        text-speech mode. Text-only rows get a zero acoustic term; speech
        rows without a slot get the learned placeholder.
        """
        n = ids.size
        d = self.config.d_model
        text = nx.embed(self.params["text_emb"], ids)
        mode = nx.embed(self.params["mode_emb"], speech.astype(np.int64))
        real = (has_ac & speech).astype(float)[:, None]
        placeholder = (~has_ac & speech).astype(float)[:, None]
        ac_term = nx.mul(
            nn.linear(self.params, "ac_proj", nn.input_tensor(self.params, acoustic)),
            nn.input_tensor(self.params, np.broadcast_to(real, (n, d))),
        )
        ph_term = nx.matmul(nn.input_tensor(self.params, placeholder), self.params["bos_ac"])
        return text + ac_term + ph_term + mode

    def _step_rows(self, steps: Sequence[FusedStep]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Validated ``(ids, acoustic, has_ac, speech)`` of :meth:`_fuse_matrix`
        for a sequence of steps."""
        n = len(steps)
        ids = np.empty(n, dtype=np.int64)
        acoustic = np.zeros((n, self.config.d_acoustic))
        has_ac = np.zeros(n, dtype=bool)
        speech = np.zeros(n, dtype=bool)
        for j, s in enumerate(steps):
            if not 0 <= s.token_id < self.config.n_text_ids:
                raise ValidationError(f"fuse: token id {s.token_id} out of range")
            if s.mode not in ("text-only", "text-speech"):
                raise ValidationError(f"fuse: unknown mode {s.mode!r}")
            ids[j] = s.token_id
            speech[j] = s.mode == "text-speech"
            if s.acoustic is not None:
                acoustic[j] = s.acoustic
                has_ac[j] = True
        return ids, acoustic, has_ac, speech

    def fuse(self, step: FusedStep) -> Tensor:
        """Input vector for a single step."""
        return nx.reshape(self._fuse_matrix(*self._step_rows([step])), (self.config.d_model,))

    # -- forward -------------------------------------------------------------

    def forward_tensors(self, ids, acoustic, has_ac, speech) -> tuple[Tensor, Tensor]:
        n = np.asarray(ids).size
        if n < 1:
            raise ValidationError("forward: context must have length >= 1")
        if n > self.config.max_context:
            raise ValidationError(f"forward: context length {n} exceeds maximum {self.config.max_context}")
        x = self._fuse_matrix(np.asarray(ids), acoustic, has_ac, speech)
        h = nn.stack(self.params, "tf", x, nn.causal_mask(n), self.tf, np.arange(n))
        return nn.linear(self.params, "lm_head", h), nn.linear(self.params, "cond_head", h)

    def forward(self, context: list[FusedStep]) -> list[BackboneOutput]:
        """Per-step text logits and condition vectors for a fused context."""
        with nx.no_grad():
            logits, cond = self.forward_tensors(*self._step_rows(context))
        return _outputs(logits, cond)

    # -- incremental decoding --------------------------------------------------

    def new_cache(self) -> nn.StackCache:
        return nn.StackCache(self.tf)

    def step(
        self, steps: Sequence[FusedStep], cache: nn.StackCache, streams: Sequence[int] | None = None
    ) -> list[BackboneOutput]:
        """Append fused steps to the cache in one call; return their outputs.

        ``streams`` gives each step's stream (default: all stream 0). The
        steps of one stream take that stream's next positions in call order
        and attend causally to each other and to that stream's cached steps
        only, so each stream sees exactly the context it would see alone.
        """
        n = len(steps)
        if n < 1:
            raise ValidationError("step: need at least one step")
        streams = np.zeros(n, dtype=np.int64) if streams is None else np.asarray(streams, dtype=np.int64)
        if streams.shape != (n,):
            raise ValidationError(f"step: {streams.size} stream labels for {n} steps")
        positions = np.empty(n, dtype=np.int64)
        for s in np.unique(streams):
            rows = np.flatnonzero(streams == s)
            positions[rows] = np.count_nonzero(cache.streams == s) + np.arange(rows.size)
            if positions[rows[-1]] >= self.config.max_context:
                raise ValidationError(
                    f"step: stream {s} context length {positions[rows[-1]]} exceeds maximum"
                )
        with nx.no_grad():
            x = self._fuse_matrix(*self._step_rows(steps))
            h = nn.stack_step(self.params, "tf", x, positions, cache, self.tf, streams=streams, causal=True)
            return _outputs(nn.linear(self.params, "lm_head", h), nn.linear(self.params, "cond_head", h))

    def save(self, path) -> None:
        nn.save_params(path, self.params, self.config)

    @classmethod
    def load(cls, path, dtype=None) -> "BackboneModel":
        config, params = nn.load_params(path, BackboneConfig, dtype)
        nn.check_params(path, params, lambda: cls(config, np.random.default_rng(0)).params)
        return cls(config, params=params)


def _outputs(logits: Tensor, cond: Tensor) -> list[BackboneOutput]:
    return [BackboneOutput(text_logits=lg, cond=c) for lg, c in zip(logits.data, cond.data)]


def sfg_logits(z_text_only: np.ndarray, z_text_speech: np.ndarray, sfg_scale: float) -> np.ndarray:
    """Speech-free-guidance blend (1 - s) * text-only + s * text-speech."""
    z_text_only = np.asarray(z_text_only, dtype=np.float64)
    z_text_speech = np.asarray(z_text_speech, dtype=np.float64)
    if z_text_only.shape != z_text_speech.shape:
        raise ValidationError(
            f"sfg_logits: widths differ: {z_text_only.shape} vs {z_text_speech.shape}"
        )
    return (1.0 - sfg_scale) * z_text_only + sfg_scale * z_text_speech


# ---------------------------------------------------------------------------
# Training sequences
# ---------------------------------------------------------------------------


def build_sequence(item: SequenceBatchItem, config: BackboneConfig):
    """Step layout for one utterance.

    Returns (ids, acoustic, has_ac, ce_targets, flow_step_idx, flow_targets):
    step j's acoustic slot is token j-K (placeholder when j-K < 1) and its
    flow target is token j-K+1's packed vector.
    """
    K = config.k_shift
    L = item.tokens.size
    n_tail = max(K - 1, 1)
    ids = np.concatenate(
        [[config.bos_id], np.asarray(item.tokens, dtype=np.int64), [config.pad_id] * n_tail]
    )
    n = ids.size
    acoustic = np.zeros((n, config.d_acoustic))
    has_ac = np.zeros(n, dtype=bool)
    packed = np.stack(
        [
            durbits.pack(item.latents[i], int(item.f_before[i]), int(item.f_after[i]), config.bits)
            for i in range(L)
        ]
    )
    for j in range(n):
        a = j - K  # token index whose acoustics are fed at step j
        if 1 <= a <= L:
            acoustic[j] = packed[a - 1]
            has_ac[j] = True
    flow_step_idx = []
    flow_targets = []
    for j in range(n):
        m = j - K + 1  # token index whose acoustics step j predicts
        if 1 <= m <= L:
            flow_step_idx.append(j)
            flow_targets.append(packed[m - 1])
    ce_targets = ids[1:]
    return ids, acoustic, has_ac, np.asarray(ce_targets), np.asarray(flow_step_idx), np.stack(flow_targets)


def train_step(
    model: BackboneModel,
    batch: list[SequenceBatchItem],
    base_lm: "BackboneModel | None",
    seed: int,
    dropout_rate: float | None = None,
    apply_grads: bool = True,
) -> TrainLossReport:
    """One supervised pass over a batch; gradients accumulate on the params.

    flow: velocity regression on (flow target, condition) pairs at speech
    steps; ce: next-token cross-entropy over the text stream; kd: KL from
    the frozen base LM's logits to the model's at text-only steps.
    """
    cfg = model.config
    rate = cfg.dropout_rate if dropout_rate is None else dropout_rate
    rng = np.random.default_rng(seed)
    flow_terms: list[Tensor] = []
    ce_terms: list[Tensor] = []
    kd_terms: list[Tensor] = []
    B = len(batch)
    for item in batch:
        ids, acoustic, has_ac, ce_targets, flow_idx, flow_targets = build_sequence(item, cfg)
        n = ids.size
        speech = sample_segment_modes(n, rate, cfg.dropout_mean_len, rng)
        logits, cond = model.forward_tensors(ids, acoustic, has_ac, speech)
        ce_terms.append(nx.cross_entropy(nx.gather_rows(logits, np.arange(n - 1)), ce_targets))
        keep = speech[flow_idx]
        if keep.any():
            sel = flow_idx[keep]
            flow_terms.append(
                flowhead.flow_loss(
                    model.flow,
                    flow_targets[keep],
                    nx.gather_rows(cond, sel),
                    cfg.flow.sigma_min,
                    seed=int(rng.integers(1 << 31)),
                )
            )
        if base_lm is not None:
            text_only = np.flatnonzero(~speech)
            if text_only.size:
                with nx.no_grad():
                    base_logits, _ = base_lm.forward_tensors(
                        ids,
                        np.zeros_like(acoustic),
                        np.zeros(n, dtype=bool),
                        np.zeros(n, dtype=bool),
                    )
                kd_terms.append(
                    nx.kl_categorical(
                        nn.input_tensor(model.params, base_logits.data[text_only]),
                        nx.gather_rows(logits, text_only),
                    )
                )

    def _mean(terms: list[Tensor]) -> Tensor:
        if not terms:
            return nx.zeros((), dtype=nn.param_dtype(model.params))
        return nx.scale(sum(terms[1:], terms[0]), 1.0 / len(terms))

    flow = _mean(flow_terms)
    ce = _mean(ce_terms)
    kd = _mean(kd_terms)
    total = nx.scale(flow, cfg.lambda_flow) + nx.scale(ce, cfg.lambda_ce) + nx.scale(kd, cfg.lambda_kd)
    if not np.isfinite(total.data):
        raise NumericalAbort("train_step: non-finite loss")
    if apply_grads:
        total.backward()
    return TrainLossReport(flow=flow, ce=ce, kd=kd, total=total)


def train_backbone(
    corpus: list[SequenceBatchItem] | list[dict],
    config: BackboneConfig,
    base_lm: BackboneModel | None = None,
    steps: int = 3000,
    batch_size: int = 8,
    lr: float = 1e-3,
    seed: int = 0,
    log_every: int = 0,
) -> BackboneModel:
    """Train the multimodal backbone (and its flow head) with Adam."""
    rng = np.random.default_rng(seed)
    model = BackboneModel(config, rng)
    items = [
        it if isinstance(it, SequenceBatchItem) else SequenceBatchItem(**it) for it in corpus
    ]
    opt = nx.Adam(model.params, lr=lr)
    for step in range(steps):
        idx = rng.integers(0, len(items), size=min(batch_size, len(items)))
        opt.zero_grad()
        report = train_step(model, [items[i] for i in idx], base_lm, seed=int(rng.integers(1 << 31)))
        opt.step()
        if log_every and step % log_every == 0:
            print(f"backbone step {step}: {report.floats()}")
    return model


def train_base_lm(
    token_seqs: list[np.ndarray],
    config: BackboneConfig,
    steps: int = 1500,
    batch_size: int = 16,
    lr: float = 2e-3,
    seed: int = 0,
    log_every: int = 0,
) -> BackboneModel:
    """Text-only twin: same architecture trained with cross-entropy alone."""
    rng = np.random.default_rng(seed)
    model = BackboneModel(config, rng)
    opt = nx.Adam(model.params, lr=lr)
    for step in range(steps):
        idx = rng.integers(0, len(token_seqs), size=min(batch_size, len(token_seqs)))
        opt.zero_grad()
        terms = []
        for i in idx:
            w = np.asarray(token_seqs[i], dtype=np.int64)
            ids = np.concatenate([[config.bos_id], w, [config.pad_id]])
            n = ids.size
            logits, _ = model.forward_tensors(
                ids,
                np.zeros((n, config.d_acoustic)),
                np.zeros(n, dtype=bool),
                np.zeros(n, dtype=bool),
            )
            terms.append(nx.cross_entropy(nx.gather_rows(logits, np.arange(n - 1)), ids[1:]))
        loss = nx.scale(sum(terms[1:], terms[0]), 1.0 / len(terms))
        if not np.isfinite(loss.data):
            raise NumericalAbort(f"train_base_lm: diverged at step {step}")
        loss.backward()
        opt.step()
        if log_every and step % log_every == 0:
            print(f"base-lm step {step}: ce={float(loss.data):.4f}")
    return model
