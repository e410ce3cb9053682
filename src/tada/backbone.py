"""Single-stream decoder-only transformer with additive text+acoustic fusion.

Each step carries a text token fused with the acoustic slot (latent plus
analog duration bits) of the token K positions back; the final hidden state
feeds both a language-modeling head and a conditioning projection for the
flow-matching head. A two-entry mode embedding signals per step whether the
model should condition on acoustics (text-speech) or text alone, enabling
stochastic audio-segment dropout during training and speech-free guidance
at inference.

Step j of a context carries text token j-1 (BOS at step 0, PAD past the
end) and the acoustic slot of token j-K, as :func:`context_rows` lays out
for training and generation alike, so the flow target paired with the step
carrying w_i is exactly token i-K+1's packed vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import durbits, flowhead, nn
from . import numerics as nx
from .configline import check, ranged
from .errors import ValidationError
from .numerics import Tensor


@dataclass
class BackboneConfig:
    vocab_size: int = ranged(32, 1)
    d_model: int = ranged(128, 1)
    n_heads: int = ranged(4, 1)
    n_layers: int = ranged(4, 1)
    d_ff: int = ranged(256, 1)
    d_cond: int = ranged(128, 1)
    d_latent: int = ranged(8, 1)
    bits: int = ranged(8, 1)
    k_shift: int = ranged(2, 1)
    max_context: int = ranged(512, 1)
    lambda_flow: float = ranged(1.0, 0)
    lambda_ce: float = ranged(0.05, 0)
    lambda_kd: float = ranged(0.05, 0)
    dropout_rate: float = ranged(0.3, 0, 1)
    dropout_mean_len: int = ranged(8, 1)
    flow: flowhead.FlowConfig = field(default_factory=flowhead.FlowConfig)

    def __post_init__(self):
        check(self)
        self.flow = replace(self.flow, d_latent=self.d_latent, bits=self.bits, d_cond=self.d_cond)

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

    def _fusion_weights(self, ids: np.ndarray, has_ac: np.ndarray, speech: np.ndarray):
        """Per-row (n, 1) weights of the acoustic projection and of the
        placeholder, in the parameters' dtype. A token id outside
        ``[0, n_text_ids)`` raises :class:`ValidationError`."""
        bad = ids[(ids < 0) | (ids >= self.config.n_text_ids)]
        if bad.size:
            raise ValidationError(
                f"BackboneModel: token ids {bad.tolist()} outside [0, {self.config.n_text_ids})"
            )
        dtype = nn.param_dtype(self.params)
        real = (has_ac & speech).astype(dtype)[:, None]
        placeholder = (~has_ac & speech).astype(dtype)[:, None]
        return real, placeholder

    def _fuse_matrix(self, ids: np.ndarray, acoustic: np.ndarray, has_ac: np.ndarray, speech: np.ndarray) -> Tensor:
        """Vectorized additive fusion over a whole context, taped.

        ``acoustic`` is (n, d_acoustic) with zero rows where absent,
        ``has_ac`` marks rows with a real acoustic slot, ``speech`` marks
        text-speech mode. Text-only rows get a zero acoustic term; speech
        rows without a slot get the learned placeholder.
        """
        ids = np.asarray(ids, dtype=np.int64)
        real, placeholder = self._fusion_weights(ids, has_ac, speech)
        text = nx.gather_rows(self.params["text_emb"], ids)
        mode = nx.gather_rows(self.params["mode_emb"], speech.astype(np.int64))
        ac_proj = nn.linear(self.params, "ac_proj", nn.input_tensor(self.params, acoustic))
        ac_term = nx.mul(ac_proj, nn.input_tensor(self.params, np.broadcast_to(real, ac_proj.shape)))
        ph_term = nx.matmul(nn.input_tensor(self.params, placeholder), self.params["bos_ac"])
        return text + ac_term + ph_term + mode

    def _fuse_rows(self, ids: np.ndarray, acoustic: np.ndarray, has_ac: np.ndarray, speech: np.ndarray) -> np.ndarray:
        """:meth:`_fuse_matrix` on the parameters' arrays, untaped."""
        ids = np.asarray(ids, dtype=np.int64)
        real, placeholder = self._fusion_weights(ids, has_ac, speech)
        p = self.params
        ac_term = nn.linear(p, "ac_proj", np.ascontiguousarray(acoustic, dtype=real.dtype)) * real
        mode = p["mode_emb"].data[speech.astype(np.int64)]
        return p["text_emb"].data[ids] + ac_term + placeholder @ p["bos_ac"].data + mode

    # -- forward -------------------------------------------------------------

    def forward_tensors(self, ids, acoustic, has_ac, speech, lengths=None) -> tuple[Tensor, Tensor]:
        """Text logits and condition vectors, as tensors, for fused rows.

        The rows are consecutive sequences of the given ``lengths`` (default:
        one sequence), run as one packed stack. Each sequence's positions
        start at 0, and attention is computed per sequence under its own
        causal mask, so no value of one sequence reaches another's rows and
        no (rows x rows) array is formed. Each length must fit in
        ``max_context``; their sum need not.
        """
        ids = np.asarray(ids)
        lengths = np.array([ids.size]) if lengths is None else np.asarray(lengths, dtype=np.int64)
        if not lengths.size or lengths.min() < 1:
            raise ValidationError("forward: context must have length >= 1")
        if lengths.sum() != ids.size:
            raise ValidationError(f"forward: lengths sum to {lengths.sum()}, not the {ids.size} rows")
        if lengths.max() > self.config.max_context:
            raise ValidationError(
                f"forward: context length {lengths.max()} exceeds maximum {self.config.max_context}"
            )
        mask = [nn.causal_mask(n) for n in lengths.tolist()]
        x = self._fuse_matrix(ids, acoustic, has_ac, speech)
        h = nn.stack(self.params, "tf", x, mask, self.tf, nn.sequence_positions(lengths))
        return nn.linear(self.params, "lm_head", h), nn.linear(self.params, "cond_head", h)

    # -- incremental decoding --------------------------------------------------

    def new_cache(self, streams: int = 1) -> nn.StackCache:
        return nn.StackCache(self.tf, streams)

    def step(self, ids, acoustic, has_ac, speech, cache: nn.StackCache) -> tuple[np.ndarray, np.ndarray]:
        """Append fused rows to the cache in one call; return their
        ``(text_logits, cond)``.

        The rows are those of :meth:`forward_tensors`, one per step: L
        steps of each of the cache's streams, stream after stream, and the
        outputs in the same order. A stream's steps take its next L
        positions and attend causally to each other and to that stream's
        cached steps only, so each stream sees exactly the context it would
        see alone.
        """
        n, S = len(ids), cache.streams
        if n < 1 or n % S:
            raise ValidationError(f"step: {n} steps do not split into {S} streams of at least one step")
        if len(cache) + n // S > self.config.max_context:
            raise ValidationError(
                f"step: context length {len(cache) + n // S} exceeds maximum {self.config.max_context}"
            )
        x = self._fuse_rows(ids, acoustic, has_ac, speech)
        h = nn.stack_step(self.params, "tf", x, cache, self.tf)
        return nn.linear(self.params, "lm_head", h), nn.linear(self.params, "cond_head", h)

    def save(self, path) -> None:
        nn.save_params(path, self.params, self.config)

    @classmethod
    def load(cls, path, dtype=None) -> "BackboneModel":
        config, params = nn.load_params(path, BackboneConfig, dtype)
        nn.check_params(path, params, lambda: cls(config, np.random.default_rng(0)).params)
        return cls(config, params=params)


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
# Context layout and training sequences
# ---------------------------------------------------------------------------


def context_rows(config: BackboneConfig, tokens, slots, steps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, acoustic, has_ac)`` of the given steps of one fused context.

    Step j carries ``tokens[j-1]``, with BOS at step 0 and PAD past the
    end, and the packed acoustic slot ``slots[j-K-1]``, a row of the
    (n, d_acoustic) array ``slots``, when that slot exists (a zero row and
    ``has_ac`` false when it does not). Training sequences and generation
    lay out their steps by this one rule.
    """
    steps = np.asarray(steps)
    text = np.array([config.bos_id, *tokens, config.pad_id])
    ids = text[np.minimum(steps, text.size - 1)]
    slot = steps - config.k_shift - 1
    has_ac = (slot >= 0) & (slot < len(slots))
    acoustic = np.zeros((steps.size, config.d_acoustic))
    acoustic[has_ac] = slots[slot[has_ac]]
    return ids, acoustic, has_ac


def build_sequence(item: SequenceBatchItem, config: BackboneConfig):
    """Step layout for one utterance: :func:`context_rows` over its tokens
    and packed slots, with at least one PAD step after the last token.

    Returns (ids, acoustic, has_ac, ce_targets, flow_step_idx, flow_targets):
    step j's acoustic slot is token j-K (placeholder when j-K < 1) and its
    flow target is token j-K+1's packed vector.
    """
    K = config.k_shift
    L = item.tokens.size
    packed = durbits.pack(item.latents, item.f_before, item.f_after, config.bits)
    ids, acoustic, has_ac = context_rows(config, item.tokens, packed, np.arange(L + 1 + max(K - 1, 1)))
    return ids, acoustic, has_ac, ids[1:], np.arange(K, K + L), packed


def _text_only_logits(model: BackboneModel, ids: np.ndarray, lengths: list[int]) -> Tensor:
    """Text logits of packed sequences with every step text-only."""
    n = ids.size
    no = np.zeros(n, dtype=bool)
    return model.forward_tensors(ids, np.zeros((n, model.config.d_acoustic)), no, no, lengths)[0]


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
    the frozen base LM's logits to the model's at text-only steps. Each is
    a mean over the items of the item's own mean.

    The batch is packed, in order, into one forward (and one base-LM
    forward when a step is text-only); each item's terms are gathered from
    its own rows. Random draws go per item in batch order: the modes, then
    the flow seed when a flow step is kept.
    """
    cfg = model.config
    rate = cfg.dropout_rate if dropout_rate is None else dropout_rate
    rng = np.random.default_rng(seed)
    seqs, speeches, flow_seeds = [], [], []
    for item in batch:
        ids, _, _, _, flow_idx, _ = seq = build_sequence(item, cfg)
        speech = sample_segment_modes(ids.size, rate, cfg.dropout_mean_len, rng)
        seqs.append(seq)
        speeches.append(speech)
        flow_seeds.append(int(rng.integers(1 << 31)) if speech[flow_idx].any() else None)
    flow_terms: list[Tensor] = []
    ce_terms: list[Tensor] = []
    kd_terms: list[Tensor] = []
    ids, acoustic, has_ac = (np.concatenate([seq[k] for seq in seqs]) for k in range(3))
    speech = np.concatenate(speeches)
    lengths = [seq[0].size for seq in seqs]
    logits, cond = model.forward_tensors(ids, acoustic, has_ac, speech, lengths)
    base_logits = None
    if base_lm is not None and not speech.all():
        with nx.no_grad():
            base_logits = _text_only_logits(base_lm, ids, lengths)
    for (_, _, _, ce_targets, flow_idx, flow_targets), modes, flow_seed, start in zip(
        seqs, speeches, flow_seeds, np.cumsum(lengths) - lengths
    ):
        ce_terms.append(nx.cross_entropy(nx.gather_rows(logits, start + np.arange(ce_targets.size)), ce_targets))
        keep = modes[flow_idx]
        if keep.any():
            flow_terms.append(
                flowhead.flow_loss(
                    model.flow,
                    flow_targets[keep],
                    nx.gather_rows(cond, start + flow_idx[keep]),
                    cfg.flow.sigma_min,
                    seed=flow_seed,
                )
            )
        text_only = start + np.flatnonzero(~modes)
        if base_logits is not None and text_only.size:
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
    if apply_grads:
        total.backward()
    return TrainLossReport(flow=flow, ce=ce, kd=kd, total=total)


def train_backbone(
    corpus: list[SequenceBatchItem],
    config: BackboneConfig,
    base_lm: BackboneModel | None = None,
    steps: int = 3000,
    batch_size: int = 8,
    lr: float = 1e-3,
    seed: int = 0,
    log_every: int = 0,
) -> BackboneModel:
    """Train the multimodal backbone (and its flow head) with Adam, one
    :func:`train_step` per batch."""
    rng = np.random.default_rng(seed)
    model = BackboneModel(config, rng)

    def loss(step: int, idx: np.ndarray) -> tuple[Tensor, dict]:
        batch = [corpus[i] for i in idx]
        report = train_step(model, batch, base_lm, seed=int(rng.integers(1 << 31)), apply_grads=False)
        return report.total, report.floats()

    nx.fit("train_backbone", model.params, loss, len(corpus), steps, batch_size, lr, rng, log_every)
    return model


def base_lm_loss(model: BackboneModel, token_seqs: list[np.ndarray]) -> Tensor:
    """Mean over the sequences of each one's mean next-token cross-entropy,
    text-only, on ``[BOS, tokens, PAD]``.

    The sequences are packed, in order, into one forward.
    """
    if not token_seqs:
        raise ValidationError("base_lm_loss: need at least one sequence")
    cfg = model.config
    seqs = [np.concatenate([[cfg.bos_id], np.asarray(w, dtype=np.int64), [cfg.pad_id]]) for w in token_seqs]
    lengths = [ids.size for ids in seqs]
    logits = _text_only_logits(model, np.concatenate(seqs), lengths)
    terms = [
        nx.cross_entropy(nx.gather_rows(logits, start + np.arange(ids.size - 1)), ids[1:])
        for ids, start in zip(seqs, np.cumsum(lengths) - lengths)
    ]
    return nx.scale(sum(terms[1:], terms[0]), 1.0 / len(terms))


def train_base_lm(
    token_seqs: list[np.ndarray],
    config: BackboneConfig,
    steps: int = 1500,
    batch_size: int = 16,
    lr: float = 2e-3,
    seed: int = 0,
    log_every: int = 0,
) -> BackboneModel:
    """Text-only twin: same architecture trained with :func:`base_lm_loss` alone."""
    rng = np.random.default_rng(seed)
    model = BackboneModel(config, rng)

    def loss(step: int, idx: np.ndarray) -> tuple[Tensor, dict]:
        ce = base_lm_loss(model, [token_seqs[i] for i in idx])
        return ce, {"ce": float(ce.data)}

    nx.fit("train_base_lm", model.params, loss, len(token_seqs), steps, batch_size, lr, rng, log_every)
    return model
