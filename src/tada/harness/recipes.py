"""End-to-end training orchestration for the toy stack.

``train_full_stack`` runs four stages in order, and the ``align``,
``codec-train`` and ``lm-train`` subcommands run the same stage functions:

1. ``align_stage``: the aligner, then the manifest with its positions
   (seed ``seed``). ``filter_by_bits`` then keeps the records whose gaps
   the backbone's duration bits hold.
2. ``codec_stage``: the codec on the kept records (``seed + 1``).
3. ``latent_stage``: sampled latents, durations and speaker rows for the
   heads (``seed + 2``).
4. ``lm_stage``: the speaker head (``seed + 3``), the base text LM
   (``seed + 4``) and the multimodal backbone with its flow head
   (``seed + 5``).

Each stage trains under ``nx.precision("float32")``, which makes the fresh
parameters float32; a model then computes in the dtype of its parameters,
so training stays float32 throughout and every trained model is pure
float32, as its checkpoint stores it. A model held in memory and the same
model loaded from its checkpoint compute the same values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .. import numerics as nx
from ..aligner import MAX_GAP, AlignerConfig, AlignerModel, alignment_accuracy, filter_alignment, train_aligner
from ..backbone import BackboneConfig, BackboneModel, SequenceBatchItem, train_backbone, train_base_lm
from ..codec import CodecConfig, CodecModel, pack_utterances, reparameterize, train_codec
from ..durbits import durations_from_positions
from ..errors import ValidationError
from ..pipeline import Prompt, SpeakerHead, prepare_prompt, train_speaker_head
from .corpus import Manifest, TemplateBank, UttRecord, utterance_arrays


@dataclass
class TrainBudget:
    aligner_steps: int = 1200
    aligner_batch: int = 12
    codec_steps: int = 1800
    codec_stream_steps: int = 1200
    codec_batch: int = 8
    base_lm_steps: int = 800
    backbone_steps: int = 2500
    backbone_batch: int = 8
    speaker_steps: int = 800
    seed: int = 0
    threads: int = 1  # unread: extraction runs on one thread; the benchmark still passes it
    log_every: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (f.name.endswith("_steps") or f.name == "log_every") and value < 0:
                raise ValidationError(f"TrainBudget: {f.name} must be >= 0, got {value}")
            if f.name.endswith("_batch") and value < 1:
                raise ValidationError(f"TrainBudget: {f.name} must be >= 1, got {value}")


@dataclass
class TrainedStack:
    aligner: AlignerModel
    codec: CodecModel
    base_lm: BackboneModel
    backbone: BackboneModel
    speaker_head: SpeakerHead
    bank: TemplateBank
    dropped_alignments: int = 0
    align_accuracy: float = 0.0


@dataclass
class LatentCorpus:
    """What the heads train on: one backbone item per utterance, and one
    speaker row (the latent mean) per token with its speaker target."""

    items: list[SequenceBatchItem]
    speaker_rows: np.ndarray
    speaker_targets: np.ndarray


def aligner_pairs(manifest: Manifest, arrays: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for rec in manifest.records:
        frames, _ = utterance_arrays(arrays, rec.utt_id)
        out.append((frames, rec.tokens))
    return out


def extract_alignments(model: AlignerModel, manifest: Manifest, arrays: dict) -> dict[int, np.ndarray]:
    """Viterbi positions for every utterance: one packed aligner forward
    over the whole manifest, then Viterbi per utterance."""
    alignments = model.align_batch(aligner_pairs(manifest, arrays))
    return {rec.utt_id: a.positions for rec, a in zip(manifest.records, alignments)}


def filter_by_bits(manifest: Manifest, bits: int) -> tuple[Manifest, int]:
    """The manifest with only the records a backbone with ``bits`` duration
    bits can train on, and the number dropped.

    A gap wider than ``2**bits - 1`` frames cannot be Gray-encoded, so the
    gap limit is ``min(MAX_GAP, 2**bits - 1)``; ``filter_alignment`` applies
    it with the consecutive-run rule. Raises ``ValidationError`` when no
    record is left.
    """
    max_gap = min(MAX_GAP, (1 << bits) - 1)
    kept = [rec for rec in manifest.records if filter_alignment(rec.positions, rec.T, max_gap=max_gap) is None]
    dropped = len(manifest.records) - len(kept)
    if not kept:
        raise ValidationError(
            f"all {dropped} alignments were dropped by the filters (gaps must fit in {bits} duration bits)"
        )
    return replace(manifest, records=kept), dropped


def align_stage(
    manifest: Manifest,
    arrays: dict,
    aligner_config: AlignerConfig,
    budget: TrainBudget,
    aligner: AlignerModel | None = None,
) -> tuple[AlignerModel, Manifest, float]:
    """Train the aligner (unless one is given) and extract every utterance's
    positions.

    The aligner's input width and vocabulary are the manifest's, whatever
    ``aligner_config`` says. Returns the aligner, the manifest with every
    record at its extracted positions, and the share of tokens placed within
    one frame of the manifest's ground truth.
    """
    cfg = manifest.config
    with nx.precision("float32"):
        if aligner is None:
            aligner = train_aligner(
                aligner_pairs(manifest, arrays),
                replace(aligner_config, d_in=cfg.d_frame, vocab_size=cfg.vocab_size),
                steps=budget.aligner_steps,
                batch_size=budget.aligner_batch,
                seed=budget.seed,
                log_every=budget.log_every,
            )
        positions = extract_alignments(aligner, manifest, arrays)
    records = [replace(rec, positions=positions[rec.utt_id]) for rec in manifest.records]
    accuracy = alignment_accuracy([rec.positions for rec in records], [rec.positions for rec in manifest.records])
    return aligner, replace(manifest, records=records), accuracy


def _record_arrays(rec: UttRecord, arrays: dict) -> tuple[np.ndarray, np.ndarray]:
    """The frames and signal of a manifest record's utterance.

    Raises :class:`ValidationError` naming the utterance when the record's
    ``T`` is not its frame count: its positions were checked against ``T``.
    """
    frames, signal = utterance_arrays(arrays, rec.utt_id)
    if frames.shape[0] != rec.T:
        raise ValidationError(
            f"utterance {rec.utt_id}: the manifest says T={rec.T}, the arrays hold {frames.shape[0]} frames"
        )
    return frames, signal


def codec_corpus(manifest: Manifest, arrays: dict) -> list[dict]:
    """One float32 training utterance per record, in manifest order; a
    record whose ``T`` is not its frame count raises (:func:`_record_arrays`)."""
    corpus = []
    for rec in manifest.records:
        frames, signal = _record_arrays(rec, arrays)
        corpus.append(
            {
                "speaker": rec.speaker,
                "frames": frames.astype(np.float32),
                "signal": signal.astype(np.float32),
                "tokens": rec.tokens,
                "positions": rec.positions,
            }
        )
    return corpus


def codec_stage(
    manifest: Manifest, corpus: list[dict], codec_config: CodecConfig, budget: TrainBudget
) -> CodecModel:
    """Train the codec on ``corpus``; its frame width, samples per frame and
    vocabulary are the manifest's, whatever ``codec_config`` says."""
    cfg = manifest.config
    codec_config = replace(
        codec_config, d_frame=cfg.d_frame, vocab_size=cfg.vocab_size, samples_per_frame=cfg.samples_per_frame
    )
    with nx.precision("float32"):
        return train_codec(
            corpus,
            codec_config,
            steps=budget.codec_steps,
            stream_steps=budget.codec_stream_steps,
            batch_size=budget.codec_batch,
            seed=budget.seed + 1,
            log_every=budget.log_every,
        )


def latent_stage(
    codec_model: CodecModel, corpus: list[dict], bank: TemplateBank, budget: TrainBudget
) -> LatentCorpus:
    """Encode every utterance in one packed pass and sample its latents,
    each utterance from its own seed."""
    cfg = codec_model.config
    rng = np.random.default_rng(budget.seed + 2)
    frames, p, lengths = pack_utterances(corpus)
    counts = [np.size(utt["positions"]) for utt in corpus]
    seeds = [int(rng.integers(1 << 31)) for _ in corpus]
    with nx.no_grad():
        s_mu = codec_model.encode(frames, p, lengths)
        s = reparameterize(s_mu, cfg.k_sigma, seeds, cfg.sigma0, counts).data
    items, targets = [], []
    for utt, latents in zip(corpus, np.split(s, np.cumsum(counts)[:-1])):
        f_before, f_after = durations_from_positions(utt["positions"], utt["frames"].shape[0])
        items.append(
            SequenceBatchItem(
                tokens=utt["tokens"],
                latents=np.asarray(latents, dtype=np.float64),
                f_before=f_before,
                f_after=f_after,
            )
        )
        targets.append(np.repeat(bank.speaker_param[utt["speaker"]][None], len(latents), axis=0))
    return LatentCorpus(items, np.asarray(s_mu.data, dtype=np.float64), np.concatenate(targets))


def lm_stage(
    manifest: Manifest,
    latents: LatentCorpus,
    backbone_config: BackboneConfig,
    budget: TrainBudget,
    base_lm: BackboneModel | None = None,
) -> tuple[SpeakerHead, BackboneModel, BackboneModel]:
    """Train the speaker head, the base text LM (unless one is given) and the
    backbone on top of it; return the three.

    The backbone's vocabulary is the manifest's and its latent width that of
    ``latents``, whatever ``backbone_config`` says. A given base LM must have
    the manifest's vocabulary.
    """
    vocab_size = manifest.config.vocab_size
    if base_lm is not None and base_lm.config.vocab_size != vocab_size:
        raise ValidationError(
            f"base LM vocab_size={base_lm.config.vocab_size} differs from the manifest's vocab_size={vocab_size}"
        )
    d_latent = latents.speaker_rows.shape[1]
    backbone_config = replace(backbone_config, vocab_size=vocab_size, d_latent=d_latent)
    with nx.precision("float32"):
        speaker_head = train_speaker_head(
            latents.speaker_rows,
            latents.speaker_targets,
            d_latent=d_latent,
            steps=budget.speaker_steps,
            seed=budget.seed + 3,
            log_every=budget.log_every,
        )
        if base_lm is None:
            base_lm = train_base_lm(
                [rec.tokens for rec in manifest.records],
                backbone_config,
                steps=budget.base_lm_steps,
                seed=budget.seed + 4,
                log_every=budget.log_every,
            )
        backbone = train_backbone(
            latents.items,
            backbone_config,
            base_lm=base_lm,
            steps=budget.backbone_steps,
            batch_size=budget.backbone_batch,
            seed=budget.seed + 5,
            log_every=budget.log_every,
        )
    return speaker_head, base_lm, backbone


def train_full_stack(
    manifest: Manifest,
    arrays: dict,
    budget: TrainBudget | None = None,
    aligner_config: AlignerConfig | None = None,
    codec_config: CodecConfig | None = None,
    backbone_config: BackboneConfig | None = None,
) -> TrainedStack:
    budget = budget or TrainBudget()
    bank = TemplateBank(manifest.config)
    backbone_config = backbone_config or BackboneConfig()

    aligner, aligned, accuracy = align_stage(manifest, arrays, aligner_config or AlignerConfig(), budget)
    kept, dropped = filter_by_bits(aligned, backbone_config.bits)
    corpus = codec_corpus(kept, arrays)
    codec_model = codec_stage(kept, corpus, codec_config or CodecConfig(), budget)
    latents = latent_stage(codec_model, corpus, bank, budget)
    speaker_head, base_lm, backbone = lm_stage(aligned, latents, backbone_config, budget)
    return TrainedStack(
        aligner=aligner,
        codec=codec_model,
        base_lm=base_lm,
        backbone=backbone,
        speaker_head=speaker_head,
        bank=bank,
        dropped_alignments=dropped,
        align_accuracy=accuracy,
    )


def build_prompts(
    manifest: Manifest,
    arrays: dict,
    utt_ids: list[int],
    codec: CodecModel,
    head: SpeakerHead,
    aligner: AlignerModel | None = None,
) -> list[Prompt]:
    """One prompt per utterance id, with its speaker.

    Positions come from ``aligner`` if one is given, otherwise from the
    manifest, which may be one that ``align`` wrote. An id the manifest does
    not hold, or whose record's ``T`` is not its frame count, raises
    ``ValidationError``.
    """
    by_id = {rec.utt_id: rec for rec in manifest.records}
    prompts = []
    for utt_id in utt_ids:
        rec = by_id.get(utt_id)
        if rec is None:
            raise ValidationError(f"unknown prompt utterance id {utt_id}")
        positions = rec.positions if aligner is None else None
        frames, _ = _record_arrays(rec, arrays)
        prompt = prepare_prompt(frames, rec.tokens, aligner, codec, head, positions=positions)
        prompt.speaker = rec.speaker
        prompts.append(prompt)
    return prompts


def sample_eval_texts(
    bank: TemplateBank, n: int, seed: int, length_range: tuple[int, int] = (4, 8)
) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    lo, hi = length_range
    return [bank.sample_tokens(rng, int(rng.integers(lo, hi + 1))) for _ in range(n)]
