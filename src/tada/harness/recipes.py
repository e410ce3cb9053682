"""End-to-end training orchestration for the toy stack.

``train_full_stack`` runs four stages in order, and the ``align``,
``codec-train`` and ``lm-train`` subcommands run the same stage functions:

1. ``align_stage``: the aligner, alignment extraction and scoring, and the
   duration-bit filter (seed ``seed``).
2. ``codec_stage``: the codec on the kept alignments (``seed + 1``).
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

from dataclasses import dataclass

import numpy as np

from .. import numerics as nx
from ..aligner import MAX_GAP, AlignerConfig, AlignerModel, filter_alignment, train_aligner
from ..backbone import BackboneConfig, BackboneModel, SequenceBatchItem, train_backbone, train_base_lm
from ..codec import CodecConfig, CodecModel, reparameterize, train_codec
from ..durbits import durations_from_positions
from ..errors import ValidationError
from ..pipeline import Prompt, SpeakerHead, prepare_prompt, train_speaker_head
from .corpus import Manifest, TemplateBank, utterance_arrays

Alignments = dict[int, tuple[int, np.ndarray]]  # utt_id -> (T, positions)


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
    """Viterbi positions for every utterance."""
    out = {}
    for rec in manifest.records:
        frames, _ = utterance_arrays(arrays, rec.utt_id)
        out[rec.utt_id] = model.align(frames, rec.tokens).positions
    return out


def filter_alignments(alignments: Alignments, bits: int) -> tuple[Alignments, int]:
    """Keep the alignments a backbone with ``bits`` duration bits can train
    on; return them and the number dropped.

    A gap wider than ``2**bits - 1`` frames cannot be Gray-encoded, so the
    gap limit is ``min(MAX_GAP, 2**bits - 1)``; ``filter_alignment`` applies
    it with the consecutive-run rule. Raises ``ValidationError`` when no
    alignment is left.
    """
    max_gap = min(MAX_GAP, (1 << bits) - 1)
    kept = {
        utt_id: (T, p)
        for utt_id, (T, p) in alignments.items()
        if filter_alignment(p, T, max_gap=max_gap) is None
    }
    dropped = len(alignments) - len(kept)
    if not kept:
        raise ValidationError(
            f"all {dropped} alignments were dropped by the filters (gaps must fit in {bits} duration bits)"
        )
    return kept, dropped


def align_stage(
    manifest: Manifest,
    arrays: dict,
    aligner_config: AlignerConfig,
    bits: int,
    budget: TrainBudget,
    aligner: AlignerModel | None = None,
) -> tuple[AlignerModel, Alignments, int, float]:
    """Train the aligner (unless one is given), extract every utterance's
    positions, and keep those that ``bits`` duration bits can hold.

    Returns the aligner, the kept alignments, the number dropped, and the
    share of tokens placed within one frame of the manifest's ground truth.
    """
    with nx.precision("float32"):
        if aligner is None:
            aligner = train_aligner(
                aligner_pairs(manifest, arrays),
                aligner_config,
                steps=budget.aligner_steps,
                batch_size=budget.aligner_batch,
                seed=budget.seed,
                log_every=budget.log_every,
            )
        positions = extract_alignments(aligner, manifest, arrays)
    hits = sum(
        int(np.sum(np.abs(positions[rec.utt_id] - rec.positions) <= 1)) for rec in manifest.records
    )
    total = sum(rec.tokens.size for rec in manifest.records)
    kept, dropped = filter_alignments(
        {rec.utt_id: (rec.T, positions[rec.utt_id]) for rec in manifest.records}, bits
    )
    return aligner, kept, dropped, hits / max(total, 1)


def codec_corpus(manifest: Manifest, arrays: dict, alignments: Alignments) -> list[dict]:
    """One float32 training utterance per aligned record, in manifest order."""
    corpus = []
    for rec in manifest.records:
        if rec.utt_id not in alignments:
            continue
        frames, signal = utterance_arrays(arrays, rec.utt_id)
        corpus.append(
            {
                "speaker": rec.speaker,
                "frames": frames.astype(np.float32),
                "signal": signal.astype(np.float32),
                "tokens": rec.tokens,
                "positions": alignments[rec.utt_id][1],
            }
        )
    return corpus


def codec_stage(corpus: list[dict], codec_config: CodecConfig, budget: TrainBudget) -> CodecModel:
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
    """Encode every utterance once and sample its latents."""
    cfg = codec_model.config
    rng = np.random.default_rng(budget.seed + 2)
    items, rows, targets = [], [], []
    with nx.no_grad():
        for utt in corpus:
            p = utt["positions"]
            s_mu = codec_model.encode(utt["frames"], p)
            s = reparameterize(s_mu, cfg.k_sigma, seed=int(rng.integers(1 << 31)), sigma0=cfg.sigma0).data
            f_before, f_after = durations_from_positions(p, utt["frames"].shape[0])
            items.append(
                SequenceBatchItem(
                    tokens=utt["tokens"],
                    latents=np.asarray(s, dtype=np.float64),
                    f_before=f_before,
                    f_after=f_after,
                )
            )
            mu = np.asarray(s_mu.data, dtype=np.float64)
            rows.append(mu)
            targets.append(np.repeat(bank.speaker_param[utt["speaker"]][None], len(mu), axis=0))
    return LatentCorpus(items, np.concatenate(rows), np.concatenate(targets))


def lm_stage(
    manifest: Manifest,
    latents: LatentCorpus,
    backbone_config: BackboneConfig,
    budget: TrainBudget,
    base_lm: BackboneModel | None = None,
) -> tuple[SpeakerHead, BackboneModel, BackboneModel]:
    """Train the speaker head, the base text LM (unless one is given) and the
    backbone on top of it; return the three."""
    with nx.precision("float32"):
        speaker_head = train_speaker_head(
            latents.speaker_rows,
            latents.speaker_targets,
            d_latent=latents.speaker_rows.shape[1],
            steps=budget.speaker_steps,
            seed=budget.seed + 3,
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
    cfg = manifest.config
    bank = TemplateBank(cfg)
    aligner_config = aligner_config or AlignerConfig(d_in=cfg.d_frame, vocab_size=cfg.vocab_size)
    codec_config = codec_config or CodecConfig(
        d_frame=cfg.d_frame, vocab_size=cfg.vocab_size, samples_per_frame=cfg.samples_per_frame
    )
    backbone_config = backbone_config or BackboneConfig(vocab_size=cfg.vocab_size)

    aligner, kept, dropped, accuracy = align_stage(manifest, arrays, aligner_config, backbone_config.bits, budget)
    corpus = codec_corpus(manifest, arrays, kept)
    codec_model = codec_stage(corpus, codec_config, budget)
    latents = latent_stage(codec_model, corpus, bank, budget)
    speaker_head, base_lm, backbone = lm_stage(manifest, latents, backbone_config, budget)
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
    alignments: Alignments | None = None,
) -> list[Prompt]:
    """One prompt per utterance id, with its speaker.

    Positions come from ``aligner`` if one is given, otherwise from the
    utterance's ``alignments`` entry (an alignment cache), otherwise from
    the manifest. An id the manifest does not hold raises ``ValidationError``.
    """
    by_id = {rec.utt_id: rec for rec in manifest.records}
    prompts = []
    for utt_id in utt_ids:
        rec = by_id.get(utt_id)
        if rec is None:
            raise ValidationError(f"unknown prompt utterance id {utt_id}")
        positions = None
        if aligner is None:
            positions = alignments[utt_id][1] if alignments and utt_id in alignments else rec.positions
        frames, _ = utterance_arrays(arrays, utt_id)
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
