"""End-to-end training orchestration for the toy stack.

Order: aligner on (frames, tokens); alignment extraction + filtering; codec
on extracted positions; latent/duration pre-extraction; base text LM; then
the multimodal backbone with its flow head, plus the speaker head. Training
runs at 32-bit precision; evaluation and tests use the 64-bit default.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .. import numerics as nx
from ..aligner import MAX_GAP, AlignerConfig, AlignerModel, filter_alignment, train_aligner
from ..backbone import BackboneConfig, BackboneModel, SequenceBatchItem, train_backbone, train_base_lm
from ..codec import CodecConfig, CodecModel, reparameterize, train_codec
from ..durbits import durations_from_positions
from ..errors import ValidationError
from ..pipeline import Prompt, SpeakerHead, prepare_prompt, train_speaker_head
from .corpus import Manifest, TemplateBank, utterance_arrays


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
    threads: int = 4
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


def aligner_pairs(manifest: Manifest, arrays: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for rec in manifest.records:
        frames, _ = utterance_arrays(arrays, rec.utt_id)
        out.append((frames, rec.tokens))
    return out


def extract_alignments(
    model: AlignerModel,
    manifest: Manifest,
    arrays: dict,
    threads: int = 4,
) -> dict[int, np.ndarray]:
    """Viterbi positions for every utterance, parallel across utterances."""

    def one(rec):
        frames, _ = utterance_arrays(arrays, rec.utt_id)
        return rec.utt_id, model.align(frames, rec.tokens).positions

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return dict(pool.map(one, manifest.records))
    return dict(one(rec) for rec in manifest.records)


def filter_alignments(
    alignments: dict[int, tuple[int, np.ndarray]], bits: int
) -> tuple[dict[int, tuple[int, np.ndarray]], int]:
    """Keep the alignments (utt_id -> (T, positions)) a backbone with
    ``bits`` duration bits can train on; return them and the number dropped.

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

    with nx.precision("float32"):
        pairs = aligner_pairs(manifest, arrays)
        aligner = train_aligner(
            pairs,
            aligner_config,
            steps=budget.aligner_steps,
            batch_size=budget.aligner_batch,
            seed=budget.seed,
            log_every=budget.log_every,
        )

        positions = extract_alignments(aligner, manifest, arrays, threads=budget.threads)
        hits = sum(
            int(np.sum(np.abs(positions[rec.utt_id] - rec.positions) <= 1))
            for rec in manifest.records
        )
        total = sum(rec.tokens.size for rec in manifest.records)
        align_accuracy = hits / max(total, 1)

        kept, dropped = filter_alignments(
            {rec.utt_id: (rec.T, positions[rec.utt_id]) for rec in manifest.records},
            backbone_config.bits,
        )
        codec_corpus = []
        for rec in manifest.records:
            if rec.utt_id not in kept:
                continue
            frames, signal = utterance_arrays(arrays, rec.utt_id)
            codec_corpus.append(
                {
                    "utt_id": rec.utt_id,
                    "frames": frames.astype(np.float32),
                    "signal": signal.astype(np.float32),
                    "tokens": rec.tokens,
                    "positions": kept[rec.utt_id][1],
                }
            )
        codec_model = train_codec(
            codec_corpus,
            codec_config,
            steps=budget.codec_steps,
            stream_steps=budget.codec_stream_steps,
            batch_size=budget.codec_batch,
            seed=budget.seed + 1,
            log_every=budget.log_every,
        )

        # Pre-extract sampled latents and durations for backbone training.
        items: list[SequenceBatchItem] = []
        spk_latents = []
        rng = np.random.default_rng(budget.seed + 2)
        with nx.no_grad():
            for utt in codec_corpus:
                rec_tokens = utt["tokens"]
                p = utt["positions"]
                T = utt["frames"].shape[0]
                s_mu = codec_model.encode(utt["frames"], p)
                s = reparameterize(
                    s_mu, codec_config.k_sigma, seed=int(rng.integers(1 << 31)),
                    sigma0=codec_config.sigma0,
                ).data
                f_before, f_after = durations_from_positions(p, T)
                items.append(
                    SequenceBatchItem(
                        tokens=rec_tokens,
                        latents=np.asarray(s, dtype=np.float64),
                        f_before=f_before,
                        f_after=f_after,
                    )
                )
                spk_latents.append(np.asarray(s_mu.data, dtype=np.float64))

        # Map utterances back to speakers for the speaker head dataset.
        by_id = {rec.utt_id: rec.speaker for rec in manifest.records}
        spk_rows = []
        spk_tgts = []
        for utt, lat in zip(codec_corpus, spk_latents):
            for row in lat:
                spk_rows.append(row)
                spk_tgts.append(bank.speaker_param[by_id[utt["utt_id"]]])
        speaker_head = train_speaker_head(
            np.asarray(spk_rows),
            np.asarray(spk_tgts),
            d_latent=codec_config.d_latent,
            steps=budget.speaker_steps,
            seed=budget.seed + 3,
        )

        base_lm = train_base_lm(
            [rec.tokens for rec in manifest.records],
            backbone_config,
            steps=budget.base_lm_steps,
            seed=budget.seed + 4,
            log_every=budget.log_every,
        )
        backbone = train_backbone(
            items,
            backbone_config,
            base_lm=base_lm,
            steps=budget.backbone_steps,
            batch_size=budget.backbone_batch,
            seed=budget.seed + 5,
            log_every=budget.log_every,
        )

    return TrainedStack(
        aligner=aligner,
        codec=codec_model,
        base_lm=base_lm,
        backbone=backbone,
        speaker_head=speaker_head,
        bank=bank,
        dropped_alignments=dropped,
        align_accuracy=align_accuracy,
    )


def build_prompts(
    stack: TrainedStack,
    manifest: Manifest,
    arrays: dict,
    utt_ids: list[int],
) -> list[Prompt]:
    by_id = {rec.utt_id: rec for rec in manifest.records}
    prompts = []
    for utt_id in utt_ids:
        rec = by_id[utt_id]
        frames, _ = utterance_arrays(arrays, utt_id)
        p = prepare_prompt(frames, rec.tokens, stack.aligner, stack.codec, stack.speaker_head)
        p.speaker = rec.speaker
        p.utt_id = utt_id
        prompts.append(p)
    return prompts


def sample_eval_texts(
    bank: TemplateBank, n: int, seed: int, length_range: tuple[int, int] = (4, 8)
) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    lo, hi = length_range
    return [bank.sample_tokens(rng, int(rng.integers(lo, hi + 1))) for _ in range(n)]
