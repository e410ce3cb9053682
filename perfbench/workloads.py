"""The three workloads: set-up, one operation, and the output checks.

An operation is one TTS request (prompt preparation, ``generate``,
``stream_synthesize``) on ``tts_long`` and ``tts_guided``, and one
``train_full_stack`` at a fixed budget on ``train``. Everything here calls
tada's public API the way a user would, through module attributes, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tada import aligner, backbone, codec, durbits, harness, pipeline
from tada import numerics as nx
from tada.backbone import BackboneConfig, SequenceBatchItem
from tada.codec import CodecConfig, CodecModel
from tada.harness import SynthConfig, TemplateBank, TrainBudget, utterance_arrays
from tada.pipeline import GenParams

# Every workload runs on the default synthetic corpus (SynthConfig() has
# seed 0): the corpus is part of the workload, like its code path.
CORPUS_UTTERANCES = 48

# train: one full-stack run covering all six stages, at the default batch
# sizes and the same small step count per stage. Two steps keep the run near
# 1.5 s, so a run fits about 15 replays for the best-of timing. Durations use
# the default 8 bits here: at a budget this small the aligner extracts gaps of
# up to ~30 frames, which 4 duration bits cannot encode (gray_encode raises).
TRAIN_STAGE_STEPS = 2
TRAIN_BUDGET = dict(
    aligner_steps=TRAIN_STAGE_STEPS,
    codec_steps=TRAIN_STAGE_STEPS, codec_stream_steps=TRAIN_STAGE_STEPS,
    base_lm_steps=TRAIN_STAGE_STEPS,
    backbone_steps=TRAIN_STAGE_STEPS,
    speaker_steps=TRAIN_STAGE_STEPS,
    threads=1,  # extraction is GIL-bound; more threads only add contention
)
TRAIN_STAGES = ("aligner", "viterbi", "codec", "base_lm", "backbone", "speaker_head")

# TTS set-up: the inference models, trained on ground-truth positions at a
# small fixed budget. Four duration bits cover 0..15 frames (corpus gaps are
# at most 8); with 8 bits the barely trained flow head samples ~60 frames
# per token and streaming decode would swamp every other layer.
TTS_BITS = 4
TTS_CODEC_STEPS = 8
TTS_BACKBONE_STEPS = 8
TTS_BATCH = 4
# A speaker head this briefly trained scores every best-of-four candidate
# above theta, so no retry round runs. With 300 steps it discriminates, and
# retry rounds per token then range from 1.1 to 1.8 with the prompt, which
# swamps every other difference between two runs.
TTS_SPEAKER_STEPS = 50
MODEL_SEED = 0  # the models are part of the workload; --seed picks the requests


@dataclass(frozen=True)
class TtsSpec:
    text_lens: tuple[int, ...]  # one request per entry
    n_fm: int
    neg_mode: str
    candidates: int


TTS_SPECS = {
    # Long texts, few flow steps, one candidate: the KV-cache backbone step
    # and streaming decode carry the cost.
    "tts_long": TtsSpec(text_lens=tuple(range(32, 49, 2)), n_fm=4, neg_mode="zero",
                        candidates=1),
    # Short texts, many flow steps, text-free guidance (a second cache per
    # token) and four candidates with up to two retries: flow sampling
    # dominates.
    "tts_guided": TtsSpec(text_lens=(4, 5, 6, 7, 8, 5, 6, 7), n_fm=32, neg_mode="tfg",
                          candidates=4),
}


@dataclass
class OpRecord:
    """What one operation did: wall time, work, and failed checks."""

    wall_s: float
    token_s: float = 0.0  # generate wall per acoustic token
    tokens: int = 0
    frames: int = 0
    generate_s: float = 0.0
    accounted_s: float = 0.0  # StepStat llm_time + flow_time
    candidates: int = 0
    rounds: int = 0
    accepted: int = 0
    chain_rate: float = 0.0
    attempted: int = 1
    failed: list[str] = field(default_factory=list)
    kept_share: float = 0.0
    align_accuracy: float = 0.0


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x.data if hasattr(x, "data") else x))))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class TrainWorkload:
    """One operation: the full-stack training run whose budget seed is the
    workload seed, repeated."""

    name = "train"
    n_ops = 1
    setup_repeats = 15  # the corpus takes ~40 ms; one draw is mostly timer noise

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.manifest, self.arrays = harness.gen_corpus(SynthConfig(), CORPUS_UTTERANCES)

    def op_inputs(self, i: int) -> int:
        return self.seed

    def run_op(self, budget_seed: int):
        t0 = time.perf_counter()
        stack = harness.train_full_stack(
            self.manifest, self.arrays, TrainBudget(seed=budget_seed, **TRAIN_BUDGET)
        )
        wall = time.perf_counter() - t0
        rec = OpRecord(wall_s=wall, attempted=len(TRAIN_STAGES))
        rec.kept_share = 1.0 - stack.dropped_alignments / len(self.manifest.records)
        rec.align_accuracy = stack.align_accuracy
        return rec, stack

    def failed_op(self) -> OpRecord:
        return OpRecord(wall_s=0.0, attempted=len(TRAIN_STAGES), failed=list(TRAIN_STAGES))

    def check_repeat(self, rec: OpRecord, stack, first) -> None:
        """Training again with the same seed gives the same parameters."""
        for model in ("aligner", "codec", "base_lm", "backbone", "speaker_head"):
            a, b = getattr(stack, model).params, getattr(first, model).params
            if a.keys() != b.keys() or any(not np.array_equal(a[k].data, b[k].data) for k in a):
                rec.failed.append(f"repeat differs: {model}")

    def check(self, rec: OpRecord, stack) -> None:
        """Every stage's trained model gives finite losses on held-in data."""
        records = self.manifest.records[:2]
        data = [(rec_, *utterance_arrays(self.arrays, rec_.utt_id)) for rec_ in records]
        with nx.precision("float32"), nx.no_grad():
            pairs = [(frames, r.tokens) for r, frames, _ in data]
            loss, _ = aligner.aligner_batch_loss(stack.aligner, pairs)
            if not _finite(loss):
                rec.failed.append("aligner")
            if not (0.0 <= stack.align_accuracy <= 1.0 and rec.kept_share > 0.0):
                rec.failed.append("viterbi")
            items, codec_ok = [], True
            for r, frames, signal in data:
                s_mu = stack.codec.encode(frames, r.positions)
                dec = stack.codec.decode(s_mu, r.positions, r.T)
                report = codec.codec_loss(dec, signal, r.tokens, r.positions, s_mu, stack.codec.config)
                codec_ok &= _finite(report.total)
                fb, fa = durbits.durations_from_positions(r.positions, r.T)
                items.append(SequenceBatchItem(r.tokens, np.asarray(s_mu.data, np.float64), fb, fa))
            if not codec_ok:
                rec.failed.append("codec")
            cfg = stack.base_lm.config
            ids = np.concatenate([[cfg.bos_id], records[0].tokens, [cfg.pad_id]])
            n = ids.size
            logits, _ = stack.base_lm.forward_tensors(
                ids, np.zeros((n, cfg.d_acoustic)), np.zeros(n, bool), np.zeros(n, bool)
            )
            if not _finite(nx.cross_entropy(nx.gather_rows(logits, np.arange(n - 1)), ids[1:])):
                rec.failed.append("base_lm")
            report = backbone.train_step(stack.backbone, items, stack.base_lm, seed=0, apply_grads=False)
            if not all(np.isfinite(v) for v in report.floats().values()):
                rec.failed.append("backbone")
            if not _finite(stack.speaker_head.embed(items[0].latents)):
                rec.failed.append("speaker_head")


# ---------------------------------------------------------------------------
# tts_long, tts_guided
# ---------------------------------------------------------------------------


@dataclass
class Request:
    utt_id: int
    text: np.ndarray
    gen_seed: int


class TtsWorkload:
    setup_repeats = 5

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        self.spec = TTS_SPECS[name]
        self.n_ops = len(self.spec.text_lens)
        self.seed = seed
        self.work_dir = work_dir
        self._requests: list[Request] = []

    def setup(self) -> None:
        """Corpus, inference-model training, checkpoint round trip.

        Mirrors ``tada codec-train`` then ``tada lm-train`` then loading both
        checkpoints for ``tada synth``, without an alignment cache (so on the
        manifest's ground-truth positions) and without a base LM.
        """
        manifest, arrays = harness.gen_corpus(SynthConfig(), CORPUS_UTTERANCES)
        cfg = manifest.config
        bank = TemplateBank(cfg)
        rng = np.random.default_rng(MODEL_SEED)
        with nx.precision("float32"):
            corpus = []
            for rec in manifest.records:
                frames, signal = utterance_arrays(arrays, rec.utt_id)
                corpus.append({
                    "frames": frames.astype(np.float32), "signal": signal.astype(np.float32),
                    "tokens": rec.tokens, "positions": rec.positions,
                })
            codec_cfg = CodecConfig(
                d_frame=cfg.d_frame, vocab_size=cfg.vocab_size, samples_per_frame=cfg.samples_per_frame
            )
            codec_model = codec.train_codec(
                corpus, codec_cfg, steps=TTS_CODEC_STEPS, stream_steps=TTS_CODEC_STEPS,
                batch_size=TTS_BATCH, seed=MODEL_SEED,
            )
            items, spk_rows, spk_tgts = [], [], []
            with nx.no_grad():
                for rec, utt in zip(manifest.records, corpus):
                    s_mu = codec_model.encode(utt["frames"], rec.positions)
                    s = codec.reparameterize(
                        s_mu, codec_cfg.k_sigma, seed=int(rng.integers(1 << 31)), sigma0=codec_cfg.sigma0
                    ).data
                    fb, fa = durbits.durations_from_positions(rec.positions, rec.T)
                    items.append(SequenceBatchItem(rec.tokens, np.asarray(s, np.float64), fb, fa))
                    for row in np.asarray(s_mu.data):
                        spk_rows.append(row)
                        spk_tgts.append(bank.speaker_param[rec.speaker])
            lm = backbone.train_backbone(
                items, BackboneConfig(vocab_size=cfg.vocab_size, bits=TTS_BITS),
                steps=TTS_BACKBONE_STEPS, batch_size=TTS_BATCH, seed=MODEL_SEED + 1,
            )
            head = pipeline.train_speaker_head(
                np.asarray(spk_rows), np.asarray(spk_tgts), d_latent=codec_cfg.d_latent,
                steps=TTS_SPEAKER_STEPS, seed=MODEL_SEED + 2,
            )
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            codec_path, lm_path = Path(tmp) / "codec.tada", Path(tmp) / "lm.tada"
            codec_model.save(codec_path)
            pipeline.save_lm_checkpoint(lm_path, lm, head)
            self.codec = CodecModel.load(codec_path)
            self.lm, self.head = pipeline.load_lm_checkpoint(lm_path)
        self.manifest, self.arrays, self.bank = manifest, arrays, bank

    def op_inputs(self, i: int) -> Request:
        """The i-th request; the same seed gives the same requests.

        Text length sets most of a request's cost, and the prompt speaker
        sets how often rejection sampling retries. The text lengths are fixed
        per workload and the speakers take turns, so every seed gets the
        same mix of both. The seed draws the prompt utterance of each
        speaker, the text tokens and the generation seed.
        """
        if not self._requests:
            rng = np.random.default_rng(self.seed)
            by_speaker: dict[int, list[int]] = {}
            for rec in self.manifest.records:
                by_speaker.setdefault(rec.speaker, []).append(rec.utt_id)
            speakers = _ladder(rng, sorted(by_speaker))
            for text_len in self.spec.text_lens:
                prompts = by_speaker[next(speakers)]
                utt_id = prompts[int(rng.integers(len(prompts)))]
                text = self.bank.sample_tokens(rng, text_len)
                self._requests.append(Request(utt_id, text, int(rng.integers(1 << 31))))
        return self._requests[i]

    def run_op(self, req: Request):
        rec = self.manifest.records[req.utt_id]
        frames, _ = utterance_arrays(self.arrays, rec.utt_id)
        s = self.spec
        params = GenParams(
            n_fm=s.n_fm, neg_mode=s.neg_mode, candidates=s.candidates, seed=req.gen_seed
        )
        t0 = time.perf_counter()
        prompt = pipeline.prepare_prompt(frames, rec.tokens, None, self.codec, self.head, positions=rec.positions)
        t1 = time.perf_counter()
        result = pipeline.generate(self.lm, self.codec, self.head, prompt, req.text, params)
        t2 = time.perf_counter()
        audio = pipeline.stream_synthesize(result, self.codec)
        t3 = time.perf_counter()
        stats = result.step_stats
        tokens = len(stats)
        out = OpRecord(
            wall_s=t3 - t0,
            token_s=(t2 - t1) / tokens,
            tokens=tokens,
            frames=audio.T,
            generate_s=t2 - t1,
            accounted_s=sum(s.llm_time + s.flow_time for s in stats),
            candidates=sum(s.pool_size for s in stats),
            rounds=sum(s.rounds for s in stats),
            accepted=sum(not s.below_threshold for s in stats),
            chain_rate=result.chain_rate,
        )
        return out, (result, audio)

    def failed_op(self) -> OpRecord:
        return OpRecord(wall_s=0.0, failed=["raised"])

    def check_repeat(self, rec: OpRecord, outputs, first) -> None:
        """The same request with the same seed gives identical latents and durations."""
        result, ref = outputs[0], first[0]
        if not all(np.array_equal(getattr(ref, k), getattr(result, k)) for k in ("latents", "f_before", "f_after")):
            rec.failed.append("repeat differs")

    def check(self, rec: OpRecord, outputs) -> None:
        result, audio = outputs
        full, _ = self.codec.decode_streaming_full(result.latents, audio.positions, audio.T)
        if full.shape != audio.frames.shape or not np.allclose(full, audio.frames, rtol=1e-9, atol=1e-12):
            rec.failed.append("stream != decode_streaming_full")
        bounds = [b for seg in audio.segments for b in seg]
        tiles = (
            bounds[0] == 0 and bounds[-1] == audio.T
            and all(bounds[k] == bounds[k + 1] for k in range(1, len(bounds) - 1, 2))
            and all(lo < hi for lo, hi in audio.segments)
        )
        if not tiles:
            rec.failed.append("segments do not tile [0, T]")
        if not 0.0 <= result.chain_rate <= 1.0:
            rec.failed.append("chain_rate outside [0, 1]")


def _ladder(rng: np.random.Generator, values: list[int]):
    """Endless stream of the values, each block a fresh shuffled permutation."""
    while True:
        yield from (int(v) for v in rng.permutation(values))


def make(name: str, seed: int, work_dir: Path):
    if name == "train":
        return TrainWorkload(seed)
    return TtsWorkload(name, seed, work_dir)
