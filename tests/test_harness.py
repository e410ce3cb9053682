"""Synthetic corpus generation, oracle decoding, and metric arithmetic."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from tada import numerics as nx
from tada.aligner import AlignerConfig, filter_alignment, train_aligner
from tada.backbone import BackboneConfig, SequenceBatchItem, train_backbone
from tada.codec import CodecConfig, train_codec
from tada.durbits import durations_from_positions
from tada.harness import (
    EvalCase,
    Manifest,
    OracleDecoder,
    SynthConfig,
    TemplateBank,
    edit_distance,
    evaluate,
    gen_corpus,
    train_full_stack,
    utterance_arrays,
)
from tada.harness import recipes
from tada.harness.corpus import UttRecord, _render_utterance
from tada.harness.recipes import TrainBudget
from tada.errors import NumericalAbort, ValidationError
from tada.pipeline import train_speaker_head


CFG = SynthConfig(vocab_size=8, n_speakers=3, tokens_min=2, tokens_max=5, seed=11)


def render_per_frame(bank, rng, tokens, speaker):
    """The corpus renderer one frame at a time: the reference that
    ``_render_utterance`` is checked against."""
    cfg = bank.config

    def frame_template(token, remaining):
        out = np.zeros(cfg.d_frame)
        out[:9] = bank.token_vec[token]
        out[9:12] = [1.0, remaining / max(cfg.dur_max - 1, 1), 1.0 if remaining == 0 else 0.0]
        out[12:] = 0.8 * bank.speaker_frame[speaker]
        return out

    def silence_template():
        out = np.zeros(cfg.d_frame)
        out[12:] = 0.4 * bank.speaker_frame[speaker]
        return out

    L = tokens.size
    durs = rng.integers(cfg.dur_min, cfg.dur_max + 1, size=L)
    gaps = rng.integers(cfg.gap_min, cfg.gap_max + 1, size=L + 1)
    T = int(durs.sum() + gaps.sum())
    frames = np.zeros((T, cfg.d_frame))
    signal = np.zeros((T, cfg.samples_per_frame))
    positions = np.zeros(L, dtype=np.int64)
    t = 0
    for i in range(L + 1):
        for _ in range(gaps[i]):
            frames[t] = silence_template()
            signal[t] = bank.silence_signal(speaker)
            t += 1
        if i == L:
            break
        for j in range(durs[i]):
            rem = durs[i] - 1 - j
            frames[t] = frame_template(tokens[i], rem)
            signal[t] = bank.signal_template(tokens[i], speaker, rem)
            if rem == 0:
                positions[i] = t + 1  # 1-based
            t += 1
    if cfg.noise > 0:
        frames += rng.normal(0.0, cfg.noise, frames.shape)
        signal += rng.normal(0.0, cfg.noise, signal.shape)
    return frames, signal, positions


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(),
        CFG,
        SynthConfig(gap_min=0, gap_max=0),
        SynthConfig(noise=0.0, seed=5),
        SynthConfig(seed=3, dur_min=2, dur_max=3, gap_min=1, gap_max=5),
        SynthConfig(seed=9, dur_min=1, dur_max=1),
    ],
    ids=["default", "small", "no-gaps", "no-noise", "long-gaps", "one-frame-runs"],
)
def test_render_utterance_equals_per_frame_loop(config):
    """Every array and position of the vectorised renderer equals the
    per-frame loop's, and both leave the generator in the same state."""
    bank = TemplateBank(config)
    draw = np.random.default_rng(config.seed + 100)
    for _ in range(8):
        tokens = bank.sample_tokens(draw, int(draw.integers(1, 11)))
        speaker = int(draw.integers(config.n_speakers))
        seed = int(draw.integers(1 << 31))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = _render_utterance(bank, rng, tokens, speaker), render_per_frame(bank, ref_rng, tokens, speaker)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)
        assert rng.random() == ref_rng.random()


class TestGenCorpus:
    def test_deterministic_per_seed(self):
        m1, a1 = gen_corpus(CFG, 10)
        m2, a2 = gen_corpus(CFG, 10)
        for r1, r2 in zip(m1.records, m2.records):
            assert r1.to_line() == r2.to_line()
        for k in a1:
            np.testing.assert_array_equal(a1[k], a2[k])

    def test_seed_changes_output(self):
        m1, _ = gen_corpus(CFG, 5)
        m2, _ = gen_corpus(SynthConfig(**{**CFG.__dict__, "seed": 12}), 5)
        assert any(r1.to_line() != r2.to_line() for r1, r2 in zip(m1.records, m2.records))

    def test_duration_law_respected(self):
        manifest, _ = gen_corpus(CFG, 40)
        for rec in manifest.records:
            fb = np.diff(np.concatenate([[0], rec.positions]))
            # each step is duration + gap: within [dur_min, dur_max + gap_max]
            assert np.all(fb >= CFG.dur_min)
            assert np.all(fb <= CFG.dur_max + CFG.gap_max)
            assert rec.T - rec.positions[-1] <= CFG.gap_max
            assert CFG.tokens_min <= rec.tokens.size <= CFG.tokens_max

    def test_ground_truth_passes_filters(self):
        manifest, _ = gen_corpus(CFG, 40)
        for rec in manifest.records:
            assert filter_alignment(rec.positions, rec.T) is None

    def test_arrays_match_T(self):
        manifest, arrays = gen_corpus(CFG, 8)
        for rec in manifest.records:
            frames, signal = utterance_arrays(arrays, rec.utt_id)
            assert frames.shape == (rec.T, CFG.d_frame)
            assert signal.shape == (rec.T, CFG.samples_per_frame)

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            SynthConfig(dur_min=0)
        with pytest.raises(ValidationError):
            SynthConfig(d_frame=7)


class TestOracleDecoder:
    def test_clean_corpus_exact_transcripts(self):
        cfg = SynthConfig(**{**CFG.__dict__, "noise": 0.0})
        manifest, arrays = gen_corpus(cfg, 15)
        decoder = OracleDecoder(TemplateBank(cfg))
        for rec in manifest.records:
            _, signal = utterance_arrays(arrays, rec.utt_id)
            tokens, positions = decoder.decode(signal)
            np.testing.assert_array_equal(tokens, rec.tokens)
            np.testing.assert_array_equal(positions, rec.positions)

    def test_default_noise_still_exact(self):
        manifest, arrays = gen_corpus(CFG, 15)
        decoder = OracleDecoder(TemplateBank(CFG))
        errors = 0
        for rec in manifest.records:
            _, signal = utterance_arrays(arrays, rec.utt_id)
            tokens, _ = decoder.decode(signal)
            errors += edit_distance(tokens.tolist(), rec.tokens.tolist())
        assert errors == 0

    def test_phase_invariance(self):
        # the decoder classifies DFT-bin magnitudes, so a phase-scrambled
        # rendition of the same tones decodes identically
        bank = TemplateBank(CFG)
        decoder = OracleDecoder(bank)
        grid = (np.arange(CFG.samples_per_frame) + 0.5) / CFG.samples_per_frame
        rows = []
        for rem in (2, 1, 0):
            shifted = (
                bank.token_amp[3] * np.sin(2 * np.pi * bank.token_bin[3] * grid + 1.234)
                + bank.rem_amp[rem] * np.sin(2 * np.pi * bank.rem_bin * grid - 0.777)
                + bank.speaker_dc[1]
                + bank.speaker_hi[1] * np.sin(2 * np.pi * bank.speaker_bin * grid + 2.5)
            )
            rows.append(shifted)
        tokens, positions = decoder.decode(np.stack(rows))
        np.testing.assert_array_equal(tokens, [3])
        np.testing.assert_array_equal(positions, [3])
        assert decoder.speaker_id_estimate(np.stack(rows)) == 1

    def test_swapped_template_detected_as_substitution(self):
        bank = TemplateBank(CFG)
        rng = np.random.default_rng(0)
        tokens = np.array([1, 2, 3])
        frames, signal, positions = _render_utterance(bank, rng, tokens, speaker=0)
        decoder = OracleDecoder(bank)
        # overwrite token 2's final frame with token 5's final-frame signal
        signal[positions[1] - 1] = bank.signal_template(5, 0, 0)
        hyp, _ = decoder.decode(signal)
        assert edit_distance(hyp.tolist(), tokens.tolist()) >= 1
        assert 5 in hyp.tolist()

    def test_pure_silence_empty_transcript(self):
        bank = TemplateBank(CFG)
        decoder = OracleDecoder(bank)
        signal = np.tile(bank.silence_signal(1), (12, 1))
        tokens, _ = decoder.decode(signal)
        assert tokens.size == 0

    def test_speaker_estimate_matches_ground_truth(self):
        bank = TemplateBank(CFG)
        decoder = OracleDecoder(bank)
        manifest, arrays = gen_corpus(CFG, 10)
        hits = 0
        for rec in manifest.records:
            _, signal = utterance_arrays(arrays, rec.utt_id)
            hits += decoder.speaker_id_estimate(signal) == rec.speaker
        assert hits == len(manifest.records)

    def test_random_speaker_pairs_centered_on_template_cosine(self):
        bank = TemplateBank(CFG)
        decoder = OracleDecoder(bank)
        manifest, arrays = gen_corpus(CFG, 30)
        rng = np.random.default_rng(1)
        same, cross = [], []
        ests = {}
        for rec in manifest.records:
            _, signal = utterance_arrays(arrays, rec.utt_id)
            ests[rec.utt_id] = (rec.speaker, decoder.speaker_estimate(signal))
        ids = list(ests)
        for _ in range(200):
            a, b = rng.choice(ids, size=2, replace=False)
            sa, ea = ests[a]
            sb, eb = ests[b]
            val = float(ea @ eb)
            (same if sa == sb else cross).append((val, sa, sb))
        # cross-speaker estimate cosines track the template-profile cosines
        for val, sa, sb in cross[:50]:
            tmpl = float(bank.speaker_signal_profile(sa) @ bank.speaker_signal_profile(sb))
            assert val == pytest.approx(tmpl, abs=0.15)
        assert np.mean([v for v, _, _ in same]) > 0.95


class TestEditDistance:
    def test_identity(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == 0

    def test_one_substitution_in_ten(self):
        a = list(range(10))
        b = list(range(10))
        b[4] = 99
        assert edit_distance(a, b) == 1
        assert edit_distance(a, b) / len(a) == pytest.approx(0.1)

    def test_insert_delete(self):
        assert edit_distance([1, 2], [1, 3, 2]) == 1
        assert edit_distance([1, 3, 2], [1, 2]) == 1
        assert edit_distance([], [1, 2]) == 2


class TestManifestIO:
    def test_roundtrip(self, tmp_path):
        manifest, _ = gen_corpus(CFG, 6)
        path = tmp_path / "manifest.txt"
        manifest.save(path)
        loaded = Manifest.load(path)
        assert loaded.config == CFG
        for a, b in zip(manifest.records, loaded.records):
            assert a.to_line() == b.to_line()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("id=0 speaker=1 T=4 tokens=1 p=2\n")
        with pytest.raises(ValidationError):
            Manifest.load(path)

    @pytest.mark.parametrize(
        "edit, lineno, match",
        [
            (lambda lines: [lines[0] + " bogus=1", *lines[1:]], 1, "unknown key 'bogus'"),
            (lambda lines: [*lines, "id=1 speaker=1 tokens=1 p=2"], 3, "missing key 'T'"),
            (lambda lines: [*lines, "id=1 speaker=1 T=x tokens=1 p=2"], 3, "cannot parse"),
            (lambda lines: [*lines, "id=1 speaker=1 T=4 tokens=1,2 p=2"], 3, "2 tokens but 1 positions"),
        ],
        ids=["header_key", "record_key", "record_value", "record_lengths"],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, edit, lineno, match):
        path = tmp_path / "manifest.txt"
        Manifest(config=CFG, records=[UttRecord(0, 1, np.array([1]), np.array([2]), 4)]).save(path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path} line {lineno}: ") + f".*{match}"):
            Manifest.load(path)

    @pytest.mark.parametrize(
        "record, match",
        [
            ("id=1 speaker=3 T=4 tokens=1 p=2", "speaker 3 outside [0, 3)"),
            ("id=1 speaker=-1 T=4 tokens=1 p=2", "speaker -1 outside [0, 3)"),
            ("id=1 speaker=1 T=4 tokens=1,8 p=2,3", "token id 8 outside [0, 8)"),
            ("id=1 speaker=1 T=4 tokens=-1 p=2", "token id -1 outside [0, 8)"),
            ("id=1 speaker=1 T=4 tokens=1 p=0", "positions must increase strictly within 1..4"),
            ("id=1 speaker=1 T=4 tokens=1,2 p=3,5", "positions must increase strictly within 1..4"),
            ("id=1 speaker=1 T=4 tokens=1,2 p=3,3", "positions must increase strictly within 1..4"),
            ("id=1 speaker=1 T=4 tokens=1,2 p=3,2", "positions must increase strictly within 1..4"),
        ],
        ids=["speaker", "negative_speaker", "token", "negative_token", "position_zero", "position_past_T",
             "position_repeated", "position_decreasing"],
    )
    def test_record_outside_header_ranges_names_path_and_line(self, tmp_path, record, match):
        path = tmp_path / "manifest.txt"
        Manifest(config=CFG, records=[UttRecord(0, 2, np.array([7]), np.array([4]), 4)]).save(path)
        Manifest.load(path)  # the edge values are in range
        path.write_text(path.read_text() + record + "\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path} line 3: {match}")):
            Manifest.load(path)

    def test_record_line_format(self):
        rec = UttRecord(utt_id=3, speaker=1, tokens=np.array([4, 5]), positions=np.array([2, 7]), T=9)
        assert rec.to_line() == "id=3 speaker=1 T=9 tokens=4,5 p=2,7"
        back = UttRecord.from_line(rec.to_line())
        assert back.to_line() == rec.to_line()


TINY_BUDGET = dict(
    aligner_steps=2, codec_steps=2, codec_stream_steps=2, base_lm_steps=2,
    backbone_steps=2, speaker_steps=2, threads=1,
)


def test_train_full_stack_four_bit_backbone_completes():
    """A tiny aligner budget leaves gaps wider than four duration bits hold;
    those alignments are dropped instead of failing in gray_encode."""
    manifest, arrays = gen_corpus(SynthConfig(), 24)
    config = BackboneConfig(vocab_size=manifest.config.vocab_size, bits=4)
    stack = train_full_stack(manifest, arrays, TrainBudget(**TINY_BUDGET), backbone_config=config)
    assert 0 < stack.dropped_alignments < len(manifest.records)
    assert stack.backbone.config.bits == 4


def test_train_full_stack_models_are_float32():
    """Training under float32 leaves no float64 parameter in any model."""
    manifest, arrays = gen_corpus(SynthConfig(), 12)
    stack = train_full_stack(manifest, arrays, TrainBudget(**TINY_BUDGET))
    for name in ("aligner", "codec", "base_lm", "backbone", "speaker_head"):
        params = getattr(stack, name).params
        assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}, name


ONE_STEP_BUDGET = {**TINY_BUDGET, **{k: 1 for k in TINY_BUDGET if k.endswith("_steps")}}


def test_train_full_stack_backbone_takes_the_codec_latent_width():
    """The backbone and base LM take the latent width of the codec they
    train on, and the caller's backbone config is left as it was."""
    manifest, arrays = gen_corpus(SynthConfig(), 12)
    cfg = manifest.config
    codec_config = CodecConfig(
        d_frame=cfg.d_frame, vocab_size=cfg.vocab_size, samples_per_frame=cfg.samples_per_frame, d_latent=4
    )
    backbone_config = BackboneConfig()
    stack = train_full_stack(
        manifest, arrays, TrainBudget(**ONE_STEP_BUDGET), codec_config=codec_config, backbone_config=backbone_config
    )
    for model in (stack.backbone, stack.base_lm):
        assert (model.config.d_latent, model.config.flow.d_latent, model.config.vocab_size) == (4, 4, cfg.vocab_size)
    assert backbone_config == BackboneConfig()


def test_train_full_stack_logs_one_line_per_trainer_step(capsys):
    manifest, arrays = gen_corpus(SynthConfig(), 12)
    train_full_stack(manifest, arrays, TrainBudget(**ONE_STEP_BUDGET, log_every=1))
    lines = capsys.readouterr().out.splitlines()
    names = [
        "train_aligner", "train_codec[joint]", "train_codec[streaming]",
        "train_speaker_head", "train_base_lm", "train_backbone",
    ]
    assert [line.split(" step 0: ")[0] for line in lines] == names
    assert all(re.fullmatch(r"\S+ step 0: \{'\w+': .*\}", line) for line in lines), lines


def _abort_corpus() -> list[dict]:
    manifest, arrays = gen_corpus(CFG, 3)
    return recipes.codec_corpus(manifest, arrays)


def _inf_frames(corpus: list[dict]) -> list[dict]:
    return [{**utt, "frames": np.full_like(utt["frames"], np.inf)} for utt in corpus]


def _inf_latent_items(corpus: list[dict]) -> list[SequenceBatchItem]:
    items = []
    for utt in corpus:
        f_before, f_after = durations_from_positions(utt["positions"], utt["frames"].shape[0])
        items.append(SequenceBatchItem(utt["tokens"], np.full((utt["tokens"].size, 8), np.inf), f_before, f_after))
    return items


CODEC_CFG = CodecConfig(d_frame=CFG.d_frame, vocab_size=CFG.vocab_size, samples_per_frame=CFG.samples_per_frame)
ABORT_CASES = {
    "train_aligner": lambda corpus: train_aligner(
        [(utt["frames"], utt["tokens"]) for utt in _inf_frames(corpus)],
        AlignerConfig(d_in=CFG.d_frame, vocab_size=CFG.vocab_size),
        steps=2,
    ),
    "train_codec[joint]": lambda corpus: train_codec(_inf_frames(corpus), CODEC_CFG, steps=2, stream_steps=2),
    "train_codec[streaming]": lambda corpus: train_codec(_inf_frames(corpus), CODEC_CFG, steps=0, stream_steps=2),
    "train_backbone": lambda corpus: train_backbone(
        _inf_latent_items(corpus),
        BackboneConfig(vocab_size=CFG.vocab_size, d_model=16, n_heads=2, n_layers=1, d_ff=32, d_cond=16),
        steps=2,
    ),
    "train_speaker_head": lambda corpus: train_speaker_head(
        np.full((10, 4), np.inf), np.ones((10, 6)), d_latent=4, dims=(8, 8, 6), steps=3
    ),
    # no input makes the base LM diverge (it reads only token ids), so the
    # loop it runs is fed a NaN loss directly
    "fit": lambda corpus: nx.fit(
        "fit", {"w": nx.tensor(np.ones(2), requires_grad=True)},
        lambda step, idx: (nx.tensor(np.nan), {"loss": np.nan}),
        n_items=1, steps=2, batch_size=1, lr=1e-3, rng=np.random.default_rng(0),
    ),
}


@pytest.mark.parametrize("name", list(ABORT_CASES))
def test_trainer_aborts_on_non_finite_loss(name):
    """A non-finite loss raises, naming the trainer and the step, instead
    of returning weights that are no longer finite."""
    corpus = _abort_corpus()
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort, match=re.escape(f"{name}: diverged at step 0: {{")):
        ABORT_CASES[name](corpus)


@pytest.mark.parametrize("bits", [3, 4])
@pytest.mark.parametrize("where", ["leading", "inner", "trailing"])
def test_filter_by_bits_keeps_gaps_up_to_two_to_the_bits_minus_one(bits, where):
    """A gap of 2**bits - 1 frames fits in ``bits`` duration bits and is
    kept; one of 2**bits frames is dropped, wherever it lies."""
    widest = (1 << bits) - 1
    keep = UttRecord(utt_id=1, speaker=0, tokens=np.array([0]), positions=np.array([1]), T=1)
    for gap, dropped in ((widest, 0), (widest + 1, 1)):
        positions, T = {"leading": ([gap + 1], gap + 1), "inner": ([1, gap + 2], gap + 2),
                        "trailing": ([1], gap + 1)}[where]
        rec = UttRecord(utt_id=0, speaker=0, tokens=np.zeros(len(positions), dtype=np.int64),
                        positions=np.array(positions), T=T)
        f_before, f_after = durations_from_positions(rec.positions, rec.T)
        assert max(f_before.max(), f_after.max()) == gap
        kept, n = recipes.filter_by_bits(Manifest(CFG, [rec, keep]), bits)
        assert n == dropped and [r.utt_id for r in kept.records] == [0, 1][dropped:]


def test_train_full_stack_rejects_when_every_alignment_is_dropped():
    manifest, arrays = gen_corpus(SynthConfig(), 6)
    config = BackboneConfig(vocab_size=manifest.config.vocab_size, bits=1)
    with pytest.raises(ValidationError, match="all 6 alignments were dropped"):
        train_full_stack(manifest, arrays, TrainBudget(**TINY_BUDGET), backbone_config=config)


def test_evaluate_reports_mean_prefill_time():
    """prefill_time and idle_step_time are means over the cases, printed side by side."""
    manifest, arrays = gen_corpus(CFG, 2)
    cases = [
        EvalCase(
            prompt=SimpleNamespace(speaker=rec.speaker),
            target_text=rec.tokens,
            result=SimpleNamespace(chain_rate=1.0, step_stats=[], prefill_time=t, idle_step_time=t / 4),
            audio_signal=utterance_arrays(arrays, rec.utt_id)[1],
        )
        for rec, t in zip(manifest.records, (1.0, 3.0))
    ]
    report = evaluate(cases, TemplateBank(CFG))
    assert (report.prefill_time, report.idle_step_time) == (2.0, 0.5)
    lines = report.to_lines()
    assert lines[lines.index("prefill_time=2") + 1] == "idle_step_time=0.5"


def test_extract_alignments_equal_per_utterance_align():
    """One packed forward over the manifest gives each utterance the
    positions its own forward gives."""
    from tada.aligner import AlignerModel

    manifest, arrays = gen_corpus(CFG, 10)
    model = AlignerModel(AlignerConfig(d_in=CFG.d_frame, vocab_size=CFG.vocab_size), np.random.default_rng(3))
    got = recipes.extract_alignments(model, manifest, arrays)
    assert list(got) == [rec.utt_id for rec in manifest.records]
    for rec in manifest.records:
        frames, _ = utterance_arrays(arrays, rec.utt_id)
        np.testing.assert_array_equal(got[rec.utt_id], model.align(frames, rec.tokens).positions)


def test_latent_stage_matches_per_utterance_encode():
    """The packed encode gives each utterance its own latent means, and
    each utterance's sampled latents come from its own seed, in order."""
    from tada.codec import CodecModel, reparameterize

    manifest, arrays = gen_corpus(CFG, 6)
    codec = CodecModel(
        CodecConfig(d_frame=CFG.d_frame, vocab_size=CFG.vocab_size, samples_per_frame=CFG.samples_per_frame),
        np.random.default_rng(4),
    )
    corpus = recipes.codec_corpus(manifest, arrays)
    for utt in corpus:
        utt["frames"] = utt["frames"].astype(np.float64)
    budget = TrainBudget(seed=5)
    latents = recipes.latent_stage(codec, corpus, TemplateBank(CFG), budget)
    rng = np.random.default_rng(budget.seed + 2)
    means = []
    for utt, item in zip(corpus, latents.items):
        s_mu = codec.encode(utt["frames"], utt["positions"])
        s = reparameterize(s_mu, codec.config.k_sigma, seed=int(rng.integers(1 << 31)), sigma0=codec.config.sigma0)
        np.testing.assert_allclose(item.latents, s.data, rtol=0, atol=1e-12 * np.abs(s.data).max())
        means.append(s_mu.data)
    np.testing.assert_allclose(latents.speaker_rows, np.concatenate(means), rtol=0, atol=1e-12)
