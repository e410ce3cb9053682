"""Pipeline: rejection selection, prompt preparation, text-free branches,
generation determinism, and streaming synthesis equivalence."""

from types import SimpleNamespace

import numpy as np
import pytest

from tada import durbits, masks, nn, pipeline
from tada import numerics as nx

from tada.backbone import BackboneConfig, BackboneModel, SequenceBatchItem, build_sequence
from tada.codec import CodecConfig, CodecModel
from tada.flowhead import VectorFieldModel
from tada.durbits import durations_from_positions
from tada.errors import ValidationError
from tada.pipeline import (
    GenerationResult,
    GenParams,
    SpeakerHead,
    cosines,
    generate,
    load_lm_checkpoint,
    prepare_prompt,
    rejection_select,
    save_lm_checkpoint,
    stream_synthesize,
    train_speaker_head,
)

CODEC = CodecConfig(
    d_frame=6, d_latent=4, d_model=16, n_heads=2, d_ff=16, n_layers=2,
    samples_per_frame=4, vocab_size=5, spectral_windows=(4, 8),
)
BACKBONE = BackboneConfig(
    vocab_size=5, d_model=16, n_heads=2, n_layers=2, d_ff=32, d_cond=8,
    d_latent=4, bits=4, k_shift=2, max_context=128,
)


def tiny_models():
    """A small untrained (backbone, codec, speaker head) triple."""
    cfg = BackboneConfig(**{k: getattr(BACKBONE, k) for k in BACKBONE.__dataclass_fields__ if k != "flow"})
    cfg.flow.d_time = 8
    cfg.flow.width = 16
    cfg.flow.n_hidden = 2
    cfg.__post_init__()
    lm = BackboneModel(cfg, np.random.default_rng(0))
    codec = CodecModel(CODEC, np.random.default_rng(1))
    head = SpeakerHead(d_latent=4, dims=(8, 8, 4), rng=np.random.default_rng(2))
    return lm, codec, head


@pytest.fixture
def models():
    return tiny_models()


def row(token_id, slot, speech):
    """One fused row ``(ids, acoustic, has_ac, speech)``; ``slot`` is None for no slot."""
    acoustic = np.zeros((1, BACKBONE.d_acoustic))
    if slot is not None:
        acoustic[0] = slot
    return np.array([token_id]), acoustic, np.array([slot is not None]), np.array([speech])


def make_prompt(codec, head, rng, L=3):
    T = 4 * L
    positions = np.arange(1, L + 1) * 4 - 1
    frames = rng.standard_normal((T, CODEC.d_frame))
    tokens = rng.integers(0, 5, size=L)
    return prepare_prompt(frames, tokens, None, codec, head, positions=positions)


class TestRejectionSelect:
    def test_argmax(self):
        ref = np.array([1.0, 0.0])
        cands = np.array([[0.9, 0.44], [0.5, 0.87]])
        idx, cos_val, below = rejection_select(cands, ref, theta=0.7)
        assert idx == 0 and not below
        assert cos_val == pytest.approx(cosines(cands[0], ref)[0])

    def test_tie_breaks_to_lower_index(self):
        ref = np.array([1.0, 0.0])
        cands = np.array([[2.0, 0.0], [4.0, 0.0]])  # equal cosines
        idx, _, _ = rejection_select(cands, ref, theta=0.0)
        assert idx == 0

    def test_below_threshold_flagged(self):
        ref = np.array([1.0, 0.0])
        cands = np.array([[0.0, 1.0]])
        idx, cos_val, below = rejection_select(cands, ref, theta=0.7)
        assert idx == 0 and below

    def test_never_returns_below_pool_max(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal(6)
        for _ in range(50):
            cands = rng.standard_normal((5, 6))
            idx, cos_val, _ = rejection_select(cands, ref, theta=0.7)
            all_cos = cosines(cands, ref)
            assert cos_val == pytest.approx(max(all_cos))
            assert idx == int(np.argmax(all_cos))

    def test_bigger_pool_non_decreasing_expected_cosine(self):
        # Pools with injected wrong-speaker candidates: growing R must not
        # lower the expected chosen cosine.
        rng = np.random.default_rng(4)
        ref = np.ones(4) / 2.0
        wrong = -np.ones(4) / 2.0
        means = []
        for R in (1, 2, 4, 8):
            chosen = []
            for _ in range(300):
                good = rng.standard_normal((R, 4)) * 0.3 + ref
                pool = np.vstack([wrong + rng.standard_normal(4) * 0.05, good])[: R + 1]
                _, cos_val, _ = rejection_select(pool, ref, theta=0.7)
                chosen.append(cos_val)
            means.append(np.mean(chosen))
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))


class TestSpeakerHead:
    def test_training_raises_cosine(self):
        rng = np.random.default_rng(5)
        targets_per_class = rng.standard_normal((3, 6))
        lat = rng.standard_normal((300, 4))
        cls = rng.integers(0, 3, size=300)
        lat[:, :3] += np.eye(3)[cls] * 2.0  # speaker signal in the latents
        tgt = targets_per_class[cls]
        head = train_speaker_head(lat, tgt, d_latent=4, dims=(8, 8, 6), steps=300, seed=0)
        emb = head.embed(lat)
        cos = [cosines(e, t)[0] for e, t in zip(emb, tgt)]
        assert np.mean(cos) > 0.8

    def test_roundtrip_through_lm_checkpoint(self, tmp_path, models):
        lm, codec, head = models
        path = tmp_path / "lm.tada"
        save_lm_checkpoint(path, lm, head)
        lm2, head2 = load_lm_checkpoint(path)
        assert lm2.config == lm.config and lm2.config.flow.sigma_min == 1e-5
        rng = np.random.default_rng(6)
        s = rng.standard_normal((3, 4))
        np.testing.assert_allclose(head.embed(s), head2.embed(s), atol=1e-5)
        ctx = row(1, None, False)
        with nx.no_grad():
            np.testing.assert_allclose(
                lm.forward_tensors(*ctx)[0].data[0], lm2.forward_tensors(*ctx)[0].data[0], atol=1e-5
            )


class TestPreparePrompt:
    def test_empty_transcript_rejected(self, models):
        _, codec, head = models
        with pytest.raises(ValidationError):
            prepare_prompt(np.zeros((4, CODEC.d_frame)), np.array([]), None, codec, head)

    def test_deterministic(self, models):
        _, codec, head = models
        rng = np.random.default_rng(7)
        frames = rng.standard_normal((8, CODEC.d_frame))
        tokens = np.array([1, 3])
        a = prepare_prompt(frames, tokens, None, codec, head, positions=np.array([3, 7]))
        b = prepare_prompt(frames, tokens, None, codec, head, positions=np.array([3, 7]))
        np.testing.assert_array_equal(a.latents, b.latents)
        np.testing.assert_array_equal(a.ref_embedding, b.ref_embedding)

    def test_reference_is_unit_norm(self, models):
        _, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(8))
        assert np.linalg.norm(prompt.ref_embedding) == pytest.approx(1.0)

    def test_filtered_alignment_rejected(self, models):
        _, codec, head = models
        frames = np.zeros((20, CODEC.d_frame))
        with pytest.raises(ValidationError, match="consecutive-run"):
            prepare_prompt(
                frames, np.array([0, 1, 2, 3]), None, codec, head,
                positions=np.array([5, 6, 7, 8]),
            )

    def test_latents_equal_the_taped_encode_bit_for_bit(self, tmp_path, models):
        """The prompt encodes on arrays, its transformer stack a cached pass
        on a fresh cache. On a float32 checkpoint its latents equal the
        taped ``CodecModel.encode`` under ``no_grad`` to the bit, for a
        prompt longer than a cache's first capacity."""
        _, codec, head = models
        codec.save(tmp_path / "codec.tada")
        codec = CodecModel.load(tmp_path / "codec.tada")
        rng = np.random.default_rng(10)
        L = 8
        positions = np.arange(1, L + 1) * 4 - 1
        frames = rng.standard_normal((4 * L, CODEC.d_frame))
        assert frames.shape[0] > nn.LayerCache.FIRST_CAPACITY
        prompt = prepare_prompt(frames, rng.integers(0, 5, size=L), None, codec, head, positions=positions)
        with nx.no_grad():
            taped = codec.encode(frames, positions).data
        assert prompt.latents.dtype == taped.dtype == np.float32
        assert prompt.latents.tobytes() == taped.tobytes()

    def test_durations_follow_chain(self, models):
        _, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(9))
        fb, fa = durations_from_positions(prompt.positions, prompt.T)
        np.testing.assert_array_equal(prompt.f_before, fb)
        np.testing.assert_array_equal(prompt.f_after, fa)


class TestTfgNegative:
    def test_differs_from_zero_mode_conditions(self, models):
        """The text-free twin of a context (text padded, acoustics kept)
        conditions the flow head differently from the zero negative."""
        lm, _, _ = models
        rng = np.random.default_rng(11)
        twin = row(lm.config.pad_id, rng.standard_normal(12), True)
        with nx.no_grad():
            c_tfg = lm.forward_tensors(*twin)[1].data[0]
        assert not np.allclose(c_tfg, np.zeros_like(c_tfg))


def test_gen_params_validation():
    with pytest.raises(ValidationError, match="n_fm must be >= 1"):
        GenParams(n_fm=0)
    with pytest.raises(ValidationError, match="cfg_scale must be >= 0"):
        GenParams(cfg_scale=-1.0)
    with pytest.raises(ValidationError, match="unknown neg_mode 'bogus'"):
        GenParams(neg_mode="bogus")
    with pytest.raises(ValidationError, match="retries must be >= 0"):
        GenParams(candidates=2, retries=-1)
    with pytest.raises(ValidationError, match="top_k must be >= 0"):
        GenParams(top_k=-1)
    with pytest.raises(ValidationError, match="max_tokens must be >= 0"):
        GenParams(mode="slm", max_tokens=-1)


def test_gen_params_refuse_sfg_outside_slm_mode():
    """TTS mode teacher-forces its text, so nothing reads the text-only
    branch's logits: a speech-free guidance scale there would only add a
    backbone row."""
    with pytest.raises(ValidationError, match="sfg_scale .* needs mode 'slm'"):
        GenParams(sfg_scale=0.5)
    assert GenParams(mode="slm", sfg_scale=0.5).sfg_scale == 0.5


class TestGenerate:
    def test_tts_requires_text(self, models):
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(12))
        with pytest.raises(ValidationError):
            generate(lm, codec, head, prompt, None, GenParams(mode="tts"))

    @pytest.mark.parametrize("bad", [-1, BACKBONE.vocab_size, 99])
    def test_tts_text_ids_in_vocabulary(self, models, bad):
        """A text id outside the vocabulary, BOS included, is refused."""
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(12))
        with pytest.raises(ValidationError, match=rf"text token ids \[{bad}\] outside \[0, 5\)"):
            generate(lm, codec, head, prompt, np.array([1, bad]), GenParams(n_fm=2))

    def test_deterministic_per_seed(self, models):
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(13))
        text = np.array([1, 2, 4])
        params = GenParams(n_fm=3, candidates=2, seed=5)
        a = generate(lm, codec, head, prompt, text, params)
        b = generate(lm, codec, head, prompt, text, params)
        np.testing.assert_array_equal(a.latents, b.latents)
        np.testing.assert_array_equal(a.f_before, b.f_before)
        c = generate(lm, codec, head, prompt, text, GenParams(n_fm=3, candidates=2, seed=6))
        assert not np.array_equal(a.latents, c.latents)

    def test_generates_one_slot_per_text_token(self, models):
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(14))
        text = np.array([0, 3, 2, 1])
        out = generate(lm, codec, head, prompt, text, GenParams(n_fm=2, seed=1))
        assert out.latents.shape == (4, BACKBONE.d_latent)
        assert out.f_before.shape == (4,)
        np.testing.assert_array_equal(out.text_tokens, text)
        assert 0.0 <= out.chain_rate <= 1.0

    def test_r1_no_rejection_loop(self, models):
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(15))
        out = generate(lm, codec, head, prompt, np.array([1]), GenParams(n_fm=2, candidates=1, seed=2))
        assert all(s.rounds == 1 and s.pool_size == 1 for s in out.step_stats)

    def test_slm_mode_samples_text(self, models):
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(16))
        params = GenParams(mode="slm", n_fm=2, max_tokens=5, temperature=1.0, seed=3)
        out = generate(lm, codec, head, prompt, None, params)
        assert out.text_tokens.size <= 5
        assert out.latents.shape[0] == out.text_tokens.size

    def test_slm_with_sfg_branch(self, models):
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(17))
        params = GenParams(mode="slm", n_fm=2, max_tokens=4, sfg_scale=0.5, seed=4)
        out = generate(lm, codec, head, prompt, None, params)
        assert out.latents.shape[0] == out.text_tokens.size

    def test_tfg_negative_mode_runs(self, models):
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(18))
        out = generate(
            lm, codec, head, prompt, np.array([2, 0]),
            GenParams(n_fm=2, neg_mode="tfg", cfg_scale=1.5, seed=5),
        )
        assert out.latents.shape == (2, BACKBONE.d_latent)


    def test_llm_time_counts_every_guidance_branch(self, models, monkeypatch):
        """Each row passed to a backbone step advances a fake clock by one
        second; a token's llm_time must count the positive, tfg and sfg rows
        of its loop iteration."""
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(22))
        clock = [0.0]
        real_step = lm.step

        def step(ids, *rest):
            clock[0] += float(len(ids))
            return real_step(ids, *rest)

        monkeypatch.setattr(lm, "step", step)
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        params = GenParams(mode="slm", n_fm=2, max_tokens=3, neg_mode="tfg", sfg_scale=0.5, seed=6)
        out = generate(lm, codec, head, prompt, None, params)
        assert out.step_stats
        assert [s.llm_time for s in out.step_stats] == [3.0] * len(out.step_stats)
        assert all(s.flow_time == 0.0 for s in out.step_stats)


    def test_prefill_time_counts_the_prefill_call(self, models, monkeypatch):
        """Each row passed to a backbone step advances a fake clock by one
        second; prefill_time must count the one prefill call, which steps
        the positive, tfg and sfg rows of every prompt token."""
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(22))
        clock = [0.0]
        real_step = lm.step

        def step(ids, *rest):
            clock[0] += float(len(ids))
            return real_step(ids, *rest)

        monkeypatch.setattr(lm, "step", step)
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        params = GenParams(mode="slm", n_fm=2, max_tokens=3, neg_mode="tfg", sfg_scale=0.5, seed=6)
        out = generate(lm, codec, head, prompt, None, params)
        assert out.prefill_time == 3.0 * prompt.tokens.size

    def test_every_backbone_call_is_timed_once(self, models, monkeypatch):
        """With one second per stepped row, the prefill (3 rows for each of 3
        prompt tokens), the StepStats (3 rows for each of 3 sampled slots)
        and the two loop steps that sample no slot (3 rows each) add up to
        the clock."""
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(22))
        clock = [0.0]
        real_step = lm.step

        def step(ids, *rest):
            clock[0] += float(len(ids))
            return real_step(ids, *rest)

        monkeypatch.setattr(lm, "step", step)
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        params = GenParams(mode="slm", n_fm=2, max_tokens=3, neg_mode="tfg", sfg_scale=0.5, seed=6)
        out = generate(lm, codec, head, prompt, None, params)
        assert prompt.tokens.size == out.text_tokens.size == len(out.step_stats) == 3
        stat_time = sum(s.llm_time for s in out.step_stats)
        assert (out.prefill_time, stat_time, out.idle_step_time) == (9.0, 9.0, 6.0)
        assert out.prefill_time + stat_time + out.idle_step_time == clock[0] == 24.0

    @pytest.mark.parametrize("k_shift", [1, 2, 3])
    def test_one_prefill_call_then_one_call_per_step(self, models, monkeypatch, k_shift):
        """One prefill call, then one call per step, on one cache of three
        streams: a step per sampled token plus K, whether PAD (K=1 here) or
        max_tokens closes the text. The rows of every call are the streams'
        rows, stream after stream: stream 1 (text-free negative) is PAD
        with stream 0's slot, and stream 2 (SFG) is stream 0's text with no
        slot."""
        lm, codec, head = models
        lm.config.k_shift = k_shift
        prompt = make_prompt(codec, head, np.random.default_rng(24))
        calls = []
        real_step = lm.step

        def step(ids, acoustic, has_ac, speech, cache):
            calls.append(((ids, acoustic, has_ac, speech), cache))
            return real_step(ids, acoustic, has_ac, speech, cache)

        monkeypatch.setattr(lm, "step", step)
        params = GenParams(mode="slm", n_fm=2, max_tokens=4, neg_mode="tfg", sfg_scale=0.5, seed=11)
        out = generate(lm, codec, head, prompt, None, params)
        assert 0 < out.text_tokens.size
        Lp = prompt.tokens.size
        assert len({id(cache) for _, cache in calls}) == 1 and calls[0][1].streams == 3
        assert [len(rows[0]) for rows, _ in calls] == [3 * Lp] + [3] * (out.text_tokens.size + k_shift)
        pad = lm.config.pad_id
        for (ids, acoustic, has_ac, speech), _ in calls:
            L = len(ids) // 3
            pos, neg, text_only = (slice(b * L, (b + 1) * L) for b in range(3))
            assert (ids[neg] == pad).all() and speech[neg].all()
            np.testing.assert_array_equal(acoustic[neg], acoustic[pos])
            np.testing.assert_array_equal(has_ac[neg], has_ac[pos])
            np.testing.assert_array_equal(ids[text_only], ids[pos])
            assert not has_ac[text_only].any() and not acoustic[text_only].any() and not speech[text_only].any()
            assert speech[pos].all()

    @pytest.mark.parametrize("k_shift", [1, 2, 3])
    def test_stream_zero_steps_the_training_layout(self, models, monkeypatch, k_shift):
        """The rows generation steps for stream 0 are build_sequence's rows
        for the prompt plus text tokens and the prompt plus chosen slots,
        up to the step that predicts the last slot."""
        lm, codec, head = models
        cfg = lm.config
        cfg.k_shift = k_shift
        prompt = make_prompt(codec, head, np.random.default_rng(26))
        text = np.array([4, 0, 2, 3])
        rng = np.random.default_rng(27)
        latents = rng.standard_normal((text.size, cfg.d_latent))
        f_before, f_after = rng.integers(0, 1 << cfg.bits, size=(2, text.size))
        chosen = iter([durbits.pack(s, int(fb), int(fa), cfg.bits) for s, fb, fa in zip(latents, f_before, f_after)])
        monkeypatch.setattr(
            pipeline, "_sample_slot", lambda *args: (next(chosen), pipeline.StepStat(args[-1], 1, 1.0, False, 1))
        )
        calls = []
        real_step = lm.step

        def step(ids, acoustic, has_ac, speech, cache):
            zero = slice(0, len(ids) // cache.streams)
            calls.append((ids[zero], acoustic[zero], has_ac[zero]))
            return real_step(ids, acoustic, has_ac, speech, cache)

        monkeypatch.setattr(lm, "step", step)
        out = generate(lm, codec, head, prompt, text, GenParams(n_fm=2, neg_mode="tfg", seed=12))
        np.testing.assert_array_equal(out.latents, latents)
        np.testing.assert_array_equal(out.f_before, f_before)
        item = SequenceBatchItem(
            tokens=np.concatenate([prompt.tokens, text]),
            latents=np.concatenate([prompt.latents, latents]),
            f_before=np.concatenate([prompt.f_before, f_before]),
            f_after=np.concatenate([prompt.f_after, f_after]),
        )
        n = item.tokens.size + k_shift
        for got, want in zip(zip(*calls), build_sequence(item, cfg)[:3]):
            got = np.concatenate(got)
            assert got.shape[0] == n
            np.testing.assert_array_equal(got, want[:n])

    @pytest.mark.parametrize("mode", ["tts", "slm"])
    def test_slots_pack_and_unpack_once_per_request(self, models, monkeypatch, mode):
        """The prompt's slots are packed in one call and the generated slots
        unpacked in one call, however many tokens the request has."""
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(28), L=4)
        calls = {"pack": 0, "unpack": 0}
        for name in calls:
            def spy(*args, real=getattr(durbits, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(durbits, name, spy)
        text = np.array([1, 0, 3, 2, 4]) if mode == "tts" else None
        out = generate(lm, codec, head, prompt, text, GenParams(mode=mode, n_fm=2, max_tokens=5, seed=14))
        assert out.latents.shape[0] == out.text_tokens.size > 1
        assert calls == {"pack": 1, "unpack": 1}

    def test_batched_branches_match_single_row_steps_per_branch(self, models, monkeypatch):
        """Generation with every branch in one call equals generation where
        each branch row is stepped alone in a cache of its own."""
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(24))
        params = GenParams(mode="slm", n_fm=3, max_tokens=4, neg_mode="tfg", sfg_scale=0.5, seed=11)
        batched = generate(lm, codec, head, prompt, None, params)
        assert batched.text_tokens.size == 4
        caches = {}
        real_step = lm.step

        def step(ids, acoustic, has_ac, speech, cache):
            L = len(ids) // cache.streams  # rows per stream, stream after stream
            outs = [
                real_step(
                    *(a[r : r + 1] for a in (ids, acoustic, has_ac, speech)),
                    caches.setdefault((id(cache), r // L), lm.new_cache()),
                )
                for r in range(len(ids))
            ]
            return tuple(np.concatenate(x) for x in zip(*outs))

        monkeypatch.setattr(lm, "step", step)
        alone = generate(lm, codec, head, prompt, None, params)
        assert len(caches) == 3
        np.testing.assert_array_equal(batched.text_tokens, alone.text_tokens)
        np.testing.assert_array_equal(batched.f_before, alone.f_before)
        np.testing.assert_array_equal(batched.f_after, alone.f_after)
        np.testing.assert_allclose(batched.latents, alone.latents, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("guidance", [{}, {"neg_mode": "tfg", "sfg_scale": 0.5}])
    def test_steps_after_the_prefill_attend_with_no_mask(self, models, monkeypatch, guidance):
        """Only the prefill passes attention masks; each later step's row
        per stream attends every cached entry of its stream, with no mask,
        with one stream or with every guidance branch on."""
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(24))
        masks_by_call = []
        real_step, real_attention = lm.step, nx.kernels.attention_heads

        def step(*args):
            masks_by_call.append([])
            return real_step(*args)

        def attention_heads(q, kt, v, mask=None):
            masks_by_call[-1].append(mask)
            return real_attention(q, kt, v, mask)

        monkeypatch.setattr(lm, "step", step)
        monkeypatch.setattr(nx.kernels, "attention_heads", attention_heads)
        params = GenParams(mode="slm", n_fm=2, max_tokens=4, seed=11, **guidance)
        out = generate(lm, codec, head, prompt, None, params)
        assert len(masks_by_call) == 1 + out.text_tokens.size + lm.config.k_shift
        assert all(mask is not None for mask in masks_by_call[0])
        assert [len(call) for call in masks_by_call] == [lm.config.n_layers] * len(masks_by_call)
        assert all(mask is None for call in masks_by_call[1:] for mask in call)

    def test_one_candidate_is_scored_in_one_call_after_the_loop(self, models, monkeypatch):
        """With one candidate, SpeakerHead.embed runs once per request, not
        once per token, and every token's chosen_cos is its latent's cosine
        with the prompt reference, below_threshold compares it with theta,
        and the warnings name the tokens below theta in order. With two
        candidates each round is embedded as it is drawn."""
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(32))
        calls = []
        real_embed = head.embed

        def embed(s):
            calls.append(np.shape(s))
            return real_embed(s)

        monkeypatch.setattr(head, "embed", embed)
        text = np.array([1, 2, 3, 4, 0, 2])
        out = generate(lm, codec, head, prompt, text, GenParams(n_fm=2, seed=8))
        assert calls == [(text.size, BACKBONE.d_latent)]
        cos = [cosines(real_embed(s), prompt.ref_embedding)[0] for s in out.latents]
        np.testing.assert_allclose([s.chosen_cos for s in out.step_stats], cos, rtol=0, atol=1e-9)
        theta = float(np.median(cos))
        calls.clear()
        out = generate(lm, codec, head, prompt, text, GenParams(n_fm=2, seed=8, theta=theta))
        below = [s.chosen_cos < theta for s in out.step_stats]
        assert len(calls) == 1 and 0 < sum(below) < text.size
        assert [s.below_threshold for s in out.step_stats] == below
        assert out.warnings == [
            f"token {s.token_index}: best cosine {s.chosen_cos:.3f} below threshold" for s in out.step_stats if s.below_threshold
        ]
        calls.clear()
        out = generate(lm, codec, head, prompt, text, GenParams(n_fm=2, seed=8, candidates=2))
        assert calls == [(2, BACKBONE.d_latent)] * sum(s.rounds for s in out.step_stats)

    def test_one_candidate_scoring_time_is_shared_by_its_tokens(self, models, monkeypatch):
        """The one scoring call after the loop is timed, and each token's
        flow_time takes an equal share of it: a fake clock that advances
        only while embedding, one second per latent, gives each token one
        second."""
        lm, codec, head = models
        prompt = make_prompt(codec, head, np.random.default_rng(33))
        clock = [0.0]
        real_embed = head.embed

        def embed(s):
            clock[0] += float(len(s))
            return real_embed(s)

        monkeypatch.setattr(head, "embed", embed)
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        out = generate(lm, codec, head, prompt, np.array([1, 2, 3, 4]), GenParams(n_fm=2, seed=9))
        assert [s.flow_time for s in out.step_stats] == [1.0] * 4

    def test_prompt_beyond_context_limit_warns(self, models):
        lm, codec, head = models
        lm.config.max_context = 3
        prompt = make_prompt(codec, head, np.random.default_rng(25), L=4)
        out = generate(lm, codec, head, prompt, np.array([1, 2]), GenParams(n_fm=2, neg_mode="tfg", seed=9))
        assert out.warnings == ["context limit reached"]
        assert out.latents.shape == (0, BACKBONE.d_latent)


class TestStreamSynthesize:
    def _result(self, rng, L):
        f_before = rng.integers(0, 4, size=L)
        f_after = np.empty(L, dtype=np.int64)
        f_after[:-1] = f_before[1:]
        f_after[-1] = rng.integers(0, 4)
        return GenerationResult(
            text_tokens=rng.integers(0, 5, size=L),
            latents=rng.standard_normal((L, CODEC.d_latent)),
            f_before=f_before,
            f_after=f_after,
            chain_rate=1.0,
        )

    def test_single_token_single_emission(self, models):
        _, codec, _ = models
        rng = np.random.default_rng(19)
        audio = stream_synthesize(self._result(rng, 1), codec)
        assert len(audio.segments) <= 2  # token segment plus optional tail

    def test_eviction_equivalence_five_tokens(self, models):
        _, codec, _ = models
        rng = np.random.default_rng(20)
        result = self._result(rng, 5)
        audio = stream_synthesize(result, codec)
        p, T = result.positions
        full = codec.decode(result.latents, p, T, mode="streaming")
        np.testing.assert_allclose(audio.frames, full.features.data, atol=1e-9)

    def test_equals_decode_streaming_full_and_segment_bounds(self, models):
        """The streamed frames and signal are decode_streaming_full's, and
        the segments are the bounds the streaming decoder walks."""
        _, codec, _ = models
        result = self._result(np.random.default_rng(22), 6)
        audio = stream_synthesize(result, codec)
        p, T = result.positions
        frames, signal = codec.decode_streaming_full(result.latents, p, T)
        assert np.array_equal(audio.frames, frames) and np.array_equal(audio.signal, signal)
        assert np.array_equal(audio.segments, masks.segment_bounds(p, T))
        assert np.array_equal(audio.positions, p) and audio.T == T

    def test_peak_cache_bound(self, models, monkeypatch):
        """In every decoder layer, segment i's attention block holds at most
        p_i - p_{i-2} keys (p_0 = p_{-1} = 0), and the trailing segment's at
        most T - p_{L-1}."""
        _, codec, _ = models
        rng = np.random.default_rng(21)
        result = self._result(rng, 6)
        keys = []
        real_attention = nx.kernels.attention_heads

        def attention_heads(q, kt, v, mask):
            assert all(isinstance(m, tuple) for m in mask)  # all-true blocks, passed as shapes
            keys.append([m[1] for m in mask])
            return real_attention(q, kt, v, mask)

        monkeypatch.setattr(nx.kernels, "attention_heads", attention_heads)
        audio = stream_synthesize(result, codec)
        p, T = result.positions
        ext = np.concatenate([[0, 0], p])  # ext[i + 1] = p_i
        bounds = [int(ext[i + 1] - ext[i - 1]) for i in range(1, p.size + 1)]
        if T > p[-1]:
            bounds.append(int(T - ext[p.size]))
        assert len(keys) == CODEC.n_layers
        for sizes in keys:
            assert len(sizes) == len(audio.segments) == len(bounds)
            assert all(size <= bound for size, bound in zip(sizes, bounds)), (sizes, bounds)

    def test_chain_mismatch_uses_later_sample(self, models):
        _, codec, _ = models
        result = GenerationResult(
            text_tokens=np.array([1, 2]),
            latents=np.zeros((2, CODEC.d_latent)),
            f_before=np.array([2, 4]),
            f_after=np.array([9, 1]),  # disagrees with f_before[1]
            chain_rate=0.0,
        )
        audio = stream_synthesize(result, codec)
        np.testing.assert_array_equal(audio.positions, [3, 8])
        assert audio.T == 9


def test_checkpoint_models_compute_in_float32(tmp_path, models, monkeypatch):
    """Models loaded from their float32 checkpoints compute a request in
    float32 at the float64 default: every array kernel, every KV-cache
    layer, every flow-field output, every backbone output and every decoded
    segment, and every taped engine op of the taped encode of the prompt's
    frames, whose latents the prompt's array encode equals to the bit. A
    full streaming decode equals the frames stream_synthesize emitted."""
    lm, codec, head = models
    codec.save(tmp_path / "codec.tada")
    save_lm_checkpoint(tmp_path / "lm.tada", lm, head)
    codec = CodecModel.load(tmp_path / "codec.tada")
    lm, head = load_lm_checkpoint(tmp_path / "lm.tada")
    seen: dict[str, set] = {}

    def spy(owner, name, dtypes_of):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.setdefault(name, set()).update(dtypes_of(out, args))
            return out

        monkeypatch.setattr(owner, name, wrapper)

    spy(nx.engine, "_make", lambda out, args: {args[1].dtype})
    for kernel in ("linear", "gelu", "layer_norm", "split_heads", "attention_heads", "scatter_rows"):
        spy(nx.kernels, kernel, lambda out, args: {(out[0] if isinstance(out, tuple) else out).dtype})
    spy(nn.LayerCache, "extend", lambda out, args: {args[0].keys.dtype, args[0].values.dtype})
    spy(VectorFieldModel, "field_np", lambda out, args: {out.dtype})
    spy(BackboneModel, "step", lambda out, args: {a.dtype for a in out})
    real_segments = CodecModel.decode_streaming_segments

    def segments(self, *args):
        for lo, hi, f, g in real_segments(self, *args):
            seen.setdefault("segments", set()).update({f.dtype, g.dtype})
            yield lo, hi, f, g

    monkeypatch.setattr(CodecModel, "decode_streaming_segments", segments)
    prompt = make_prompt(codec, head, np.random.default_rng(30))
    params = GenParams(n_fm=2, neg_mode="tfg", candidates=2, seed=3)
    result = generate(lm, codec, head, prompt, np.array([1, 2, 3]), params)
    audio = stream_synthesize(result, codec)
    frames = np.random.default_rng(30).standard_normal((prompt.T, CODEC.d_frame))  # make_prompt's draw
    np.testing.assert_array_equal(codec.encode(frames, prompt.positions).data, prompt.latents)
    float32 = {np.dtype(np.float32)}
    assert seen.keys() == {
        "_make", "linear", "gelu", "layer_norm", "split_heads", "attention_heads", "scatter_rows",
        "extend", "field_np", "step", "segments",
    }
    assert {name: dtypes for name, dtypes in seen.items() if dtypes != float32} == {}
    assert prompt.latents.dtype == audio.frames.dtype == np.float32
    full, _ = codec.decode_streaming_full(result.latents, audio.positions, audio.T)
    np.testing.assert_array_equal(full, audio.frames)


def test_a_request_builds_no_tensor(models, monkeypatch):
    """prepare_prompt, generate and stream_synthesize run on arrays through
    the kernels: with every guidance branch on, they build no Tensor."""
    lm, codec, head = models
    built = []
    real_init = nx.Tensor.__init__

    def init(self, data, *args, **kwargs):
        built.append(np.shape(data))
        real_init(self, data, *args, **kwargs)

    monkeypatch.setattr(nx.Tensor, "__init__", init)
    prompt = make_prompt(codec, head, np.random.default_rng(31))
    for params, text in (
        (GenParams(n_fm=2, neg_mode="tfg", candidates=2, seed=4), np.array([1, 2, 3])),
        (GenParams(n_fm=2, neg_mode="tfg", mode="slm", sfg_scale=0.5, max_tokens=3, seed=5), None),
    ):
        result = generate(lm, codec, head, prompt, text, params)
        stream_synthesize(result, codec)
    assert built == []
