"""Backbone: fusion semantics, causality, K-shift bookkeeping, loss
composition, segment dropout, and speech-free guidance identities."""

import numpy as np
import pytest

from tada import numerics as nx
from tada.backbone import (
    BackboneConfig,
    BackboneModel,
    FusedStep,
    SequenceBatchItem,
    build_sequence,
    sample_segment_modes,
    sfg_logits,
    train_step,
)
from tada.errors import ValidationError
from tada.numerics import finite_difference_check_params

TINY = BackboneConfig(
    vocab_size=6, d_model=16, n_heads=2, n_layers=2, d_ff=32, d_cond=8,
    d_latent=4, bits=3, k_shift=2, max_context=64,
)


def tiny_model(seed=0):
    cfg = BackboneConfig(**{k: getattr(TINY, k) for k in TINY.__dataclass_fields__ if k != "flow"})
    cfg.flow.d_time = 8
    cfg.flow.width = 16
    cfg.flow.n_hidden = 2
    cfg.__post_init__()
    return BackboneModel(cfg, np.random.default_rng(seed))


def random_item(rng, L=4):
    return SequenceBatchItem(
        tokens=rng.integers(0, TINY.vocab_size, size=L),
        latents=rng.standard_normal((L, TINY.d_latent)),
        f_before=rng.integers(0, 4, size=L),
        f_after=rng.integers(0, 4, size=L),
    )


class TestFuse:
    def test_text_only_has_zero_acoustic_term(self):
        model = tiny_model()
        step_no_ac = FusedStep(token_id=3, acoustic=None, mode="text-only")
        fused = model.fuse(step_no_ac).data
        manual = (
            model.params["text_emb"].data[3] + model.params["mode_emb"].data[0]
        )
        np.testing.assert_allclose(fused, manual, atol=1e-12)

    def test_identical_steps_identical_vectors(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        ac = rng.standard_normal(TINY.d_latent + 2 * TINY.bits)
        s = FusedStep(token_id=2, acoustic=ac, mode="text-speech")
        np.testing.assert_array_equal(model.fuse(s).data, model.fuse(s).data)

    def test_duration_bits_matter_only_in_speech_mode(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        ac1 = rng.standard_normal(TINY.d_latent + 2 * TINY.bits)
        ac2 = ac1.copy()
        ac2[TINY.d_latent] *= -1.0  # flip one f_before analog bit
        speech1 = model.fuse(FusedStep(1, ac1, "text-speech")).data
        speech2 = model.fuse(FusedStep(1, ac2, "text-speech")).data
        assert not np.array_equal(speech1, speech2)
        text1 = model.fuse(FusedStep(1, ac1, "text-only")).data
        text2 = model.fuse(FusedStep(1, ac2, "text-only")).data
        np.testing.assert_array_equal(text1, text2)

    def test_placeholder_used_when_slot_missing_in_speech_mode(self):
        model = tiny_model()
        fused = model.fuse(FusedStep(1, None, "text-speech")).data
        manual = (
            model.params["text_emb"].data[1]
            + model.params["bos_ac"].data[0]
            + model.params["mode_emb"].data[1]
        )
        np.testing.assert_allclose(fused, manual, atol=1e-12)

    def test_bad_inputs(self):
        model = tiny_model()
        with pytest.raises(ValidationError):
            model.fuse(FusedStep(99, None, "text-only"))
        with pytest.raises(ValidationError):
            model.fuse(FusedStep(1, None, "both"))


class TestForward:
    def test_causality_prefix_unchanged(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        steps = [
            FusedStep(int(rng.integers(TINY.vocab_size)),
                      rng.standard_normal(TINY.d_latent + 2 * TINY.bits), "text-speech")
            for _ in range(6)
        ]
        full = model.forward(steps)
        short = model.forward(steps[:4])
        for j in range(4):
            np.testing.assert_allclose(short[j].text_logits, full[j].text_logits, atol=1e-6)
            np.testing.assert_allclose(short[j].cond, full[j].cond, atol=1e-6)

    def test_identical_contexts_identical_outputs(self):
        model = tiny_model()
        steps = [FusedStep(1, None, "text-speech"), FusedStep(2, None, "text-speech")]
        a = model.forward(steps)
        b = model.forward(steps)
        np.testing.assert_array_equal(a[-1].text_logits, b[-1].text_logits)

    def test_incremental_matches_full(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        steps = [
            FusedStep(int(rng.integers(TINY.vocab_size)),
                      rng.standard_normal(TINY.d_latent + 2 * TINY.bits), "text-speech")
            for _ in range(5)
        ]
        full = model.forward(steps)
        cache = model.new_cache()
        for j, s in enumerate(steps):
            out = model.step([s], cache)[0]
            np.testing.assert_allclose(out.text_logits, full[j].text_logits, atol=1e-9)
            np.testing.assert_allclose(out.cond, full[j].cond, atol=1e-9)

    def test_context_overflow(self):
        model = tiny_model()
        steps = [FusedStep(0, None, "text-only")] * (TINY.max_context + 1)
        with pytest.raises(ValidationError):
            model.forward(steps)


def random_steps(rng, n, mode="text-speech"):
    return [
        FusedStep(int(rng.integers(TINY.vocab_size)),
                  rng.standard_normal(TINY.d_latent + 2 * TINY.bits) if rng.random() < 0.7 else None, mode)
        for _ in range(n)
    ]


def assert_outputs_close(got, want, atol=1e-9):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a.text_logits, b.text_logits, rtol=0, atol=atol)
        np.testing.assert_allclose(a.cond, b.cond, rtol=0, atol=atol)


class TestStep:
    def test_chunk_matches_single_rows_and_forward(self):
        model = tiny_model()
        steps = random_steps(np.random.default_rng(30), 7)
        full = model.forward(steps)
        single_cache = model.new_cache()
        single = [model.step([s], single_cache)[0] for s in steps]
        chunk_cache = model.new_cache()
        chunk = model.step(steps[:5], chunk_cache) + model.step(steps[5:], chunk_cache)
        assert_outputs_close(single, full)
        assert_outputs_close(chunk, full)

    def test_streams_together_match_each_stream_alone(self):
        model = tiny_model()
        rng = np.random.default_rng(31)
        a = random_steps(rng, 6)
        b = random_steps(rng, 6, mode="text-only")
        alone = []
        for seq in (a, b):
            cache = model.new_cache()
            alone.append(model.step(seq[:4], cache) + [model.step([s], cache)[0] for s in seq[4:]])
        cache = model.new_cache()
        # Prefill interleaved, then one two-row call per step.
        pre = model.step([s for pair in zip(a[:4], b[:4]) for s in pair], cache, [0, 1] * 4)
        together = [pre[0::2], pre[1::2]]
        for sa, sb in zip(a[4:], b[4:]):
            out_a, out_b = model.step([sa, sb], cache, [0, 1])
            together[0].append(out_a)
            together[1].append(out_b)
        assert_outputs_close(together[0], alone[0])
        assert_outputs_close(together[1], alone[1])

    def test_other_stream_cannot_reach_outputs(self):
        model = tiny_model()
        rng = np.random.default_rng(32)
        a = random_steps(rng, 5)
        b = random_steps(rng, 5)
        b_perturbed = [
            FusedStep((s.token_id + 1) % TINY.vocab_size,
                      None if s.acoustic is None else s.acoustic * 1e3 + 7.0, s.mode)
            for s in b
        ]
        runs = []
        for other in (b, b_perturbed):
            cache = model.new_cache()
            out = model.step([*a[:3], *other[:3]], cache, [0, 0, 0, 1, 1, 1])[:3]
            out += [model.step([sa, sb], cache, [0, 1])[0] for sa, sb in zip(a[3:], other[3:])]
            runs.append(out)
        for x, y in zip(*runs):
            np.testing.assert_array_equal(x.text_logits, y.text_logits)
            np.testing.assert_array_equal(x.cond, y.cond)

    def test_context_limit_is_per_stream(self):
        model = tiny_model()
        n = TINY.max_context
        cache = model.new_cache()
        model.step([FusedStep(1, None, "text-only")] * n, cache)
        model.step([FusedStep(1, None, "text-only")], cache, [1])  # stream 1 is still empty
        with pytest.raises(ValidationError, match="exceeds maximum"):
            model.step([FusedStep(1, None, "text-only")], cache, [0])

    def test_bad_rows(self):
        model = tiny_model()
        ok = FusedStep(1, None, "text-only")
        for bad in (FusedStep(99, None, "text-only"), FusedStep(1, None, "both")):
            with pytest.raises(ValidationError):
                model.step([ok, bad], model.new_cache())
            with pytest.raises(ValidationError):
                model.forward([ok, bad])
        with pytest.raises(ValidationError):
            model.step([ok, ok], model.new_cache(), [0])


class TestKShift:
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_pairing_audit(self, L, K):
        cfg = BackboneConfig(
            vocab_size=6, d_model=16, n_heads=2, n_layers=1, d_ff=16, d_cond=8,
            d_latent=4, bits=3, k_shift=K,
        )
        rng = np.random.default_rng(L * 10 + K)
        item = SequenceBatchItem(
            tokens=np.arange(L) % cfg.vocab_size,
            latents=np.arange(L)[:, None] * np.ones((L, cfg.d_latent)),
            f_before=np.zeros(L, dtype=int),
            f_after=np.zeros(L, dtype=int),
        )
        ids, acoustic, has_ac, ce_targets, flow_idx, flow_targets = build_sequence(item, cfg)
        # Step carrying text token i sits at index i; its flow target must be
        # token i-K+1 and its acoustic input token i-K.
        for j, target in zip(flow_idx, flow_targets):
            m = j - K + 1
            assert 1 <= m <= L
            np.testing.assert_array_equal(target[: cfg.d_latent], item.latents[m - 1])
        covered = {j - K + 1 for j in flow_idx}
        assert covered == set(range(1, L + 1))
        for j in range(ids.size):
            a = j - K
            if 1 <= a <= L:
                assert has_ac[j]
                np.testing.assert_array_equal(acoustic[j][: cfg.d_latent], item.latents[a - 1])
            else:
                assert not has_ac[j]

    def test_context_length_is_text_scale_not_frame_scale(self):
        rng = np.random.default_rng(5)
        short = random_item(rng, L=4)
        long_durations = SequenceBatchItem(
            tokens=short.tokens,
            latents=short.latents,
            f_before=np.full(4, (1 << TINY.bits) - 1),  # maximal gaps
            f_after=np.full(4, (1 << TINY.bits) - 1),
        )
        n1 = build_sequence(short, TINY)[0].size
        n2 = build_sequence(long_durations, TINY)[0].size
        assert n1 == n2 == 1 + 4 + max(TINY.k_shift - 1, 1)


class TestTrainStep:
    def test_ce_kd_zero_leaves_pure_flow(self):
        model = tiny_model()
        model.config.lambda_ce = 0.0
        model.config.lambda_kd = 0.0
        rng = np.random.default_rng(6)
        report = train_step(model, [random_item(rng)], None, seed=7, apply_grads=False)
        assert float(report.total.data) == pytest.approx(
            model.config.lambda_flow * float(report.flow.data), rel=1e-12
        )

    def test_default_weights(self):
        cfg = BackboneConfig()
        assert cfg.lambda_ce == pytest.approx(0.05)
        assert cfg.lambda_kd == pytest.approx(0.05)

    def test_kd_zero_when_model_is_base_and_text_only(self):
        model = tiny_model()
        rng = np.random.default_rng(8)
        report = train_step(
            model, [random_item(rng)], base_lm=model, seed=9, dropout_rate=1.0,
            apply_grads=False,
        )
        assert float(report.kd.data) == pytest.approx(0.0, abs=1e-9)
        assert float(report.flow.data) == 0.0  # no speech steps remain

    def test_dropout_rate_zero_matches_all_speech_bitwise(self):
        model = tiny_model()
        rng = np.random.default_rng(10)
        item = random_item(rng)
        a = train_step(model, [item], None, seed=11, dropout_rate=0.0, apply_grads=False)
        b = train_step(model, [item], None, seed=11, dropout_rate=0.0, apply_grads=False)
        assert float(a.total.data) == float(b.total.data)
        modes = sample_segment_modes(10, 0.0, 8, np.random.default_rng(0))
        assert modes.all()

    def test_gradient_matches_finite_differences(self):
        model = tiny_model(seed=12)
        rng = np.random.default_rng(13)
        item = random_item(rng, L=3)

        def fn():
            return train_step(model, [item], None, seed=14, dropout_rate=0.0, apply_grads=False).total

        names = ["text_emb", "ac_proj/w", "tf/layer0/wq/w", "lm_head/w", "cond_head/w", "flow/fc0/w", "bos_ac"]
        params = [model.params[n] for n in names]
        # eps=1e-4: the attention-weight gradients are small enough that
        # 1e-5 central differences sit in round-off territory
        err = finite_difference_check_params(fn, params, sample=3, seed=1, eps=1e-4)
        assert err < 1e-3


class TestSegmentModes:
    def test_rate_one_all_text_only(self):
        modes = sample_segment_modes(32, 1.0, 8, np.random.default_rng(1))
        assert not modes.any()

    def test_segments_are_contiguous(self):
        rng = np.random.default_rng(2)
        modes = sample_segment_modes(64, 0.5, 4, rng)
        # flips count is far below per-step independence (64 steps / mean 4)
        flips = int(np.sum(modes[1:] != modes[:-1]))
        assert flips <= 32

    def test_mean_fraction_near_rate(self):
        rng = np.random.default_rng(3)
        fracs = [1.0 - sample_segment_modes(64, 0.3, 8, rng).mean() for _ in range(300)]
        assert np.mean(fracs) == pytest.approx(0.3, abs=0.05)


class TestSfg:
    def test_lambda_one_is_text_speech(self):
        rng = np.random.default_rng(4)
        zt, zs = rng.standard_normal(8), rng.standard_normal(8)
        np.testing.assert_array_equal(sfg_logits(zt, zs, 1.0), zs)

    def test_lambda_zero_is_text_only(self):
        rng = np.random.default_rng(5)
        zt, zs = rng.standard_normal(8), rng.standard_normal(8)
        np.testing.assert_array_equal(sfg_logits(zt, zs, 0.0), zt)

    def test_midpoint_arithmetic(self):
        out = sfg_logits(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 0.5)
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            sfg_logits(np.zeros(3), np.zeros(4), 0.5)

    def test_blend_matches_separate_passes(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        ids = rng.integers(0, TINY.vocab_size, size=5)
        ac = rng.standard_normal((5, TINY.d_latent + 2 * TINY.bits))
        speech_ctx = [FusedStep(int(i), a, "text-speech") for i, a in zip(ids, ac)]
        text_ctx = [FusedStep(int(i), None, "text-only") for i in ids]
        z_speech = model.forward(speech_ctx)[-1].text_logits
        z_text = model.forward(text_ctx)[-1].text_logits
        np.testing.assert_allclose(sfg_logits(z_text, z_speech, 0.0), z_text, atol=1e-6)
        np.testing.assert_allclose(sfg_logits(z_text, z_speech, 1.0), z_speech, atol=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    model = tiny_model(seed=20)
    rng = np.random.default_rng(21)
    steps = [FusedStep(1, rng.standard_normal(TINY.d_latent + 2 * TINY.bits), "text-speech")]
    before = model.forward(steps)[0].text_logits
    path = tmp_path / "bb.tada"
    model.save(path)
    restored = BackboneModel.load(path)
    assert restored.config.k_shift == TINY.k_shift
    after = restored.forward(steps)[0].text_logits
    np.testing.assert_allclose(before, after, atol=1e-5)
