"""Codec: exact encoder locality, reparameterization statistics, scatter,
streaming equivalence, and the composite loss with its clamp."""

import numpy as np
import pytest

from tada import numerics as nx
from tada.codec import (
    CodecConfig,
    CodecModel,
    codec_batch_loss,
    codec_loss,
    latent_dropout,
    multiscale_spectral_l1,
    pack_utterances,
    reparameterize,
    scatter_latents,
    train_codec,
)
from tada.errors import ValidationError
from tada.numerics import finite_difference_check
import reference_ops

TINY = CodecConfig(
    d_frame=6, d_latent=4, d_model=16, n_heads=2, d_ff=16, n_layers=2,
    samples_per_frame=4, vocab_size=5, spectral_windows=(4, 8),
)


@pytest.fixture
def model():
    # d_frame must stay in sync with TINY across tests
    return CodecModel(TINY, np.random.default_rng(0))


class TestEncode:
    def test_locality_outside_window_is_exact(self, model):
        rng = np.random.default_rng(1)
        p, T = np.array([2, 5]), 7
        frames = rng.standard_normal((T, TINY.d_frame))
        hidden = model.frontend(frames)
        base = model.encode_from_hidden(nx.tensor(hidden.copy()), p).data
        # token 1 window = [1, 4]; rows 5..7 are outside
        h2 = hidden.copy()
        h2[4:] += rng.standard_normal((3, TINY.d_model)) * 100
        pert = model.encode_from_hidden(nx.tensor(h2), p).data
        np.testing.assert_array_equal(base[0], pert[0])

    def test_single_frame_single_token(self, model):
        frames = np.random.default_rng(2).standard_normal((1, TINY.d_frame))
        s = model.encode(frames, np.array([1]))
        assert s.shape == (1, TINY.d_latent)

    def test_batch_independence_under_permutation(self, model):
        rng = np.random.default_rng(3)
        utts = [
            (rng.standard_normal((5, TINY.d_frame)), np.array([2, 4])),
            (rng.standard_normal((4, TINY.d_frame)), np.array([3])),
        ]
        fwd = [model.encode(f, p).data for f, p in utts]
        rev = [model.encode(f, p).data for f, p in reversed(utts)]
        np.testing.assert_array_equal(fwd[0], rev[1])
        np.testing.assert_array_equal(fwd[1], rev[0])


class TestReparameterize:
    def test_zero_noise_scale_returns_means(self):
        mu = np.random.default_rng(4).standard_normal((3, 4))
        out = reparameterize(mu, k_sigma=1.0, seed=0, sigma0=0.0)
        np.testing.assert_array_equal(out.data, mu)

    def test_k_sigma_below_one_rejected(self):
        """The config holds the range; reparameterize only ever gets its value."""
        with pytest.raises(ValidationError, match="^CodecConfig: k_sigma must be >= 1, got 0.5$"):
            CodecConfig(k_sigma=0.5)

    def test_deterministic_per_seed(self):
        mu = np.zeros((4, 4))
        a = reparameterize(mu, 1.0, seed=7).data
        b = reparameterize(mu, 1.0, seed=7).data
        c = reparameterize(mu, 1.0, seed=8).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_monte_carlo_std_of_compound_distribution(self):
        # std(sigma * eps) with sigma ~ |N(0, k*sigma0)|, eps ~ N(0,1) is
        # exactly k*sigma0 (second moments multiply); 1e5 draws, 2%.
        mu = np.zeros((250, 400))
        k_sigma, sigma0 = 1.5, 0.5
        out = reparameterize(mu, k_sigma, seed=9, sigma0=sigma0).data
        assert out.std() == pytest.approx(k_sigma * sigma0, rel=0.02)

    def test_gradient_passes_through_identity(self):
        def fn(x):
            return nx.sum_(nx.square(reparameterize(x, 1.0, seed=3)))

        err = finite_difference_check(fn, np.random.default_rng(5).standard_normal((2, 3)))
        assert err < 1e-3


class TestScatter:
    def test_definition(self):
        out = scatter_latents(nx.tensor([[1.0, 2.0]]), np.array([2]), 3)
        np.testing.assert_array_equal(out.data, [[0, 0], [1, 2], [0, 0]])

    def test_dense_when_full(self):
        s = np.random.default_rng(6).standard_normal((3, 2))
        out = scatter_latents(nx.tensor(s), np.array([1, 2, 3]), 3)
        np.testing.assert_array_equal(out.data, s)

    def test_norm_conserved(self):
        s = np.random.default_rng(7).standard_normal((2, 3))
        out = scatter_latents(nx.tensor(s), np.array([1, 4]), 5)
        assert np.linalg.norm(out.data) == pytest.approx(np.linalg.norm(s))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            scatter_latents(nx.tensor(np.zeros((1, 2))), np.array([4]), 3)


class TestDecode:
    def test_zero_latents_deterministic(self, model):
        p, T = np.array([2, 4]), 5
        s = np.zeros((2, TINY.d_latent))
        a = model.decode(s, p, T, mode="joint")
        b = model.decode(s, p, T, mode="joint")
        np.testing.assert_array_equal(a.features.data, b.features.data)

    def test_unknown_mode(self, model):
        with pytest.raises(ValidationError):
            model.decode(np.zeros((1, TINY.d_latent)), np.array([1]), 2, mode="global")

    def test_streaming_segments_match_full_pass(self, model):
        rng = np.random.default_rng(8)
        for _ in range(5):
            L = int(rng.integers(1, 6))
            p = np.sort(rng.choice(np.arange(1, 14), size=L, replace=False))
            T = int(p[-1] + rng.integers(0, 3))
            s = rng.standard_normal((L, TINY.d_latent))
            full = model.decode(s, p, T, mode="streaming")
            feats, sig = model.decode_streaming_full(s, p, T)
            np.testing.assert_allclose(feats, full.features.data, atol=1e-9)
            np.testing.assert_allclose(sig, full.signal.data, atol=1e-9)

    def test_streaming_equivalence_float32(self, model):
        rng = np.random.default_rng(9)
        with nx.precision("float32"):
            m32 = CodecModel(TINY, np.random.default_rng(0))
            p = np.array([3, 7, 10])
            s = rng.standard_normal((3, TINY.d_latent)).astype(np.float32)
            full = m32.decode(s, p, 12, mode="streaming")
            feats, _ = m32.decode_streaming_full(s, p, 12)
            np.testing.assert_allclose(feats, full.features.data, atol=1e-6)

    # Where a segment has one frame, the walk ran that frame's products as a
    # one-row BLAS gemv and the pass runs them inside a many-row gemm, which
    # rounds differently; the gap stays at float32 round-off.
    ONE_FRAME_RTOL = 16 * np.finfo(np.float32).eps

    @staticmethod
    def scaled_model(dtype):
        """A model whose weights are drawn at std 0.5, so attention is peaked."""
        with nx.precision(dtype):
            m = CodecModel(TINY, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for p in m.params.values():
            p.data = (0.5 * rng.standard_normal(p.shape)).astype(p.data.dtype)
        return m

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "p, T",
        [([2, 4, 7, 9], 9), ([3, 5, 9], 12), ([4], 6), ([2, 3, 6, 8], 10), ([1, 4, 6], 7), ([3, 6], 7)],
        ids=["no_tail", "tail", "one_token", "one_frame", "one_frame_first", "one_frame_tail"],
    )
    def test_streaming_pass_equals_segment_walk(self, dtype, p, T):
        """The one-pass streaming decode yields the walk's segments, and
        their features and signal equal the walk's to the bit when every
        segment has at least two frames, and to float32 round-off when one
        has a single frame."""
        model = self.scaled_model(dtype)
        p = np.array(p)
        s = np.random.default_rng(2).standard_normal((p.size, TINY.d_latent))
        got = list(model.decode_streaming_segments(s, p, T))
        want = list(reference_ops.stream_decode_walk(model, s, p, T))
        assert [(lo, hi) for lo, hi, *_ in got] == [(lo, hi) for lo, hi, *_ in want]
        one_frame = min(hi - lo for lo, hi, *_ in want) == 1
        for *_, f, g in got:
            assert f.dtype == g.dtype == np.dtype(dtype)
        for k in (2, 3):
            a, b = np.concatenate([seg[k] for seg in got]), np.concatenate([seg[k] for seg in want])
            if one_frame:
                assert np.abs(a - b).max() <= self.ONE_FRAME_RTOL * np.abs(b).max()
            else:
                assert np.array_equal(a, b)

    def test_streaming_frames_before_a_changed_latent_stay_bit_identical(self):
        """Changing the latents of tokens k+1..L leaves every frame up to
        p_k bit-identical, and changes the frames of segment k+1: no
        segment attends past its own token's frame."""
        model = self.scaled_model("float64")
        rng = np.random.default_rng(3)
        p, T = np.array([2, 3, 6, 8, 11, 12]), 14
        s = rng.standard_normal((p.size, TINY.d_latent))
        feats, sig = model.decode_streaming_full(s, p, T)
        for k in range(p.size):
            changed = s.copy()
            changed[k:] = rng.standard_normal(changed[k:].shape)
            f2, g2 = model.decode_streaming_full(changed, p, T)
            before = 0 if k == 0 else p[k - 1]
            assert np.array_equal(f2[:before], feats[:before]) and np.array_equal(g2[:before], sig[:before])
            assert not np.array_equal(g2[before : p[k]], sig[before : p[k]])

    @pytest.mark.parametrize("p", [[12], [3, 7, 10], [1, 2, 3, 5, 6, 8, 9, 11]])
    def test_streaming_decode_calls_do_not_grow_with_segments(self, model, monkeypatch, p):
        """A streaming decode makes 4 ``kernels.linear`` calls per layer plus
        the latent projection and the two heads, and one attention call per
        layer, whatever the segment count."""
        calls = {"linear": 0, "attention_heads": 0}
        for name in calls:
            real = getattr(nx.kernels, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(nx.kernels, name, spy)
        model.decode_streaming_full(np.zeros((len(p), TINY.d_latent)), np.array(p), 13)
        assert calls == {"linear": 4 * TINY.n_layers + 3, "attention_heads": TINY.n_layers}


class TestCodecLoss:
    def _setup(self, model, rng, T=8, tokens=(1, 3)):
        p = np.array([3, 6])
        tokens = np.array(tokens)
        s_mu = nx.tensor(np.zeros((2, TINY.d_latent)), requires_grad=True)
        dec = model.decode(s_mu, p, T, mode="joint")
        return dec, p, tokens, s_mu

    def test_perfect_reconstruction_and_clamped_floor(self, model):
        rng = np.random.default_rng(10)
        dec, p, tokens, s_mu = self._setup(model, rng)
        report = codec_loss(dec, dec.signal.data.copy(), tokens, p, s_mu, TINY)
        assert float(report.mel.data) == pytest.approx(0.0, abs=1e-12)
        assert float(report.sem.data) > 0.0
        assert float(report.kl.data) == pytest.approx(0.5)

    def test_total_is_exact_weighted_sum(self, model):
        rng = np.random.default_rng(11)
        dec, p, tokens, s_mu = self._setup(model, rng)
        target = rng.standard_normal(dec.signal.shape)
        r1 = codec_loss(dec, target, tokens, p, s_mu, TINY)
        expected = (
            TINY.lambda_mel * float(r1.mel.data)
            + TINY.lambda_sem * float(r1.sem.data)
            + TINY.lambda_kl * float(r1.kl.data)
        )
        assert float(r1.total.data) == pytest.approx(expected, rel=1e-12)
        cfg2 = CodecConfig(**{**TINY.__dict__, "lambda_mel": 2 * TINY.lambda_mel})
        r2 = codec_loss(dec, target, tokens, p, s_mu, cfg2)
        delta = float(r2.total.data) - float(r1.total.data)
        assert delta == pytest.approx(TINY.lambda_mel * float(r1.mel.data), rel=1e-9)

    def test_kl_gradient_zero_below_floor(self, model):
        small = nx.tensor(np.full((2, TINY.d_latent), 0.1), requires_grad=True)
        per_token = nx.scale(nx.sum_(nx.square(small), axis=1), 1.0 / TINY.d_latent)
        kl = nx.mean_(nx.maximum_const(per_token, TINY.kl_floor))
        kl.backward()
        # |mu|^2/d = 0.04 < 0.5 everywhere: clamp floor wins, no gradient
        assert small.grad is None or np.all(small.grad == 0.0)
        big = nx.tensor(np.full((2, TINY.d_latent), 1.0), requires_grad=True)
        per_token = nx.scale(nx.sum_(nx.square(big), axis=1), 1.0 / TINY.d_latent)
        nx.mean_(nx.maximum_const(per_token, TINY.kl_floor)).backward()
        assert np.all(big.grad != 0.0)

    def test_kl_clamp_subgradient_vs_finite_differences(self):
        def fn(x):
            per_token = nx.scale(nx.sum_(nx.square(x), axis=1), 1.0 / 4)
            return nx.mean_(nx.maximum_const(per_token, 0.5))

        rng = np.random.default_rng(12)
        # points well away from the clamp boundary on both sides
        assert finite_difference_check(fn, rng.standard_normal((3, 4)) * 0.1) < 1e-3
        assert finite_difference_check(fn, rng.standard_normal((3, 4)) * 3.0) < 1e-3

    def test_full_loss_gradient_two_token_batch(self, model):
        rng = np.random.default_rng(13)
        p = np.array([2, 4])
        T = 5
        tokens = np.array([1, 2])
        target = rng.standard_normal((T, TINY.samples_per_frame))
        frames = rng.standard_normal((T, TINY.d_frame))

        def fn(x):
            s_mu = model.encode_from_hidden(x, p)
            s = reparameterize(s_mu, 1.0, seed=42, sigma0=TINY.sigma0)
            dec = model.decode(s, p, T, mode="joint")
            return codec_loss(dec, target, tokens, p, s_mu, TINY).total

        hidden = model.frontend(frames)
        assert finite_difference_check(fn, hidden) < 1e-3


class TestLatentDropout:
    def test_rate_zero_identity(self):
        s = nx.tensor(np.random.default_rng(14).standard_normal((3, 4)))
        out = latent_dropout(s, 0.0, seed=0)
        np.testing.assert_array_equal(out.data, s.data)

    def test_rate_one_rejected(self):
        """The config holds the range; latent_dropout only ever gets its value."""
        with pytest.raises(ValidationError, match=r"^CodecConfig: latent_dropout must be in \[0, 1\), got 1.0$"):
            CodecConfig(latent_dropout=1.0)

    def test_monte_carlo_zero_fraction(self):
        s = nx.tensor(np.ones((250, 400)))
        out = latent_dropout(s, 0.5, seed=15).data
        assert np.mean(out == 0.0) == pytest.approx(0.5, abs=0.01)

    def test_expectation_preserved(self):
        s = nx.tensor(np.full((250, 400), 2.0))
        out = latent_dropout(s, 0.5, seed=16).data
        assert out.mean() == pytest.approx(2.0, rel=0.01)


class TestSpectral:
    def test_identical_signals_zero(self):
        sig = nx.tensor(np.random.default_rng(17).standard_normal(64))
        assert float(multiscale_spectral_l1(sig, nx.tensor(sig.data.copy()), (4, 8)).data) == 0.0

    def test_short_signal_skips_large_windows(self):
        sig = np.random.default_rng(18).standard_normal(6)
        out = multiscale_spectral_l1(nx.tensor(sig), nx.tensor(sig * 0.5), (4, 32))
        assert float(out.data) > 0.0  # only the 4-window contributes

    def test_all_windows_too_large(self):
        with pytest.raises(ValidationError):
            multiscale_spectral_l1(nx.tensor(np.zeros(3)), nx.tensor(np.zeros(3)), (8,))


def random_corpus(rng, shapes):
    """Utterances of the given (T, positions) with random frames, signal and tokens."""
    corpus = []
    for T, p in shapes:
        p = np.array(p)
        corpus.append({
            "frames": rng.standard_normal((T, TINY.d_frame)),
            "signal": rng.standard_normal((T, TINY.samples_per_frame)),
            "tokens": rng.integers(0, TINY.vocab_size, size=p.size),
            "positions": p,
        })
    return corpus


PACK_SHAPES = ((7, [2, 5]), (1, [1]), (9, [3, 4, 8]), (4, [4]))


def reference_batch_loss(model, batch, mode, seeds):
    """codec_batch_loss written as one encode, decode and codec_loss per utterance."""
    cfg = model.config
    totals = []
    for j, utt in enumerate(batch):
        p = utt["positions"]
        if mode == "streaming":
            with nx.no_grad():
                s_mu = model.encode(utt["frames"], p)
        else:
            s_mu = model.encode(utt["frames"], p)
        s = s_mu
        if seeds is not None:
            s = reparameterize(s_mu, cfg.k_sigma, seed=seeds[j][0], sigma0=cfg.sigma0)
            s = latent_dropout(s, cfg.latent_dropout, seed=seeds[j][1])
        dec = model.decode(s, p, utt["frames"].shape[0], mode=mode)
        totals.append(codec_loss(dec, utt["signal"], utt["tokens"], p, s_mu, cfg).total)
    return nx.scale(sum(totals[1:], totals[0]), 1.0 / len(totals))


class TestPacked:
    @pytest.mark.parametrize("noisy", [False, True], ids=["means", "sampled"])
    @pytest.mark.parametrize("mode", ["joint", "streaming"])
    def test_step_loss_matches_per_utterance_reference(self, model, mode, noisy):
        rng = np.random.default_rng(31)
        batch = random_corpus(rng, PACK_SHAPES)
        seeds = [(int(a), int(b)) for a, b in rng.integers(0, 1 << 31, size=(len(batch), 2))] if noisy else None
        runs = []
        for fn in (lambda: codec_batch_loss(model, batch, mode, seeds).total,
                   lambda: reference_batch_loss(model, batch, mode, seeds)):
            for p in model.params.values():
                p.grad = None
            loss = fn()
            loss.backward()
            runs.append((float(loss.data), {k: p.grad for k, p in model.params.items()}))
        (loss, grads), (ref_loss, ref_grads) = runs
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert {k for k, g in grads.items() if g is not None} == {k for k, g in ref_grads.items() if g is not None}
        for k, ref in ref_grads.items():
            if ref is not None:
                assert np.max(np.abs(grads[k] - ref)) <= 1e-12 * np.max(np.abs(ref)), k
        if mode == "streaming":
            assert all(g is None for k, g in grads.items() if k.startswith("enc/"))

    def test_encode_matches_per_utterance(self, model):
        rng = np.random.default_rng(32)
        batch = random_corpus(rng, PACK_SHAPES)
        frames, p, lengths = pack_utterances(batch)
        packed = model.encode(frames, p, lengths).data
        alone = np.concatenate([model.encode(u["frames"], u["positions"]).data for u in batch])
        assert np.max(np.abs(packed - alone)) <= 1e-12 * np.max(np.abs(alone))

    def test_other_utterances_cannot_reach_an_utterance(self, model):
        rng = np.random.default_rng(33)
        batch = random_corpus(rng, PACK_SHAPES)
        frames, p, lengths = pack_utterances(batch)
        own_rows = np.zeros(frames.shape[0], dtype=bool)
        own_rows[8:17] = True  # the third utterance
        own_tokens = np.isin(p, np.arange(9, 18))
        other = np.where(own_rows[:, None], frames, frames * 1e3 + 5.0)
        runs = []
        for f in (frames, other):
            s_mu = model.encode(f, p, lengths)
            runs.append((s_mu.data, model.decode(s_mu, p, f.shape[0], "streaming", lengths).signal.data))
        (s_a, sig_a), (s_b, sig_b) = runs
        np.testing.assert_array_equal(s_a[own_tokens], s_b[own_tokens])
        np.testing.assert_array_equal(sig_a[own_rows], sig_b[own_rows])
        assert not np.array_equal(s_a[~own_tokens], s_b[~own_tokens])

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(34)
        with nx.precision("float32"):
            m32 = CodecModel(TINY, np.random.default_rng(0))
        batch = random_corpus(rng, PACK_SHAPES)
        report = codec_batch_loss(m32, batch, "joint", [(1, 2)] * len(batch))
        report.total.backward()
        assert report.total.dtype == np.float32
        assert {p.grad.dtype for p in m32.params.values() if p.grad is not None} == {np.dtype(np.float32)}

    def test_spectral_loss_is_the_mean_of_each_sequence(self):
        """A sequence shorter than a window is scored on the windows it holds."""
        rng = np.random.default_rng(35)
        lengths = [20, 6, 33]
        pred, target = rng.standard_normal(sum(lengths)), rng.standard_normal(sum(lengths))
        packed = float(multiscale_spectral_l1(nx.tensor(pred), nx.tensor(target), (4, 8), lengths).data)
        ends = np.cumsum(lengths)
        alone = [
            float(multiscale_spectral_l1(nx.tensor(pred[e - n : e]), nx.tensor(target[e - n : e]), (4, 8)).data)
            for n, e in zip(lengths, ends)
        ]
        assert packed == pytest.approx(np.mean(alone), rel=1e-12)
        with pytest.raises(ValidationError):
            multiscale_spectral_l1(nx.tensor(pred), nx.tensor(target), (8,), [20, 3, 36])


def test_streaming_phase_leaves_frozen_encoder_without_gradients():
    rng = np.random.default_rng(30)
    corpus = []
    for T, p in ((7, [2, 5]), (9, [3, 4, 8])):
        p = np.array(p)
        corpus.append({
            "frames": rng.standard_normal((T, TINY.d_frame)),
            "signal": rng.standard_normal((T, TINY.samples_per_frame)),
            "tokens": rng.integers(0, TINY.vocab_size, size=p.size),
            "positions": p,
        })
    model = train_codec(corpus, TINY, steps=0, stream_steps=2, batch_size=2)
    enc = [k for k in model.params if k.startswith("enc/")]
    assert enc and all(model.params[k].grad is None for k in enc)
    assert any(model.params[k].grad is not None for k in model.params if k.startswith("dec_stream/"))


def test_checkpoint_roundtrip(tmp_path, model):
    rng = np.random.default_rng(19)
    frames = rng.standard_normal((5, TINY.d_frame))
    p = np.array([2, 5])
    before = model.encode(frames, p).data
    path = tmp_path / "codec.tada"
    model.save(path)
    restored = CodecModel.load(path)
    assert restored.config.d_latent == TINY.d_latent
    after = restored.encode(frames, p).data
    np.testing.assert_allclose(before, after, atol=1e-5)
