"""Backbone: fusion semantics, causality, K-shift bookkeeping, loss
composition, segment dropout, and speech-free guidance identities."""

import numpy as np
import pytest
import reference_ops

from tada import durbits, flowhead, nn
from tada import numerics as nx
from tada.backbone import (
    BackboneConfig,
    BackboneModel,
    SequenceBatchItem,
    base_lm_loss,
    build_sequence,
    context_rows,
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


def tiny_model(seed=0, dropout_rate=TINY.dropout_rate):
    fields = {k: getattr(TINY, k) for k in TINY.__dataclass_fields__ if k != "flow"}
    cfg = BackboneConfig(**{**fields, "dropout_rate": dropout_rate})
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


D_AC = TINY.d_acoustic


def rows(steps):
    """``(ids, acoustic, has_ac, speech)`` of steps given as
    ``(token id, packed slot or None, speech)``."""
    ids = np.array([t for t, _, _ in steps], dtype=np.int64)
    acoustic = np.zeros((len(steps), D_AC))
    for j, (_, slot, _) in enumerate(steps):
        if slot is not None:
            acoustic[j] = slot
    has_ac = np.array([slot is not None for _, slot, _ in steps], dtype=bool)
    speech = np.array([sp for _, _, sp in steps], dtype=bool)
    return ids, acoustic, has_ac, speech


def fused(model, step):
    return model._fuse_matrix(*rows([step])).data[0]


def forward(model, steps):
    """Per-step (text logits, condition) arrays of a full forward."""
    with nx.no_grad():
        logits, cond = model.forward_tensors(*rows(steps))
    return logits.data, cond.data


def joined(outputs):
    """(text logits, condition) arrays of a list of step outputs, rows in order."""
    return tuple(np.concatenate(parts) for parts in zip(*outputs))


def rows_of(output, sl):
    """The rows ``sl`` of a step output."""
    return tuple(x[sl] for x in output)


class TestFuse:
    def test_text_only_has_zero_acoustic_term(self):
        model = tiny_model()
        fused_vec = fused(model, (3, None, False))
        manual = (
            model.params["text_emb"].data[3] + model.params["mode_emb"].data[0]
        )
        np.testing.assert_allclose(fused_vec, manual, atol=1e-12)

    def test_identical_steps_identical_vectors(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        ac = rng.standard_normal(D_AC)
        s = (2, ac, True)
        np.testing.assert_array_equal(fused(model, s), fused(model, s))

    def test_duration_bits_matter_only_in_speech_mode(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        ac1 = rng.standard_normal(D_AC)
        ac2 = ac1.copy()
        ac2[TINY.d_latent] *= -1.0  # flip one f_before analog bit
        speech1 = fused(model, (1, ac1, True))
        speech2 = fused(model, (1, ac2, True))
        assert not np.array_equal(speech1, speech2)
        text1 = fused(model, (1, ac1, False))
        text2 = fused(model, (1, ac2, False))
        np.testing.assert_array_equal(text1, text2)

    def test_placeholder_used_when_slot_missing_in_speech_mode(self):
        model = tiny_model()
        fused_vec = fused(model, (1, None, True))
        manual = (
            model.params["text_emb"].data[1]
            + model.params["bos_ac"].data[0]
            + model.params["mode_emb"].data[1]
        )
        np.testing.assert_allclose(fused_vec, manual, atol=1e-12)

    def test_bad_inputs(self):
        model = tiny_model()
        for bad in (99, -1):
            with pytest.raises(ValidationError, match=rf"^BackboneModel: token ids \[{bad}\] outside \[0, {TINY.n_text_ids}\)"):
                fused(model, (bad, None, False))


class TestForward:
    def test_causality_prefix_unchanged(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        steps = [
            (int(rng.integers(TINY.vocab_size)), rng.standard_normal(D_AC), True)
            for _ in range(6)
        ]
        full = forward(model, steps)
        short = forward(model, steps[:4])
        for j in range(4):
            np.testing.assert_allclose(short[0][j], full[0][j], atol=1e-6)
            np.testing.assert_allclose(short[1][j], full[1][j], atol=1e-6)

    def test_identical_contexts_identical_outputs(self):
        model = tiny_model()
        steps = [(1, None, True), (2, None, True)]
        a = forward(model, steps)
        b = forward(model, steps)
        np.testing.assert_array_equal(a[0][-1], b[0][-1])

    def test_incremental_matches_full(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        steps = [
            (int(rng.integers(TINY.vocab_size)), rng.standard_normal(D_AC), True)
            for _ in range(5)
        ]
        full = forward(model, steps)
        cache = model.new_cache()
        for j, s in enumerate(steps):
            logits, cond = model.step(*rows([s]), cache)
            np.testing.assert_allclose(logits[0], full[0][j], atol=1e-9)
            np.testing.assert_allclose(cond[0], full[1][j], atol=1e-9)

    def test_context_overflow(self):
        model = tiny_model()
        steps = [(0, None, False)] * (TINY.max_context + 1)
        with pytest.raises(ValidationError):
            forward(model, steps)


def random_steps(rng, n, speech=True):
    return [
        (int(rng.integers(TINY.vocab_size)), rng.standard_normal(D_AC) if rng.random() < 0.7 else None, speech)
        for _ in range(n)
    ]


def assert_outputs_close(got, want, atol=1e-9):
    """``got`` and ``want`` are (text logits, condition) arrays."""
    for a, b in zip(got, want):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=atol)


class TestStep:
    def test_chunk_matches_single_rows_and_forward(self):
        model = tiny_model()
        steps = random_steps(np.random.default_rng(30), 7)
        full = forward(model, steps)
        single_cache = model.new_cache()
        single = [model.step(*rows([s]), single_cache) for s in steps]
        chunk_cache = model.new_cache()
        chunk = [model.step(*rows(steps[:5]), chunk_cache), model.step(*rows(steps[5:]), chunk_cache)]
        assert_outputs_close(joined(single), full)
        assert_outputs_close(joined(chunk), full)

    def test_streams_together_match_each_stream_alone(self):
        """Two streams of one cache step in lockstep, stream after stream: a
        prefill of four steps each, then one step of each per call. Each
        stream's outputs equal that stream stepped alone."""
        model = tiny_model()
        rng = np.random.default_rng(31)
        a = random_steps(rng, 6)
        b = random_steps(rng, 6, speech=False)
        alone = []
        for seq in (a, b):
            cache = model.new_cache()
            parts = [model.step(*rows(seq[:4]), cache)] + [model.step(*rows([s]), cache) for s in seq[4:]]
            alone.append(joined(parts))
        cache = model.new_cache(2)
        pre = model.step(*rows([*a[:4], *b[:4]]), cache)
        together = [[rows_of(pre, slice(0, 4))], [rows_of(pre, slice(4, 8))]]
        for sa, sb in zip(a[4:], b[4:]):
            out = model.step(*rows([sa, sb]), cache)
            together[0].append(rows_of(out, slice(0, 1)))
            together[1].append(rows_of(out, slice(1, 2)))
        assert len(cache) == 6
        assert_outputs_close(joined(together[0]), alone[0])
        assert_outputs_close(joined(together[1]), alone[1])

    def test_other_stream_cannot_reach_outputs(self):
        model = tiny_model()
        rng = np.random.default_rng(32)
        a = random_steps(rng, 5)
        b = random_steps(rng, 5)
        b_perturbed = [
            ((t + 1) % TINY.vocab_size, None if slot is None else slot * 1e3 + 7.0, sp)
            for t, slot, sp in b
        ]
        runs = []
        for other in (b, b_perturbed):
            cache = model.new_cache(2)
            out = [rows_of(model.step(*rows([*a[:3], *other[:3]]), cache), slice(0, 3))]
            for sa, sb in zip(a[3:], other[3:]):
                out.append(rows_of(model.step(*rows([sa, sb]), cache), slice(0, 1)))
            runs.append(joined(out))
        for x, y in zip(*runs):
            np.testing.assert_array_equal(x, y)

    def test_context_limit_counts_the_steps_of_each_stream(self):
        """Streams step in lockstep, so each holds len(cache) steps: a cache
        of two streams takes max_context steps of each, and a step past
        that fails without touching the cache."""
        model = tiny_model()
        n = TINY.max_context
        cache = model.new_cache(2)
        model.step(*rows([(1, None, False)] * (2 * n - 2)), cache)
        model.step(*rows([(1, None, False)] * 2), cache)
        assert len(cache) == n
        with pytest.raises(ValidationError, match="exceeds maximum"):
            model.step(*rows([(1, None, False)] * 2), cache)
        assert len(cache) == cache.layers[0].keys.shape[1] == n

    def test_bad_rows(self):
        model = tiny_model()
        ok = (1, None, False)
        bad = rows([ok, (99, None, False)])
        with pytest.raises(ValidationError, match="outside"):
            model.step(*bad, model.new_cache())
        with pytest.raises(ValidationError, match="outside"):
            model.forward_tensors(*bad)
        with pytest.raises(ValidationError, match="do not split into 2 streams"):
            model.step(*rows([ok, ok, ok]), model.new_cache(2))


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

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("n_slots", [0, 1, 5])
    def test_context_rows_equals_row_loop(self, K, n_slots):
        """One indexed copy lays out the same rows as copying slot by slot,
        for steps before, inside and past the slots, in any order."""
        cfg = BackboneConfig(
            vocab_size=6, d_model=16, n_heads=2, n_layers=1, d_ff=16, d_cond=8,
            d_latent=4, bits=3, k_shift=K,
        )
        rng = np.random.default_rng(10 * K + n_slots)
        tokens = rng.integers(0, cfg.vocab_size, size=5).tolist()
        slots = rng.standard_normal((n_slots, cfg.d_acoustic))
        for steps in (np.arange(12), rng.integers(0, 12, size=7), np.array([], dtype=np.int64)):
            got = context_rows(cfg, tokens, slots, steps)
            want = reference_ops.context_rows(cfg, tokens, slots, steps)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype

    def test_build_sequence_packs_the_utterance_in_one_call(self, monkeypatch):
        calls = []
        real_pack = durbits.pack

        def pack(*args):
            calls.append(args)
            return real_pack(*args)

        monkeypatch.setattr(durbits, "pack", pack)
        item = random_item(np.random.default_rng(6), L=5)
        flow_targets = build_sequence(item, TINY)[-1]
        assert len(calls) == 1 and flow_targets.shape == (5, TINY.d_acoustic)


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
        model = tiny_model(dropout_rate=1.0)
        rng = np.random.default_rng(8)
        report = train_step(model, [random_item(rng)], base_lm=model, seed=9, apply_grads=False)
        assert float(report.kd.data) == pytest.approx(0.0, abs=1e-9)
        assert float(report.flow.data) == 0.0  # no speech steps remain

    def test_dropout_rate_zero_matches_all_speech_bitwise(self):
        model = tiny_model(dropout_rate=0.0)
        rng = np.random.default_rng(10)
        item = random_item(rng)
        a = train_step(model, [item], None, seed=11, apply_grads=False)
        b = train_step(model, [item], None, seed=11, apply_grads=False)
        assert float(a.total.data) == float(b.total.data)
        modes = sample_segment_modes(10, 0.0, 8, np.random.default_rng(0))
        assert modes.all()

    def test_gradient_matches_finite_differences(self):
        model = tiny_model(seed=12, dropout_rate=0.0)
        rng = np.random.default_rng(13)
        item = random_item(rng, L=3)

        def fn():
            return train_step(model, [item], None, seed=14, apply_grads=False).total

        names = ["text_emb", "ac_proj/w", "tf/layer0/wq/w", "lm_head/w", "cond_head/w", "flow/fc0/w", "bos_ac"]
        params = [model.params[n] for n in names]
        # eps=1e-4: the attention-weight gradients are small enough that
        # 1e-5 central differences sit in round-off territory
        err = finite_difference_check_params(fn, params, sample=3, seed=1, eps=1e-4)
        assert err < 1e-3


def loss_and_grads(model, fn):
    for p in model.params.values():
        p.grad = None
    loss = fn()
    loss.backward()
    return float(loss.data), {k: p.grad for k, p in model.params.items()}


def assert_matches_reference(model, packed, reference):
    loss, grads = loss_and_grads(model, packed)
    ref_loss, ref_grads = loss_and_grads(model, reference)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert grads.keys() == ref_grads.keys()
    for k, ref in ref_grads.items():
        if ref is None:
            assert grads[k] is None, k
            continue
        assert np.max(np.abs(grads[k] - ref)) <= 1e-12 * np.max(np.abs(ref)), k


def packed_inputs(model, items, seed):
    """Packed (ids, acoustic, has_ac, speech) and lengths of build_sequence layouts."""
    rng = np.random.default_rng(seed)
    seqs = [build_sequence(item, model.config)[:3] for item in items]
    speech = [rng.random(seq[0].size) < 0.6 for seq in seqs]
    ids, acoustic, has_ac = (np.concatenate([seq[k] for seq in seqs]) for k in range(3))
    return (ids, acoustic, has_ac, np.concatenate(speech)), [seq[0].size for seq in seqs]


class TestPacking:
    def test_one_sequence_is_the_causal_stack(self):
        model = tiny_model(seed=40)
        inputs, lengths = packed_inputs(model, [random_item(np.random.default_rng(41), L=6)], seed=42)
        n = lengths[0]
        x = model._fuse_matrix(*inputs)
        h = nn.stack(model.params, "tf", x, nn.causal_mask(n), model.tf, np.arange(n))
        want = (nn.linear(model.params, "lm_head", h).data, nn.linear(model.params, "cond_head", h).data)
        for got in (model.forward_tensors(*inputs), model.forward_tensors(*inputs, lengths=[n])):
            np.testing.assert_array_equal(got[0].data, want[0])
            np.testing.assert_array_equal(got[1].data, want[1])

    def test_sequences_match_their_own_forward(self, monkeypatch):
        model = tiny_model(seed=43)
        rng = np.random.default_rng(44)
        inputs, lengths = packed_inputs(model, [random_item(rng, L=L) for L in (3, 7, 1, 5)], seed=45)
        seen = []
        stack = nn.stack

        def spy(*args):
            seen.append(args[-1])  # the positions
            return stack(*args)

        monkeypatch.setattr(nn, "stack", spy)
        logits, cond = model.forward_tensors(*inputs, lengths=lengths)
        np.testing.assert_array_equal(seen[0], np.concatenate([np.arange(n) for n in lengths]))
        start = 0
        for n in lengths:
            alone = model.forward_tensors(*(a[start : start + n] for a in inputs))
            np.testing.assert_allclose(logits.data[start : start + n], alone[0].data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cond.data[start : start + n], alone[1].data, rtol=0, atol=1e-12)
            start += n

    def test_other_sequences_cannot_reach_a_sequence(self):
        model = tiny_model(seed=46)
        rng = np.random.default_rng(47)
        items = [random_item(rng, L=L) for L in (4, 6, 3)]
        (ids, acoustic, has_ac, speech), lengths = packed_inputs(model, items, seed=48)
        own = np.zeros(ids.size, dtype=bool)
        own[lengths[0] : lengths[0] + lengths[1]] = True
        other_ids = np.where(own, ids, (ids + 1) % TINY.vocab_size)
        other_ac = np.where(own[:, None], acoustic, acoustic * 1e3 + 7.0)
        a = model.forward_tensors(ids, acoustic, has_ac, speech, lengths)
        b = model.forward_tensors(other_ids, other_ac, has_ac, np.where(own, speech, ~speech), lengths)
        np.testing.assert_array_equal(a[0].data[own], b[0].data[own])
        np.testing.assert_array_equal(a[1].data[own], b[1].data[own])
        assert not np.array_equal(a[0].data[~own], b[0].data[~own])

    def test_bad_lengths(self):
        model = tiny_model()
        inputs, lengths = packed_inputs(model, [random_item(np.random.default_rng(49), L=3)] * 2, seed=50)
        with pytest.raises(ValidationError, match="lengths sum"):
            model.forward_tensors(*inputs, lengths=[lengths[0]])
        with pytest.raises(ValidationError, match=">= 1"):
            model.forward_tensors(*inputs, lengths=[0, *lengths])
        with pytest.raises(ValidationError, match=">= 1"):
            model.forward_tensors(*inputs, lengths=[])
        long = TINY.max_context + 1
        ids = np.zeros(long + 2, dtype=np.int64)
        zeros = np.zeros((ids.size, TINY.d_latent + 2 * TINY.bits))
        flags = np.zeros(ids.size, dtype=bool)
        with pytest.raises(ValidationError, match="exceeds maximum"):
            model.forward_tensors(ids, zeros, flags, flags, [2, long])

    def test_train_step_matches_per_sequence_reference(self):
        model = tiny_model(seed=51, dropout_rate=0.5)
        base = tiny_model(seed=52)
        rng = np.random.default_rng(53)
        batch = [random_item(rng, L=L) for L in (2, 6, 4, 1, 5)]
        report = train_step(model, batch, base, seed=54, apply_grads=False)
        assert float(report.kd.data) > 0 and float(report.flow.data) > 0  # text-only and speech steps
        assert_matches_reference(
            model,
            lambda: train_step(model, batch, base, seed=54, apply_grads=False).total,
            lambda: reference_ops.reference_train_step(model, batch, base, seed=54, dropout_rate=0.5),
        )

    def test_wide_batch_is_one_forward(self, monkeypatch):
        """A batch with more rows than ``max_context`` still packs into one
        forward, since only each sequence must fit."""
        model = tiny_model(seed=55, dropout_rate=0.3)
        base = tiny_model(seed=56)
        rng = np.random.default_rng(57)
        batch = [random_item(rng, L=int(L)) for L in rng.integers(1, 9, size=14)]
        rows = sum(build_sequence(it, TINY)[0].size for it in batch)
        assert rows > TINY.max_context
        runs = []
        forward = BackboneModel.forward_tensors

        def spy(self, ids, *rest):
            if self is model:
                runs.append(np.asarray(ids).size)
            return forward(self, ids, *rest)

        monkeypatch.setattr(BackboneModel, "forward_tensors", spy)
        packed = lambda: train_step(model, batch, base, seed=58, apply_grads=False).total
        packed()
        assert runs == [rows]
        assert_matches_reference(
            model, packed, lambda: reference_ops.reference_train_step(model, batch, base, seed=58, dropout_rate=0.3)
        )

    def test_packed_steps_keep_one_rotary_table(self, monkeypatch):
        from tada.numerics import kernels

        monkeypatch.setattr(kernels, "_ROPE_TABLES", {})
        model = tiny_model(seed=61, dropout_rate=0.3)
        rng = np.random.default_rng(62)
        for seed in range(3):
            batch = [random_item(rng, L=int(L)) for L in rng.integers(1, 9, size=6)]
            train_step(model, batch, None, seed=seed)
        hd = TINY.d_model // TINY.n_heads
        assert list(kernels._ROPE_TABLES) == [(hd, model.tf.rope_base, np.dtype(np.float64))]

    def test_base_lm_loss_matches_per_sequence_reference(self):
        model = tiny_model(seed=59)
        rng = np.random.default_rng(60)
        seqs = [rng.integers(0, TINY.vocab_size, size=int(L)) for L in rng.integers(1, 11, size=16)]
        assert sum(s.size + 2 for s in seqs) > TINY.max_context
        assert_matches_reference(
            model, lambda: base_lm_loss(model, seqs), lambda: reference_ops.reference_base_lm_loss(model, seqs)
        )
        with pytest.raises(ValidationError, match="at least one"):
            base_lm_loss(model, [])


    def test_each_loss_is_one_term(self, monkeypatch):
        """train_step builds one flow_loss, one cross_entropy and one
        kl_categorical for a whole batch; base_lm_loss one cross_entropy."""
        calls = []
        for module, name in ((flowhead, "flow_loss"), (nx, "cross_entropy"), (nx, "kl_categorical")):
            def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        model = tiny_model(seed=63, dropout_rate=0.5)
        rng = np.random.default_rng(64)
        batch = [random_item(rng, L=L) for L in (2, 6, 4, 1, 5)]
        report = train_step(model, batch, tiny_model(seed=65), seed=66, apply_grads=False)
        assert all(v > 0 for v in report.floats().values())
        assert sorted(calls) == ["cross_entropy", "flow_loss", "kl_categorical"]
        calls.clear()
        base_lm_loss(model, [item.tokens for item in batch])
        assert calls == ["cross_entropy"]

    def test_one_item_is_the_reference_to_the_bit(self):
        """With one item or sequence, the weighted terms are the reference's
        own terms: loss and every gradient are equal, not just close."""
        for seed in (0, 2, 3, 7):  # seeds whose modes keep flow and text-only steps
            model = tiny_model(seed=67 + seed, dropout_rate=0.5)
            base = tiny_model(seed=71)
            item = random_item(np.random.default_rng(seed), L=7)
            report = train_step(model, [item], base, seed=seed, apply_grads=False)
            assert float(report.flow.data) > 0 and float(report.kd.data) > 0
            cases = [
                (lambda: train_step(model, [item], base, seed=seed, apply_grads=False).total,
                 lambda: reference_ops.reference_train_step(model, [item], base, seed, dropout_rate=0.5)),
                (lambda: base_lm_loss(model, [item.tokens]),
                 lambda: reference_ops.reference_base_lm_loss(model, [item.tokens])),
            ]
            for packed, reference in cases:
                loss, grads = loss_and_grads(model, packed)
                ref_loss, ref_grads = loss_and_grads(model, reference)
                assert loss == ref_loss
                for k, ref in ref_grads.items():
                    assert (grads[k] is None) if ref is None else np.array_equal(grads[k], ref), k

    def test_float32_terms_and_gradients(self):
        with nx.precision("float32"):
            model = tiny_model(seed=72, dropout_rate=0.5)
            base = tiny_model(seed=73)
        rng = np.random.default_rng(74)
        batch = [random_item(rng, L=L) for L in (3, 5, 2, 6)]
        report = train_step(model, batch, base, seed=75, apply_grads=False)
        assert all(v > 0 for v in report.floats().values())
        tape = report.total.backward()
        assert {n.data.dtype for n in tape.nodes} == {np.dtype(np.float32)}
        assert {p.grad.dtype for p in model.params.values() if p.grad is not None} == {np.dtype(np.float32)}
        lm = base_lm_loss(model, [item.tokens for item in batch])
        assert lm.dtype == np.float32


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
        speech_ctx = [(int(i), a, True) for i, a in zip(ids, ac)]
        text_ctx = [(int(i), None, False) for i in ids]
        z_speech = forward(model, speech_ctx)[0][-1]
        z_text = forward(model, text_ctx)[0][-1]
        np.testing.assert_allclose(sfg_logits(z_text, z_speech, 0.0), z_text, atol=1e-6)
        np.testing.assert_allclose(sfg_logits(z_text, z_speech, 1.0), z_speech, atol=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    model = tiny_model(seed=20)
    rng = np.random.default_rng(21)
    steps = [(1, rng.standard_normal(D_AC), True)]
    before = forward(model, steps)[0][0]
    path = tmp_path / "bb.tada"
    model.save(path)
    restored = BackboneModel.load(path)
    assert restored.config.k_shift == TINY.k_shift
    after = forward(restored, steps)[0][0]
    np.testing.assert_allclose(before, after, atol=1e-5)
