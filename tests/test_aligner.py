"""CTC likelihood vs. path enumeration, Viterbi vs. exhaustive search,
curriculum, filters, and a single-utterance overfit run."""

from itertools import product

import numpy as np
import pytest

from tada import numerics as nx
from tada.aligner import (
    _ctc_lattice,
    _extend_with_blanks,
    _skips,
    AlignerConfig,
    AlignerModel,
    aligner_batch_loss,
    alignment_accuracy,
    ctc_log_likelihood,
    ctc_required_frames,
    curriculum_subset,
    filter_alignment,
    train_aligner,
    viterbi_align,
    viterbi_score_bruteforce,
)
from tada.errors import InfeasibleError, ValidationError
from tada.numerics import finite_difference_check
import reference_ops


def random_log_probs(rng, T, V):
    """Valid per-row log-softmax scores (V labels + blank)."""
    logits = rng.standard_normal((T, V + 1)) * 2.0
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def ctc_bruteforce(log_probs, targets, blank):
    """Sum path probabilities by enumerating every length-T symbol string."""
    T, width = log_probs.shape
    targets = list(targets)
    total = -np.inf
    for path in product(range(width), repeat=T):
        collapsed = []
        prev = None
        for sym in path:
            if sym != prev:
                collapsed.append(sym)
            prev = sym
        collapsed = [s for s in collapsed if s != blank]
        if collapsed == targets:
            score = sum(log_probs[t, sym] for t, sym in enumerate(path))
            total = np.logaddexp(total, score)
    return total


def loop_alpha(y, lab, blank):
    """The CTC forward recursion with the skip mask rebuilt on every frame."""
    T, S = y.shape[0], lab.size
    alpha = np.full((T, S), -np.inf)
    alpha[0, 0] = y[0, lab[0]]
    if S > 1:
        alpha[0, 1] = y[0, lab[1]]
    for t in range(1, T):
        prev = alpha[t - 1]
        cur = prev.copy()
        cur[1:] = np.logaddexp(cur[1:], prev[:-1])
        skip_ok = np.zeros(S, dtype=bool)
        skip_ok[2:] = (lab[2:] != blank) & (lab[2:] != lab[:-2])
        cur[skip_ok] = np.logaddexp(cur[skip_ok], prev[np.flatnonzero(skip_ok) - 2])
        alpha[t] = cur + y[t, lab]
    return alpha


def loop_beta(y, lab, blank):
    """The CTC backward recursion with the skip mask rebuilt on every frame."""
    T, S = y.shape[0], lab.size
    beta = np.full((T, S), -np.inf)
    beta[T - 1, S - 1] = 0.0
    if S > 1:
        beta[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + y[t + 1, lab]
        cur = nxt.copy()
        cur[:-1] = np.logaddexp(cur[:-1], nxt[1:])
        skip_ok = np.zeros(S, dtype=bool)
        skip_ok[: S - 2] = (lab[2:] != blank) & (lab[2:] != lab[:-2])
        idx = np.flatnonzero(skip_ok)
        cur[idx] = np.logaddexp(cur[idx], nxt[idx + 2])
        beta[t] = cur
    return beta


def loop_viterbi(y, tokens):
    """viterbi_align with each row's suffix maxima and earliest argmaxima
    found one frame at a time, scanning back from the last frame."""
    T, L = y.shape[0], len(tokens)
    e = np.full((L, T), -np.inf)
    best_val = np.full((L, T), -np.inf)
    best_at = np.zeros((L, T), dtype=np.int64)

    def fill_suffix(i):
        val, arg = -np.inf, T - 1
        for t in range(T - 1, -1, -1):
            if e[i, t] >= val:
                val, arg = e[i, t], t
            best_val[i, t], best_at[i, t] = val, arg

    e[L - 1, L - 1 :] = y[L - 1 :, tokens[L - 1]]
    fill_suffix(L - 1)
    for i in range(L - 2, -1, -1):
        hi = T - (L - 1 - i)
        e[i, i:hi] = y[i:hi, tokens[i]] + best_val[i + 1, i + 1 : hi + 1]
        fill_suffix(i)
    positions, prev = [], -1
    for i in range(L):
        prev = int(best_at[i, prev + 1])
        positions.append(prev + 1)
    return np.array(positions), float(best_val[0, 0])


class TestCtcLogLikelihood:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_recursions_match_per_frame_loop_bitwise(self, dtype):
        rng = np.random.default_rng(8)
        for case in range(40):
            V = int(rng.integers(2, 5))
            L = case % 8 // 4 if case % 4 == 0 else int(rng.integers(1, 8))  # 0: the one-blank lattice
            targets = rng.integers(0, 2 if case % 3 == 0 else V, size=L)  # few labels: many repeats
            T = max(1, L + int(np.sum(targets[1:] == targets[:-1])) + int(rng.integers(0, 6)))
            y = random_log_probs(rng, T, V).astype(dtype)
            lab = _extend_with_blanks(targets, V)
            emit = y[:, lab]

            def lattice(y, lab):  # a batch of one
                return _ctc_lattice(y[:, None, lab].astype(np.float64), _skips(lab[None], V))[:, 0]

            assert np.array_equal(lattice(y, lab) + emit, loop_alpha(y, lab, V))
            # The forward recursion on the lattice reversed in time and
            # labels, mirrored back: its alpha is beta plus the emission.
            rev_y, rev_lab = y[::-1], lab[::-1]
            rev_lattice = lattice(rev_y, rev_lab)
            beta = loop_beta(y, lab, V)
            assert np.array_equal((rev_lattice + rev_y[:, rev_lab])[::-1, ::-1], beta + emit)
            assert np.array_equal(rev_lattice[::-1, ::-1], beta)

    def test_single_frame_single_target(self):
        rng = np.random.default_rng(0)
        y = random_log_probs(rng, 1, 3)
        assert ctc_log_likelihood(y, [2]).item() == pytest.approx(y[0, 2])

    def test_two_frames_single_target_three_paths(self):
        rng = np.random.default_rng(1)
        y = random_log_probs(rng, 2, 3)
        w, blank = 1, 3
        expected = np.logaddexp.reduce(
            [y[0, w] + y[1, w], y[0, blank] + y[1, w], y[0, w] + y[1, blank]]
        )
        assert ctc_log_likelihood(y, [w]).item() == pytest.approx(expected, rel=1e-12)

    def test_empty_targets_all_blank(self):
        rng = np.random.default_rng(2)
        y = random_log_probs(rng, 3, 2)
        assert ctc_log_likelihood(y, []).item() == pytest.approx(y[:, 2].sum())

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            T = int(rng.integers(1, 7))
            V = int(rng.integers(2, 4))
            L = int(rng.integers(0, min(3, T) + 1))
            targets = rng.integers(0, V, size=L)
            # skip infeasible draws (bruteforce would return -inf)
            required = L + int(np.sum(targets[1:] == targets[:-1])) if L else 0
            if T < required:
                continue
            y = random_log_probs(rng, T, V)
            got = ctc_log_likelihood(y, targets).item()
            want = ctc_bruteforce(y, targets.tolist(), V)
            assert got == pytest.approx(want, rel=1e-6)

    def test_infeasible_raises_not_minus_inf(self):
        rng = np.random.default_rng(4)
        y = random_log_probs(rng, 2, 3)
        with pytest.raises(InfeasibleError):
            ctc_log_likelihood(y, [1, 1])  # repeat needs 3 frames

    @pytest.mark.parametrize("target", [2, 3, -1])
    @pytest.mark.parametrize("packed", [False, True])
    def test_target_outside_the_labels_raises(self, target, packed):
        """Ids run 0..V-1: the blank (column V) and anything past it or
        below 0 is not a target, alone or in a packed batch."""
        y = np.log(np.full((4, 3), 1 / 3))
        with pytest.raises(ValidationError, match="target id out of range"):
            if packed:
                ctc_log_likelihood(np.concatenate([y, y]), [[0], [target]], lengths=[4, 4])
            else:
                ctc_log_likelihood(y, [target])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        targets = np.array([0, 2, 0])

        def fn(x):
            return -ctc_log_likelihood(nx.log_softmax(x), targets)

        err = finite_difference_check(fn, rng.standard_normal((6, 4)))
        assert err < 1e-3

    def test_gradient_empty_targets(self):
        rng = np.random.default_rng(6)

        def fn(x):
            return -ctc_log_likelihood(nx.log_softmax(x), [])

        assert finite_difference_check(fn, rng.standard_normal((3, 3))) < 1e-3

    @pytest.mark.parametrize("targets", [[0, 2, 0], []], ids=["targets", "empty"])
    def test_keeps_float32(self, targets):
        """Float32 scores give a float32 likelihood and gradient."""
        x = nx.tensor(np.random.default_rng(7).standard_normal((6, 4)), requires_grad=True, dtype=np.float32)
        loss = -ctc_log_likelihood(nx.log_softmax(x), targets)
        loss.backward()
        assert loss.dtype == x.grad.dtype == np.float32


def ctc_batch_cases(rng, V):
    """(targets, frames) per utterance: repeated tokens, a one-token target,
    an utterance at exactly its required frames, an empty target and
    ragged lengths."""
    repeats = np.array([1, 1, 0, 1, 1])
    exact = rng.integers(0, V, size=4)
    return [
        (repeats, int(rng.integers(7, 12))),
        (np.array([int(rng.integers(0, V))]), int(rng.integers(1, 4))),
        (exact, ctc_required_frames(exact)),
        (np.array([], dtype=np.int64), int(rng.integers(1, 5))),
        (rng.integers(0, V, size=int(rng.integers(2, 7))), 14),
    ]


class TestBatchedCtc:
    """The batched lattice against one lattice per utterance
    (``reference_ops.ctc_log_likelihood``), to the bit."""

    @staticmethod
    def run(ctc, y, mask, weights, targets, lengths=None):
        x = nx.tensor(y, requires_grad=True, dtype=y.dtype)
        ll = ctc(nx.log_softmax(x, mask=mask), targets, lengths=lengths)
        nx.sum_(nx.mul(ll, nx.tensor(weights, dtype=y.dtype))).backward()
        return ll.data, x.grad

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_packed_equals_per_utterance_lattices(self, dtype):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            V = 4
            cases = ctc_batch_cases(rng, V)
            rng.shuffle(cases)
            targets, lengths = [tg for tg, _ in cases], [n for _, n in cases]
            y = (rng.standard_normal((sum(lengths), V + 1)) * 3.0).astype(dtype)
            # Curriculum style: an unused column is excluded (LOG_EXCLUDED).
            mask = None if seed % 2 else np.broadcast_to(np.arange(V + 1) != 3, y.shape)
            weights = rng.uniform(0.5, 2.0, len(cases))
            got = self.run(ctc_log_likelihood, y, mask, weights, targets, lengths)
            want = self.run(reference_ops.ctc_log_likelihood, y, mask, weights, targets, lengths)
            assert got[0].dtype == got[1].dtype == dtype
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_unpacked_call_equals_its_lattice(self, dtype):
        rng = np.random.default_rng(7)
        for tg, n in ctc_batch_cases(rng, 4):
            y = (rng.standard_normal((n, 5)) * 3.0).astype(dtype)
            got = self.run(ctc_log_likelihood, y, None, 1.5, tg)
            want = self.run(reference_ops.ctc_log_likelihood, y, None, 1.5, tg)
            assert got[0].shape == ()
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


class TestViterbi:
    def test_spec_example(self):
        y = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
        a = viterbi_align(y, [0, 1])
        np.testing.assert_array_equal(a.positions, [1, 2])
        assert a.score == pytest.approx(3.0)

    def test_single_token_earliest_argmax(self):
        y = np.array([[1.0], [5.0], [5.0], [2.0]])
        a = viterbi_align(y, [0])
        np.testing.assert_array_equal(a.positions, [2])

    def test_full_length_unique_assignment(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((4, 3))
        a = viterbi_align(y, [2, 0, 1, 2])
        np.testing.assert_array_equal(a.positions, [1, 2, 3, 4])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            T = int(rng.integers(1, 13))
            L = int(rng.integers(1, min(5, T) + 1))
            V = int(rng.integers(1, 4))
            tokens = rng.integers(0, V, size=L)
            y = rng.standard_normal((T, V))
            a = viterbi_align(y, tokens)
            best_score, best_pos = viterbi_score_bruteforce(y, tokens)
            assert a.score == pytest.approx(best_score, abs=1e-12)
            np.testing.assert_array_equal(a.positions, best_pos)

    def test_matches_per_frame_suffix_loop_on_ties(self):
        """Positions and score equal the per-frame suffix scan's on long,
        tie-heavy scores that brute force cannot reach."""
        rng = np.random.default_rng(9)
        for case in range(300):
            T = int(rng.integers(1, 81))
            L = int(rng.integers(1, min(T, 16) + 1))
            V = int(rng.integers(1, 4))
            y = np.round(rng.standard_normal((T, V)) * 2) / 2  # few distinct values: many ties
            if case % 5 == 0:
                y[rng.random(y.shape) < 0.3] = -np.inf
            tokens = rng.integers(0, V, size=L)
            a = viterbi_align(y, tokens)
            positions, score = loop_viterbi(y, tokens)
            np.testing.assert_array_equal(a.positions, positions)
            assert a.score == score

    def test_earliest_tie_stable_under_later_permutation(self):
        # Rows 3 and 4 are identical; swapping them must not change output.
        y = np.array([[0.0], [2.0], [1.5], [1.5], [0.5]])
        tokens = [0]
        a1 = viterbi_align(y, tokens)
        y2 = y.copy()
        y2[[2, 3]] = y2[[3, 2]]
        a2 = viterbi_align(y2, tokens)
        np.testing.assert_array_equal(a1.positions, a2.positions)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            viterbi_align(np.zeros((2, 3)), [0, 1, 2])
        with pytest.raises(ValidationError):
            viterbi_align(np.zeros((2, 3)), [])


class TestCurriculum:
    def test_initial_batch_targets_and_blank(self):
        mask = curriculum_subset(0, np.zeros(32), [3, 7], 32)
        assert set(np.flatnonzero(mask)) == {3, 7, 32}

    def test_cap_keeps_most_frequent_plus_batch(self):
        observed = np.zeros(32)
        observed[:12] = np.arange(12, 0, -1)  # indices 0..11 observed, 0 most frequent
        active = set(np.flatnonzero(curriculum_subset(10, observed, [20], 32, schedule={0: 8})))
        assert set(range(8)) <= active
        assert 20 in active and 32 in active
        assert len(active - {20, 32}) == 8

    def test_beyond_final_threshold_full_vocab(self):
        mask = curriculum_subset(25000, np.zeros(32), [], 32)
        assert set(np.flatnonzero(mask)) >= set(range(32))

    def test_monotone_nondecreasing_caps(self):
        observed = np.ones(300)
        sizes = []
        for step in (0, 5000, 20000):
            mask = curriculum_subset(step, observed, [], 300)
            sizes.append(len(set(np.flatnonzero(mask))))
        assert sizes == sorted(sizes)

    def test_column_mask_includes_blank(self):
        mask = curriculum_subset(0, np.zeros(8), [1], 8)
        assert mask[8] and mask[1] and not mask[5]


class TestFilter:
    def test_consecutive_run_dropped(self):
        assert filter_alignment([10, 11, 12, 13], 20) == "consecutive-run"

    def test_three_consecutive_frames_kept(self):
        assert filter_alignment([10, 11, 12], 20) is None

    def test_gap_dropped(self):
        assert filter_alignment([1, 160], 170) == "gap"

    def test_plain_keep(self):
        assert filter_alignment([5, 30, 62], 100) is None

    def test_boundary_gaps(self):
        assert filter_alignment([151], 151) == "gap"  # leading
        assert filter_alignment([150], 150) is None
        assert filter_alignment([1], 152) == "gap"  # trailing
        assert filter_alignment([1], 151) is None

    def test_pure_function_of_p_and_T(self):
        p = [4, 8, 9]
        assert filter_alignment(p, 30) == filter_alignment(p, 30)


class TestTraining:
    def test_lambda_inter_zero_is_pure_main_loss(self):
        rng = np.random.default_rng(9)
        cfg = AlignerConfig(d_in=4, d_model=16, n_heads=2, d_ff=16, vocab_size=5, lambda_inter=0.0)
        model = AlignerModel(cfg, rng)
        batch = [(rng.standard_normal((6, 4)), np.array([1, 3]))]
        total, report = aligner_batch_loss(model, batch)
        assert float(total.data) == pytest.approx(report["ctc"], rel=1e-12)

    def test_single_utterance_overfit(self):
        rng = np.random.default_rng(10)
        cfg = AlignerConfig(d_in=4, d_model=16, n_heads=2, d_ff=16, vocab_size=5, use_curriculum=False)
        frames = rng.standard_normal((10, 4))
        tokens = np.array([1, 4, 2])
        model = train_aligner([(frames, tokens)], cfg, steps=500, batch_size=1, lr=3e-3, seed=0)
        loss, _ = aligner_batch_loss(model, [(frames, tokens)])
        assert float(loss.data) < 0.1

    def test_curriculum_never_scores_inactive(self):
        rng = np.random.default_rng(11)
        mask = curriculum_subset(0, np.zeros(8), [1, 2], 8)
        logits = nx.tensor(rng.standard_normal((5, 9)))
        logp = nx.log_softmax(logits, mask=np.broadcast_to(mask, (5, 9)))
        inactive = np.flatnonzero(~mask)
        assert np.all(logp.data[:, inactive] == nx.LOG_EXCLUDED)


def reference_batch_loss(model, batch, column_mask=None):
    """aligner_batch_loss written as one forward and one CTC term per utterance."""
    cfg = model.config
    main_terms, inter_terms = [], []
    for frames, tokens in batch:
        logits, inter_logits = model.forward(frames)
        mask = None if column_mask is None else np.broadcast_to(column_mask, logits.shape)
        main_terms.append(-ctc_log_likelihood(nx.log_softmax(logits, mask=mask), tokens))
        inter_terms.append(-ctc_log_likelihood(nx.log_softmax(inter_logits), np.asarray(tokens) % cfg.n_graphemes))
    mean = lambda terms: nx.scale(sum(terms[1:], terms[0]), 1.0 / len(terms))
    return mean(main_terms) + nx.scale(mean(inter_terms), cfg.lambda_inter)


def loss_and_grads(model, fn):
    for p in model.params.values():
        p.grad = None
    loss = fn()
    loss.backward()
    return float(loss.data), {k: p.grad for k, p in model.params.items()}


def packed_batch(rng, d_in, lengths, vocab):
    return [(rng.standard_normal((T, d_in)), rng.integers(0, vocab, size=max(1, T // 4))) for T in lengths]


PACK_CFG = AlignerConfig(d_in=4, d_model=16, n_heads=2, d_ff=16, vocab_size=7, n_graphemes=3)


class TestPackedBatch:
    @pytest.mark.parametrize("curriculum", [False, True], ids=["all-columns", "column-mask"])
    def test_batch_loss_matches_per_utterance_reference(self, curriculum):
        rng = np.random.default_rng(40)
        model = AlignerModel(PACK_CFG, rng)
        batch = packed_batch(rng, 4, (9, 1, 14, 5), PACK_CFG.vocab_size)
        mask = None
        if curriculum:
            targets = np.concatenate([t for _, t in batch])
            mask = curriculum_subset(0, np.zeros(PACK_CFG.vocab_size), targets, PACK_CFG.vocab_size, {0: 1})
            assert not mask.all()
        loss, grads = loss_and_grads(model, lambda: aligner_batch_loss(model, batch, mask)[0])
        ref_loss, ref_grads = loss_and_grads(model, lambda: reference_batch_loss(model, batch, mask))
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for k, ref in ref_grads.items():
            assert np.max(np.abs(grads[k] - ref)) <= 1e-12 * np.max(np.abs(ref)), k

    def test_other_utterances_cannot_reach_an_utterance(self):
        rng = np.random.default_rng(41)
        model = AlignerModel(PACK_CFG, rng)
        lengths = [6, 1, 9, 4]
        frames = rng.standard_normal((sum(lengths), 4))
        own = np.zeros(frames.shape[0], dtype=bool)
        own[7:16] = True
        other = np.where(own[:, None], frames, frames * 1e3 + 5.0)
        a, b = model.log_probs(frames, lengths), model.log_probs(other, lengths)
        np.testing.assert_array_equal(a[own], b[own])
        assert not np.array_equal(a[~own], b[~own])

    def test_align_batch_equals_align(self):
        rng = np.random.default_rng(42)
        model = AlignerModel(PACK_CFG, rng)
        batch = packed_batch(rng, 4, (9, 3, 14, 5, 11), PACK_CFG.vocab_size)
        for packed, (frames, tokens) in zip(model.align_batch(batch), batch):
            np.testing.assert_array_equal(packed.positions, model.align(frames, tokens).positions)

    def test_attention_scores_only_each_utterance(self, monkeypatch):
        """Every mask the packed forward hands the attention is one
        utterance's own square block."""
        from tada import nn

        seen = []
        attention = nn.nx.attention_heads

        def spy(q, k, v, mask):
            seen.append([m.shape for m in mask])
            return attention(q, k, v, mask)

        monkeypatch.setattr(nn.nx, "attention_heads", spy)
        rng = np.random.default_rng(43)
        model = AlignerModel(PACK_CFG, rng)
        batch = packed_batch(rng, 4, (9, 1, 14), PACK_CFG.vocab_size)
        aligner_batch_loss(model, batch)
        assert seen and all(shapes == [(9, 9), (1, 1), (14, 14)] for shapes in seen)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(44)
        with nx.precision("float32"):
            model = AlignerModel(PACK_CFG, rng)
        batch = packed_batch(rng, 4, (9, 1, 14), PACK_CFG.vocab_size)
        loss, _ = aligner_batch_loss(model, batch)
        loss.backward()
        assert loss.dtype == np.float32
        assert {p.grad.dtype for p in model.params.values()} == {p.data.dtype for p in model.params.values()} == {
            np.dtype(np.float32)
        }

    def test_ctc_lengths_reject_mismatch(self):
        y = random_log_probs(np.random.default_rng(45), 6, 3)
        with pytest.raises(ValidationError, match="do not match"):
            ctc_log_likelihood(y, [[1], [2]], lengths=[2, 3])
        with pytest.raises(InfeasibleError):
            ctc_log_likelihood(y, [[1, 1], [2]], lengths=[2, 4])
        # A 0-frame sequence with an empty target needs 0 emission steps but
        # has no last frame to read its likelihood from.
        for lengths in ([0, 6], [6, 0], [3, 0, 3], [7, -1]):
            with pytest.raises(ValidationError, match="at least one frame"):
                ctc_log_likelihood(y, [[] for _ in lengths], lengths=lengths)


def test_model_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    cfg = AlignerConfig(d_in=4, d_model=16, n_heads=2, d_ff=16, vocab_size=5)
    model = AlignerModel(cfg, rng)
    frames = rng.standard_normal((6, 4)).astype(np.float32)
    before = model.log_probs(frames)
    path = tmp_path / "aligner.tada"
    model.save(path)
    restored = AlignerModel.load(path)
    after = restored.log_probs(frames)
    assert after.dtype == np.float32
    np.testing.assert_allclose(before, after, atol=1e-5)


def test_alignment_accuracy_counts_tokens_within_tolerance():
    predicted = [np.array([1, 4, 9]), np.array([2])]
    truth = [np.array([1, 5, 7]), np.array([4])]
    assert alignment_accuracy(predicted, truth) == 2 / 4
    assert alignment_accuracy(predicted, truth, tolerance=2) == 1.0
    assert alignment_accuracy([], []) == 0.0
