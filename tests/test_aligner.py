"""CTC likelihood vs. path enumeration, Viterbi vs. exhaustive search,
curriculum, filters, and a single-utterance overfit run."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tada import numerics as nx
from tada.aligner import (
    AlignerConfig,
    AlignerModel,
    aligner_batch_loss,
    alignment_accuracy,
    ctc_log_likelihood,
    ctc_loss,
    curriculum_subset,
    filter_alignment,
    load_alignment_cache,
    save_alignment_cache,
    train_aligner,
    viterbi_align,
    viterbi_score_bruteforce,
)
from tada.errors import InfeasibleError, ValidationError
from tada.numerics import finite_difference_check


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


class TestCtcLogLikelihood:
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

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        targets = np.array([0, 2, 0])

        def fn(x):
            return ctc_loss(nx.log_softmax(x), targets)

        err = finite_difference_check(fn, rng.standard_normal((6, 4)))
        assert err < 1e-3

    def test_gradient_empty_targets(self):
        rng = np.random.default_rng(6)

        def fn(x):
            return ctc_loss(nx.log_softmax(x), [])

        assert finite_difference_check(fn, rng.standard_normal((3, 3))) < 1e-3


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
        vocab = curriculum_subset(0, np.zeros(32), [3, 7], 32)
        assert vocab.active == {3, 7, 32}

    def test_cap_keeps_most_frequent_plus_batch(self):
        observed = np.zeros(32)
        observed[:12] = np.arange(12, 0, -1)  # indices 0..11 observed, 0 most frequent
        vocab = curriculum_subset(10, observed, [20], 32, schedule={0: 8})
        assert set(range(8)) <= vocab.active
        assert 20 in vocab.active and 32 in vocab.active
        assert len(vocab.active - {20, 32}) == 8

    def test_beyond_final_threshold_full_vocab(self):
        vocab = curriculum_subset(25000, np.zeros(32), [], 32)
        assert vocab.active >= set(range(32))

    def test_monotone_nondecreasing_caps(self):
        observed = np.ones(300)
        sizes = []
        for step in (0, 5000, 20000):
            vocab = curriculum_subset(step, observed, [], 300)
            sizes.append(len(vocab.active))
        assert sizes == sorted(sizes)

    def test_column_mask_includes_blank(self):
        vocab = curriculum_subset(0, np.zeros(8), [1], 8)
        mask = vocab.column_mask()
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
        vocab = curriculum_subset(0, np.zeros(8), [1, 2], 8)
        mask = vocab.column_mask()
        logits = nx.tensor(rng.standard_normal((5, 9)))
        logp = nx.log_softmax(logits, mask=np.broadcast_to(mask, (5, 9)))
        inactive = np.flatnonzero(~mask)
        assert np.all(logp.data[:, inactive] == nx.LOG_EXCLUDED)


def test_alignment_cache_roundtrip(tmp_path):
    records = {0: (12, np.array([2, 5, 9])), 3: (7, np.array([1, 6]))}
    path = tmp_path / "align.cache"
    save_alignment_cache(path, records)
    loaded = load_alignment_cache(path)
    assert set(loaded) == {0, 3}
    for k in records:
        assert loaded[k][0] == records[k][0]
        np.testing.assert_array_equal(loaded[k][1], records[k][1])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_alignment_cache(tmp_path_factory, data):
    """The cache carries a record count, so every cut, including one that
    falls between records, is a ValidationError naming the file."""
    records = {0: (12, np.array([2, 5, 9])), 3: (7, np.array([1, 6])), 4: (9, np.array([4]))}
    full = tmp_path_factory.mktemp("full") / "align.cache"
    save_alignment_cache(full, records)
    raw = full.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = tmp_path_factory.mktemp("cut") / "cut.cache"
    path.write_bytes(raw[:cut])
    with pytest.raises(ValidationError, match="cut.cache"):
        load_alignment_cache(path)


@pytest.mark.parametrize("damage", ["magic", "trailing"])
def test_damaged_alignment_cache(tmp_path, damage):
    path = tmp_path / "align.cache"
    save_alignment_cache(path, {0: (12, np.array([2, 5, 9]))})
    raw = path.read_bytes()
    path.write_bytes(b"X" + raw[1:] if damage == "magic" else raw + b"\0")
    with pytest.raises(ValidationError, match="align.cache"):
        load_alignment_cache(path)


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
    np.testing.assert_allclose(before, after, atol=1e-5)
