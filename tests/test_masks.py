"""Mask construction: stated windows, exhaustive small-T properties, exact
multi-layer locality, and streaming sufficiency."""

from itertools import combinations

import numpy as np
import pytest

from tada import masks, nn
from tada import numerics as nx
from tada.errors import ValidationError


def cols(mask, row):  # 1-based helpers
    return set((np.flatnonzero(mask[row - 1]) + 1).tolist())


class TestEncoderMask:
    def test_window_example(self):
        m = masks.encoder_mask([2, 5], 6)
        assert cols(m, 2) == {1, 2, 3, 4}
        assert cols(m, 5) == {3, 4, 5, 6}
        assert cols(m, 3) == {3, 4}
        assert cols(m, 1) == {1}
        assert cols(m, 6) == {6}

    def test_single_frame(self):
        m = masks.encoder_mask([1], 1)
        assert m.shape == (1, 1) and m.all()

    def test_adjacent_positions_sentinel_arithmetic(self):
        m = masks.encoder_mask([1, 2], 2)
        assert cols(m, 1) == {1}
        assert cols(m, 2) == {2}

    def test_invalid_positions(self):
        with pytest.raises(ValidationError):
            masks.encoder_mask([0], 3)
        with pytest.raises(ValidationError):
            masks.encoder_mask([2, 2], 4)
        with pytest.raises(ValidationError):
            masks.encoder_mask([5], 4)


class TestDecoderStreamMask:
    def test_window_example(self):
        m = masks.decoder_stream_mask([2, 5], 6)
        assert cols(m, 3) == {1, 2, 3, 4, 5}
        assert cols(m, 2) == {1, 2}
        assert cols(m, 6) == {3, 4, 5, 6}

    def test_single_frame(self):
        assert masks.decoder_stream_mask([1], 1).all()

    def test_single_segment(self):
        m = masks.decoder_stream_mask([3], 3)
        assert m.all()


class TestIndicator:
    def test_examples(self):
        np.testing.assert_array_equal(masks.indicator([2, 5], 6), [0, 1, 0, 0, 1, 0])
        np.testing.assert_array_equal(masks.indicator([1], 1), [1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            masks.indicator([], 4)


def all_position_sets(T):
    for L in range(1, T + 1):
        for combo in combinations(range(1, T + 1), L):
            yield np.array(combo, dtype=np.int64)


class TestExhaustiveProperties:
    """Structural invariants over every p with T <= 10."""

    def test_all_small_cases(self):
        for T in range(1, 11):
            for p in all_position_sets(T):
                enc = masks.encoder_mask(p, T)
                dec = masks.decoder_stream_mask(p, T)
                assert enc.any(axis=1).all(), (p, T)
                assert dec.any(axis=1).all(), (p, T)
                ext = np.concatenate([[0], p, [T + 1]])
                for i in range(1, p.size + 1):
                    lo, hi = ext[i - 1] + 1, ext[i + 1] - 1
                    expect = set(range(max(lo, 1), min(hi, T) + 1))
                    assert cols(enc, int(p[i - 1])) == expect, (p, T, i)
                # decoder rows never attend beyond their governing position
                for q in range(1, T + 1):
                    j = int(np.searchsorted(p, q, side="left"))
                    governing = int(p[j]) if j < p.size else T
                    allowed = cols(dec, q)
                    assert max(allowed) <= governing, (p, T, q)
                # masks are pure functions of (p, T)
                np.testing.assert_array_equal(enc, masks.encoder_mask(p, T))
                np.testing.assert_array_equal(dec, masks.decoder_stream_mask(p, T))

    def test_indicator_has_exactly_L_ones(self):
        for T in range(1, 9):
            for p in all_position_sets(T):
                vec = masks.indicator(p, T)
                assert vec.sum() == p.size
                np.testing.assert_array_equal(np.flatnonzero(vec) + 1, p)


def _random_stack(rng, d=16, layers=3):
    cfg = nn.TransformerConfig(n_layers=layers, d_model=d, n_heads=2, d_ff=32)
    params = {}
    nn.init_stack(params, "tf", rng, cfg)
    return params, cfg


class TestLocality:
    """Exclusion masking makes the window exact through any layer count."""

    @pytest.mark.parametrize("p_T", [((2, 5), 6), ((3,), 7), ((1, 4, 9), 10), ((2, 3, 8), 9)])
    def test_encoder_rows_bit_identical_outside_window(self, p_T):
        p, T = np.asarray(p_T[0]), p_T[1]
        rng = np.random.default_rng(hash(p_T) % (1 << 32))
        params, cfg = _random_stack(rng)
        mask = masks.encoder_mask(p, T)
        x = rng.standard_normal((T, cfg.d_model))
        base = nn.stack(params, "tf", nx.tensor(x.copy()), mask, cfg).data
        ext = np.concatenate([[0], p, [T + 1]])
        for i in range(1, p.size + 1):
            window = set(range(ext[i - 1] + 1, ext[i + 1]))
            outside = [q for q in range(1, T + 1) if q not in window]
            if not outside:
                continue
            x2 = x.copy()
            x2[np.array(outside) - 1] += rng.standard_normal((len(outside), cfg.d_model)) * 100
            pert = nn.stack(params, "tf", nx.tensor(x2), mask, cfg).data
            np.testing.assert_array_equal(base[p[i - 1] - 1], pert[p[i - 1] - 1])

    def test_decoder_row_needs_only_allowed_columns(self):
        rng = np.random.default_rng(11)
        p, T = np.array([2, 5, 9]), 11
        params, cfg = _random_stack(rng, layers=1)
        mask = masks.decoder_stream_mask(p, T)
        x = rng.standard_normal((T, cfg.d_model))
        base = nn.stack(params, "tf", nx.tensor(x.copy()), mask, cfg).data
        for q in range(1, T + 1):
            allowed = cols(mask, q)
            outside = [c for c in range(1, T + 1) if c not in allowed]
            if not outside:
                continue
            x2 = x.copy()
            x2[np.array(outside) - 1] += rng.standard_normal((len(outside), cfg.d_model)) * 50
            pert = nn.stack(params, "tf", nx.tensor(x2), mask, cfg).data
            np.testing.assert_array_equal(base[q - 1], pert[q - 1])


def test_segment_bounds():
    assert masks.segment_bounds([2, 5], 6) == [(0, 2), (2, 5), (5, 6)]
    assert masks.segment_bounds([3], 3) == [(0, 3)]


def test_render_mask_marks_assigned():
    grid = masks.render_mask(masks.encoder_mask([2], 3), [2])
    lines = grid.splitlines()
    assert lines[0].strip() == "*"  # column marker
    assert lines[2].startswith(" 2*")
