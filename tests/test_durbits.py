"""Gray/analog coding: exhaustive roundtrips, adjacency, packing, and the
row functions against the one-integer, one-gap references."""

import numpy as np
import pytest
import reference_ops
from hypothesis import given, settings
from hypothesis import strategies as st

from tada import durbits
from tada.errors import ValidationError


class TestGrayCode:
    def test_zero_is_all_zero_bits(self):
        np.testing.assert_array_equal(durbits.gray_encode(0, 8), np.zeros(8, dtype=np.int64))

    def test_five_at_three_bits(self):
        np.testing.assert_array_equal(durbits.gray_encode(5, 3), [1, 1, 1])

    def test_three_four_adjacent(self):
        g3 = durbits.gray_encode(3, 3)
        g4 = durbits.gray_encode(4, 3)
        np.testing.assert_array_equal(g3, [0, 1, 0])
        np.testing.assert_array_equal(g4, [1, 1, 0])
        assert int(np.sum(g3 != g4)) == 1

    def test_roundtrip_exhaustive_b8(self):
        for n in range(256):
            assert durbits.gray_decode(durbits.gray_encode(n, 8)) == n

    @pytest.mark.parametrize("b", range(1, 11))
    def test_adjacency_exhaustive(self, b):
        codes = [durbits.gray_encode(n, b) for n in range(1 << b)]
        for a, c in zip(codes, codes[1:]):
            assert int(np.sum(a != c)) == 1

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            durbits.gray_encode(256, 8)
        with pytest.raises(ValidationError):
            durbits.gray_encode(-1, 8)


class TestAnalog:
    def test_sign_rule(self):
        np.testing.assert_array_equal(durbits.quantize([0.3, -0.2, 1.7]), [1, 0, 1])

    def test_exact_zero_is_zero_bit(self):
        np.testing.assert_array_equal(durbits.quantize([0.0]), [0])

    def test_analog_quantize_identity_on_signs(self):
        v = np.array([-1.0, 1.0, 1.0, -1.0])
        np.testing.assert_array_equal(durbits.to_analog(durbits.quantize(v)), v)


class TestPacking:
    def test_roundtrip_spec_example(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(8)
        y = durbits.pack(s, 17, 3, 8)
        s2, fb, fa = durbits.unpack(y, 8, 8)
        np.testing.assert_array_equal(s, s2)
        assert (fb, fa) == (17, 3)

    def test_zero_duration_all_minus_one(self):
        y = durbits.pack(np.zeros(4), 0, 0, 8)
        np.testing.assert_array_equal(y[4:], -np.ones(16))

    def test_sign_preserving_perturbation_robust(self):
        rng = np.random.default_rng(1)
        y = durbits.pack(rng.standard_normal(8), 42, 7, 8)
        y2 = y.copy()
        y2[8:] += rng.uniform(-0.99, 0.99, 16) * 0.999  # keeps signs
        _, fb, fa = durbits.unpack(y2, 8, 8)
        assert (fb, fa) == (42, 7)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_roundtrip_random_triples(self, fb, fa, seed):
        s = np.random.default_rng(seed).standard_normal(8)
        s2, fb2, fa2 = durbits.unpack(durbits.pack(s, fb, fa, 8), 8, 8)
        assert (fb2, fa2) == (fb, fa)
        np.testing.assert_array_equal(s, s2)

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            durbits.unpack(np.zeros(10), 8, 8)


class TestDurations:
    def test_from_positions(self):
        fb, fa = durbits.durations_from_positions([3, 5, 9], 11)
        np.testing.assert_array_equal(fb, [2, 1, 3])
        np.testing.assert_array_equal(fa, [1, 3, 2])
        np.testing.assert_array_equal(fa[:-1], fb[1:])  # chain by construction

    def test_positions_roundtrip(self):
        p = np.array([3, 5, 9])
        fb, fa = durbits.durations_from_positions(p, 11)
        p2, T2 = durbits.positions_from_durations(fb, fa)
        np.testing.assert_array_equal(p, p2)
        assert T2 == 11

    def test_mismatch_resolved_by_later_sample(self):
        # f_after[0] disagrees with f_before[1]; the decode rule keeps f_before.
        p, T = durbits.positions_from_durations([2, 4], [9, 1])
        np.testing.assert_array_equal(p, [3, 8])
        assert T == 9

    def test_chain_consistency_rate(self):
        assert durbits.chain_consistency([1, 2, 3], [2, 3, 0]) == 1.0
        assert durbits.chain_consistency([1, 9, 3], [2, 3, 0]) == 0.5
        assert durbits.chain_consistency([4], [1]) == 1.0


class TestRowsMatchReference:
    """The row functions equal the references that code one integer, one
    slot or one gap at a time, value for value and dtype for dtype."""

    @pytest.mark.parametrize("b", range(1, 11))
    def test_gray_code_exhaustive(self, b):
        n = np.arange(1 << b)
        codes = durbits.gray_encode(n, b)
        want = np.stack([reference_ops.gray_encode(int(k), b) for k in n])
        np.testing.assert_array_equal(codes, want)
        assert codes.dtype == want.dtype
        decoded = durbits.gray_decode(codes)
        np.testing.assert_array_equal(decoded, [reference_ops.gray_decode(c) for c in codes])
        np.testing.assert_array_equal(decoded, n)
        assert durbits.gray_decode(codes[-1]) == n[-1]  # one code alone

    @pytest.mark.parametrize("shape", [(0,), (1,), (9,), (3, 4), (2, 0)])
    @pytest.mark.parametrize("b", [1, 4, 8])
    def test_pack_unpack_rows(self, shape, b):
        rng = np.random.default_rng(b * 100 + sum(shape))
        d = 3
        s = rng.standard_normal((*shape, d))
        f_before, f_after = rng.integers(0, 1 << b, size=(2, *shape))

        def slot(s_, fb, fa):
            return np.concatenate([
                s_, durbits.to_analog(reference_ops.gray_encode(int(fb), b)),
                durbits.to_analog(reference_ops.gray_encode(int(fa), b)),
            ])

        flat = zip(s.reshape(-1, d), f_before.reshape(-1), f_after.reshape(-1))
        want = np.array([slot(*t) for t in flat], dtype=np.float64).reshape(*shape, d + 2 * b)
        y = durbits.pack(s, f_before, f_after, b)
        np.testing.assert_array_equal(y, want)
        assert y.dtype == want.dtype

        noisy = y + np.sign(y) * rng.uniform(0.0, 0.9, y.shape) * (np.arange(y.shape[-1]) >= d)
        s2, fb2, fa2 = durbits.unpack(noisy, d, b)
        rows = noisy.reshape(-1, d + 2 * b)
        decode = [reference_ops.gray_decode(durbits.quantize(r)) for r in rows[:, d:].reshape(-1, b)]
        np.testing.assert_array_equal(np.stack([fb2, fa2], axis=-1).reshape(-1), decode)
        np.testing.assert_array_equal(s2, s)
        np.testing.assert_array_equal(fb2, f_before)
        np.testing.assert_array_equal(fa2, f_after)
        assert fb2.dtype == fa2.dtype == np.int64

    def test_gray_encode_names_the_first_value_out_of_range(self):
        with pytest.raises(ValidationError, match="gray_encode: 16 out of range for 4 bits"):
            durbits.gray_encode(np.array([[3, 16], [-1, 2]]), 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_positions_from_durations(self, seed):
        rng = np.random.default_rng(seed)
        L = int(rng.integers(1, 20))
        f_before, f_after = rng.integers(0, 9, size=(2, L))  # chain mismatches included
        positions, T = durbits.positions_from_durations(f_before, f_after)
        want, want_T = reference_ops.positions_from_durations(f_before, f_after)
        np.testing.assert_array_equal(positions, want)
        assert positions.dtype == want.dtype and T == want_T and type(T) is int
