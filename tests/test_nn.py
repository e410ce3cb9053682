"""Transformer blocks: the head-batched attention against the per-head
reference, and the KV-cached step against the full stack."""

import math

import numpy as np
import pytest

from tada import nn
from tada import numerics as nx
from tada.errors import ShapeError, ValidationError
from reference_ops import rope, slice_cols, transpose2d

CFG = nn.TransformerConfig(n_layers=2, d_model=24, n_heads=3, d_ff=32)


def make_params(seed=0, gain=1.0):
    params = {}
    nn.init_stack(params, "tf", np.random.default_rng(seed), CFG)
    for p in params.values():
        p.data = p.data * gain  # larger weights give peaked, non-uniform attention
    return params


def per_head_attention(params, prefix, x, mask, cfg, positions):
    """The attention built head by head from rank-2 primitives."""
    q = nn.linear(params, f"{prefix}/wq", x)
    k = nn.linear(params, f"{prefix}/wk", x)
    v = nn.linear(params, f"{prefix}/wv", x)
    hd = cfg.d_model // cfg.n_heads
    outs = []
    for h in range(cfg.n_heads):
        lo, hi = h * hd, (h + 1) * hd
        qh = rope(slice_cols(q, lo, hi), positions, cfg.rope_base)
        kh = rope(slice_cols(k, lo, hi), positions, cfg.rope_base)
        scores = nx.scale(nx.matmul(qh, transpose2d(kh)), 1.0 / math.sqrt(hd))
        outs.append(nx.matmul(nx.softmax_masked(scores, mask), slice_cols(v, lo, hi)))
    return nn.linear(params, f"{prefix}/wo", nx.concat(outs, axis=1))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("T", [1, 6, 29])
def test_attention_matches_per_head_reference(T, dtype):
    rng = np.random.default_rng(T)
    with nx.precision(dtype):
        params = make_params(gain=10.0)
        x0 = rng.standard_normal((T, CFG.d_model))
        mask = rng.random((T, T)) < 0.5
        mask[np.arange(T), np.arange(T)] = True
        positions = np.arange(T) + 5
        c = nx.tensor(rng.standard_normal((T, CFG.d_model)))
        runs = []
        for attend in (nn.attention, per_head_attention):
            for p in params.values():
                p.zero_grad()
            x = nx.tensor(x0, requires_grad=True)
            out = attend(params, "tf/layer0", x, mask, CFG, positions)
            nx.sum_(nx.mul(out, c)).backward()
            grads = {k: p.grad for k, p in params.items() if p.grad is not None}
            runs.append((out.data, x.grad, grads))
    (out, gx, grads), (ref, ref_gx, ref_grads) = runs
    assert out.dtype == ref.dtype == gx.dtype == ref_gx.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(out, ref)
    np.testing.assert_array_equal(gx, ref_gx)
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        np.testing.assert_array_equal(grads[k], ref_grads[k], err_msg=k)


def _ragged_masks(rng, lengths):
    masks = []
    for n in lengths:
        m = rng.random((n, n)) < 0.5
        m[np.arange(n), np.arange(n)] = True
        masks.append(m)
    return masks


def test_packed_attention_matches_per_head_reference_per_sequence():
    """A packed run through ``nn.attention`` against the per-head chain run
    on each sequence alone, positions restarting at 0: outputs and every
    gradient agree to 1e-12 relative in float64."""
    rng = np.random.default_rng(21)
    lengths = [5, 1, 7, 3]
    params = make_params(gain=10.0)
    x0 = rng.standard_normal((sum(lengths), CFG.d_model))
    masks = _ragged_masks(rng, lengths)
    c = rng.standard_normal((sum(lengths), CFG.d_model))

    def run(attend_all):
        for p in params.values():
            p.zero_grad()
        x = nx.tensor(x0, requires_grad=True)
        out = attend_all(x)
        nx.sum_(nx.mul(out, nx.tensor(c))).backward()
        return out.data, x.grad, {k: p.grad for k, p in params.items() if p.grad is not None}

    def per_sequence(x):
        outs, start = [], 0
        for n, m in zip(lengths, masks):
            rows = nx.gather_rows(x, np.arange(start, start + n))
            outs.append(per_head_attention(params, "tf/layer0", rows, m, CFG, np.arange(n)))
            start += n
        return nx.concat(outs, axis=0)

    positions = nn.sequence_positions(lengths)
    got = run(lambda x: nn.attention(params, "tf/layer0", x, masks, CFG, positions))
    want = run(per_sequence)
    for a, b in zip(got[:2], want[:2]):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    assert got[2].keys() == want[2].keys()
    for k in want[2]:
        assert np.max(np.abs(got[2][k] - want[2][k])) <= 1e-12 * np.max(np.abs(want[2][k])), k


def test_packed_stack_equals_each_sequence_alone():
    rng = np.random.default_rng(22)
    lengths = [4, 1, 6]
    params = make_params(gain=10.0)
    x = rng.standard_normal((sum(lengths), CFG.d_model))
    masks = _ragged_masks(rng, lengths)
    packed = nn.stack(params, "tf", nx.tensor(x), masks, CFG).data
    start = 0
    for n, m in zip(lengths, masks):
        alone = nn.stack(params, "tf", nx.tensor(x[start : start + n]), m, CFG).data
        np.testing.assert_allclose(packed[start : start + n], alone, rtol=0, atol=1e-12)
        start += n
    with pytest.raises(ValueError, match="mask shape"):
        nn.stack(params, "tf", nx.tensor(x), masks[:2], CFG)


def test_local_mix_sees_zero_rows_at_each_sequence_end():
    """Packed, each sequence mixes only its own rows; alone, a row's
    neighbours past either end are zero rows."""
    rng = np.random.default_rng(23)
    params = {}
    nn.init_linear(params, "mix", rng, 3 * CFG.d_model, CFG.d_model, std=0.5)
    lengths = [3, 1, 4]
    x = rng.standard_normal((sum(lengths), CFG.d_model))
    packed = nn.local_mix(params, "mix", nx.tensor(x), lengths).data
    start = 0
    for n in lengths:
        rows = x[start : start + n]
        padded = np.concatenate([np.zeros((1, CFG.d_model)), rows, np.zeros((1, CFG.d_model))])
        wide = np.concatenate([padded[:-2], rows, padded[2:]], axis=1)
        want = nx.gelu(nn.linear(params, "mix", nx.tensor(wide))).data
        np.testing.assert_array_equal(nn.local_mix(params, "mix", nx.tensor(rows)).data, want)
        np.testing.assert_allclose(packed[start : start + n], want, rtol=0, atol=1e-12)
        start += n


def test_cached_steps_with_eviction_match_stack_over_window():
    """Chunks through one cache, evicting as the codec's streaming decode does.

    Chunk A (positions 0..4) attends only to positions > 1; after keeping
    only positions > 1, chunk B (5..7) attends to the cached rows 2..4 plus
    itself. The stack over rows 2..7 under the same block mask must give
    both chunks' outputs.
    """
    rng = np.random.default_rng(7)
    params = make_params(gain=10.0)
    x = rng.standard_normal((8, CFG.d_model))
    cache = nn.StackCache(CFG)
    mask_a = np.tile(np.arange(0, 5) > 1, (5, 1))
    out_a = nn.stack_step(params, "tf", x[:5], np.arange(0, 5), cache, CFG, mask_a)
    cache.keep(cache.positions > 1)
    assert len(cache) == 3
    out_b = nn.stack_step(params, "tf", x[5:], np.arange(5, 8), cache, CFG, np.ones((3, 6), dtype=bool))
    assert len(cache) == 6

    mask = np.ones((6, 6), dtype=bool)
    mask[:3, 3:] = False  # chunk A rows never saw chunk B
    full = nn.stack(params, "tf", nx.tensor(x[2:]), mask, CFG, np.arange(2, 8)).data
    np.testing.assert_allclose(out_a[2:], full[:3], rtol=0, atol=1e-12)
    np.testing.assert_allclose(out_b, full[3:], rtol=0, atol=1e-12)


def test_cache_holds_rotated_keys():
    rng = np.random.default_rng(8)
    params = make_params()
    x = nx.tensor(rng.standard_normal((4, CFG.d_model)))
    cache = nn.StackCache(CFG)
    nn.stack_step(params, "tf", x.data, np.arange(10, 14), cache, CFG, np.ones((4, 4), dtype=bool))
    xin = nn.ln(params, "tf/layer0/ln1", x)
    k = nn.linear(params, "tf/layer0/wk", xin)
    hd = CFG.d_model // CFG.n_heads
    for h in range(CFG.n_heads):
        want = rope(slice_cols(k, h * hd, (h + 1) * hd), np.arange(10, 14), CFG.rope_base).data
        np.testing.assert_array_equal(cache.layers[0].keys[h], want)


def test_causal_streams_in_one_cache_match_stack_per_stream():
    """Two streams share one cache: a causal prefill chunk of both, then one
    row of each per call. Each stream's outputs equal the causal stack over
    that stream alone, and ``keep`` keeps the stream labels aligned."""
    rng = np.random.default_rng(9)
    params = make_params(gain=10.0)
    xs = [rng.standard_normal((6, CFG.d_model)) for _ in range(2)]
    cache = nn.StackCache(CFG)

    def step(x, positions, streams):
        # same stream and position <= own, over the cached entries then the new rows
        mask = (np.concatenate([cache.streams, streams]) == streams[:, None]) & (
            np.concatenate([cache.positions, positions]) <= positions[:, None]
        )
        return nn.stack_step(params, "tf", x, positions, cache, CFG, mask, streams)

    pre = step(np.concatenate([xs[0][:4], xs[1][:4]]), np.tile(np.arange(4), 2), np.repeat([0, 1], 4))
    outs = [[pre[:4]], [pre[4:]]]
    for j in (4, 5):
        o = step(np.stack([xs[0][j], xs[1][j]]), np.array([j, j]), np.array([0, 1]))
        outs[0].append(o[:1])
        outs[1].append(o[1:])
    for x, out in zip(xs, outs):
        full = nn.stack(params, "tf", nx.tensor(x), nn.causal_mask(6), CFG).data
        np.testing.assert_allclose(np.concatenate(out), full, rtol=0, atol=1e-12)
    cache.keep(cache.positions > 3)
    np.testing.assert_array_equal(cache.positions, [4, 4, 5, 5])
    np.testing.assert_array_equal(cache.streams, [0, 1, 0, 1])
    assert cache.layers[0].keys.shape[1] == 4


def test_stack_step_rejects_mask_of_wrong_shape():
    """The mask needs one row per new row and one column per cached entry
    and new row; a wrong one fails before the cache changes."""
    params = make_params()
    cache = nn.StackCache(CFG)
    nn.stack_step(params, "tf", np.ones((2, CFG.d_model)), np.arange(2), cache, CFG, nn.causal_mask(2))
    with pytest.raises(ValueError, match="mask shape"):
        nn.stack_step(params, "tf", np.ones((1, CFG.d_model)), np.array([2]), cache, CFG, np.ones((1, 1), bool))
    assert len(cache) == 2 and cache.layers[0].keys.shape[1] == 2


def test_stack_step_rejects_mask_row_with_no_included_position():
    """A new row that may attend to nothing is the attention kernel's
    ShapeError on the cached path too."""
    params = make_params()
    cache = nn.StackCache(CFG)
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(ShapeError, match="no included positions"):
        nn.stack_step(params, "tf", np.ones((2, CFG.d_model)), np.arange(2), cache, CFG, mask)


def test_float32_model_computes_in_float32_outside_precision_context():
    """A cache takes the dtype of the rows it is given, so float32 weights
    give float32 keys, values and outputs at the float64 default."""
    with nx.precision("float32"):
        params = make_params()
    x = np.random.default_rng(10).standard_normal((3, CFG.d_model)).astype(np.float32)
    cache = nn.StackCache(CFG)
    out = nn.stack_step(params, "tf", x, np.arange(3), cache, CFG, nn.causal_mask(3))
    out = nn.stack_step(params, "tf", out[-1:], np.array([3]), cache, CFG, np.ones((1, 4), dtype=bool))
    assert x.dtype == out.dtype == np.float32
    assert {layer.keys.dtype for layer in cache.layers} == {layer.values.dtype for layer in cache.layers} == {
        np.dtype(np.float32)
    }


@pytest.mark.parametrize(
    "edit, says",
    [
        (lambda p: p.pop("tf/layer1/wq/b"), "missing tf/layer1/wq/b"),
        (lambda p: p.update(extra=nx.zeros((2,))), "unexpected extra"),
        (lambda p: p.update({"tf/ln_out/g": nx.ones((3,))}), "misshaped tf/ln_out/g"),
    ],
    ids=["missing", "unexpected", "misshaped"],
)
def test_check_params_names_the_mismatch(edit, says):
    params = make_params()
    nn.check_params("model.tada", dict(params), lambda: make_params())
    edit(params)
    with pytest.raises(ValidationError, match=f"^model.tada: .*{says}"):
        nn.check_params("model.tada", params, lambda: make_params())


def test_check_params_draws_no_weights():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state

    def init():
        params = {}
        nn.init_stack(params, "tf", rng, CFG)
        return params

    nn.check_params("model.tada", make_params(), init)
    assert rng.bit_generator.state == state
