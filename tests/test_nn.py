"""Transformer blocks: the head-batched attention against the per-head
reference, and the KV-cached step against the full stack."""

import numpy as np
import pytest

from tada import nn
from tada import numerics as nx

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
        qh = nx.rope(nx.slice_cols(q, lo, hi), positions, cfg.rope_base)
        kh = nx.rope(nx.slice_cols(k, lo, hi), positions, cfg.rope_base)
        scores = nx.scale(nx.matmul(qh, nx.transpose2d(kh)), 1.0 / np.sqrt(hd))
        outs.append(nx.matmul(nx.softmax_masked(scores, mask), nx.slice_cols(v, lo, hi)))
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
    np.testing.assert_array_equal(out, ref)
    np.testing.assert_array_equal(gx, ref_gx)
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        np.testing.assert_array_equal(grads[k], ref_grads[k], err_msg=k)


def test_cached_steps_with_eviction_match_stack_over_window():
    """Chunks through one cache, evicting as the codec's streaming decode does.

    Chunk A (positions 0..4) attends only to positions > 1; after evicting
    positions <= 1, chunk B (5..7) attends to the cached rows 2..4 plus
    itself. The stack over rows 2..7 under the same block mask must give
    both chunks' outputs.
    """
    rng = np.random.default_rng(7)
    params = make_params(gain=10.0)
    x = rng.standard_normal((8, CFG.d_model))
    cache = nn.StackCache(CFG)
    out_a = nn.stack_step(params, "tf", nx.tensor(x[:5]), np.arange(0, 5), cache, CFG, attend_from=1)
    cache.evict_upto(1)
    assert len(cache) == 3
    out_b = nn.stack_step(params, "tf", nx.tensor(x[5:]), np.arange(5, 8), cache, CFG, attend_from=1)
    assert len(cache) == 6

    mask = np.ones((6, 6), dtype=bool)
    mask[:3, 3:] = False  # chunk A rows never saw chunk B
    full = nn.stack(params, "tf", nx.tensor(x[2:]), mask, CFG, np.arange(2, 8)).data
    np.testing.assert_allclose(out_a.data[2:], full[:3], rtol=0, atol=1e-12)
    np.testing.assert_allclose(out_b.data, full[3:], rtol=0, atol=1e-12)


def test_cache_holds_rotated_keys():
    rng = np.random.default_rng(8)
    params = make_params()
    x = nx.tensor(rng.standard_normal((4, CFG.d_model)))
    cache = nn.StackCache(CFG)
    nn.stack_step(params, "tf", x, np.arange(10, 14), cache, CFG)
    xin = nn.ln(params, "tf/layer0/ln1", x)
    k = nn.linear(params, "tf/layer0/wk", xin)
    hd = CFG.d_model // CFG.n_heads
    for h in range(CFG.n_heads):
        want = nx.rope(nx.slice_cols(k, h * hd, (h + 1) * hd), np.arange(10, 14), CFG.rope_base).data
        np.testing.assert_array_equal(cache.layers[0].keys[h], want)


def test_causal_streams_in_one_cache_match_stack_per_stream():
    """Two streams share one cache: a causal prefill chunk of both, then one
    row of each per call. Each stream's outputs equal the causal stack over
    that stream alone, and eviction keeps the stream labels aligned."""
    rng = np.random.default_rng(9)
    params = make_params(gain=10.0)
    xs = [rng.standard_normal((6, CFG.d_model)) for _ in range(2)]
    cache = nn.StackCache(CFG)
    pre = nn.stack_step(
        params, "tf", nx.tensor(np.concatenate([xs[0][:4], xs[1][:4]])), np.tile(np.arange(4), 2),
        cache, CFG, streams=np.repeat([0, 1], 4), causal=True,
    ).data
    outs = [[pre[:4]], [pre[4:]]]
    for j in (4, 5):
        o = nn.stack_step(
            params, "tf", nx.tensor(np.stack([xs[0][j], xs[1][j]])), np.array([j, j]),
            cache, CFG, streams=np.array([0, 1]), causal=True,
        ).data
        outs[0].append(o[:1])
        outs[1].append(o[1:])
    for x, out in zip(xs, outs):
        full = nn.stack(params, "tf", nx.tensor(x), nn.causal_mask(6), CFG).data
        np.testing.assert_allclose(np.concatenate(out), full, rtol=0, atol=1e-12)
    cache.evict_upto(3)
    np.testing.assert_array_equal(cache.positions, [4, 4, 5, 5])
    np.testing.assert_array_equal(cache.streams, [0, 1, 0, 1])
    assert cache.layers[0].keys.shape[1] == 4
