"""Transformer blocks: the head-batched attention against the per-head
reference, and the KV-cached step against the full stack."""

import math

import numpy as np
import pytest

from tada import nn
from tada import numerics as nx
from tada.errors import ShapeError, ValidationError
from tada.numerics import finite_difference_check
import reference_ops
from reference_ops import ConcatStackCache, cached_stack_step, rope, slice_cols, softmax_masked, transpose2d

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
        outs.append(nx.matmul(softmax_masked(scores, mask), slice_cols(v, lo, hi)))
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


@pytest.mark.parametrize("packed", [False, True], ids=["one_mask", "packed"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_array_stack_equals_taped_stack_bit_for_bit(dtype, packed):
    """An ndarray ``nn.stack`` is a cached pass on a fresh cache; it equals
    the taped stack to the bit, under one mask and over a packed run of
    lengths [4, 1, 6]."""
    with nx.precision("float32" if dtype == np.float32 else "float64"):
        params = make_params(gain=10.0)
    rng = np.random.default_rng(23)
    lengths = [4, 1, 6]
    x = rng.standard_normal((sum(lengths), CFG.d_model)).astype(dtype)
    mask = _ragged_masks(rng, lengths) if packed else _ragged_masks(rng, [sum(lengths)])[0]
    got = nn.stack(params, "tf", x, mask, CFG)
    want = nn.stack(params, "tf", nx.tensor(x, dtype=dtype), mask, CFG).data
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


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



@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_local_mix_gradients_equal_the_gather_chain_bit_for_bit(dtype, monkeypatch):
    """The one-node neighbour gather gives local_mix the output and every
    gradient of the concat, gather_rows and reshape chain, whose gather
    sums gradients with np.add.at, to the bit."""
    rng = np.random.default_rng(24)
    lengths = [1, 2, 5]
    with nx.precision(dtype):
        params = {}
        nn.init_linear(params, "mix", rng, 3 * CFG.d_model, CFG.d_model, std=0.5)
    x0 = rng.standard_normal((sum(lengths), CFG.d_model))
    c = rng.standard_normal((sum(lengths), CFG.d_model))
    runs = []
    for rows in (nx.neighbour_rows, reference_ops.neighbour_rows):
        monkeypatch.setattr(nx, "neighbour_rows", rows)
        for p in params.values():
            p.zero_grad()
        x = nx.tensor(x0, requires_grad=True, dtype=dtype)
        out = nn.local_mix(params, "mix", x, lengths)
        nx.sum_(nx.mul(out, nx.tensor(c, dtype=dtype))).backward()
        runs.append((out.data, x.grad, {k: p.grad for k, p in params.items()}))
    (out, gx, grads), (ref_out, ref_gx, ref_grads) = runs
    assert gx.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(gx, ref_gx)
    for k in grads:
        np.testing.assert_array_equal(grads[k], ref_grads[k])


@pytest.mark.parametrize("lengths", [[1, 2], [3, 2], [5, -1]])
def test_local_mix_lengths_that_do_not_split_the_rows_raise(lengths):
    params = {}
    nn.init_linear(params, "mix", np.random.default_rng(26), 3 * 4, 4)
    with pytest.raises(ShapeError, match="do not split 4 rows"):
        nn.local_mix(params, "mix", np.zeros((4, 4)), lengths)


def test_local_mix_gradient_matches_finite_differences():
    rng = np.random.default_rng(25)
    params = {}
    nn.init_linear(params, "mix", rng, 3 * 4, 4, std=0.5)
    err = finite_difference_check(
        lambda x: nx.sum_(nx.square(nn.local_mix(params, "mix", x, [1, 2, 5]))), rng.standard_normal((8, 4))
    )
    assert err < 1e-6


@pytest.mark.parametrize(
    "windows",
    [[(0, 0, 3), (0, 3, 5), (3, 5, 8)], [(0, 0, 2), (0, 2, 3), (2, 3, 4), (3, 4, 8)]],
    ids=["wide_blocks", "one_row_blocks"],
)
def test_stack_windows_match_stack_under_the_window_mask(windows):
    """Each block of rows attends every row of its window and no other: the
    outputs equal the taped stack under the (T, T) mask of those windows,
    one-row blocks included."""
    rng = np.random.default_rng(7)
    params = make_params(gain=10.0)
    x = rng.standard_normal((8, CFG.d_model))
    mask = np.zeros((8, 8), dtype=bool)
    for start, lo, hi in windows:
        mask[lo:hi, start:hi] = True
    out = nn.stack_windows(params, "tf", x, windows, CFG)
    full = nn.stack(params, "tf", nx.tensor(x), mask, CFG).data
    np.testing.assert_allclose(out, full, rtol=0, atol=1e-12)


def test_cache_holds_rotated_keys():
    """After a prefill of ten rows, a four-row step caches its keys rotated
    to positions 10 .. 13."""
    rng = np.random.default_rng(8)
    params = make_params()
    x = nx.tensor(rng.standard_normal((4, CFG.d_model)))
    cache = nn.StackCache(CFG)
    nn.stack_step(params, "tf", rng.standard_normal((10, CFG.d_model)), cache, CFG)
    nn.stack_step(params, "tf", x.data, cache, CFG)
    xin = nn.ln(params, "tf/layer0/ln1", x)
    k = nn.linear(params, "tf/layer0/wk", xin)
    hd = CFG.d_model // CFG.n_heads
    for h in range(CFG.n_heads):
        want = rope(slice_cols(k, h * hd, (h + 1) * hd), np.arange(10, 14), CFG.rope_base).data
        np.testing.assert_array_equal(cache.layers[0].keys[h, 10:], want)


def test_causal_streams_in_one_cache_match_stack_per_stream():
    """Two streams share one cache and step in lockstep: a causal prefill
    chunk of both, stream after stream, then one row of each per call.
    Each stream's outputs equal the causal stack over that stream alone,
    and each layer holds the streams' heads one after the other."""
    rng = np.random.default_rng(9)
    params = make_params(gain=10.0)
    xs = [rng.standard_normal((6, CFG.d_model)) for _ in range(2)]
    cache = nn.StackCache(CFG, streams=2)
    pre = nn.stack_step(params, "tf", np.concatenate([xs[0][:4], xs[1][:4]]), cache, CFG)
    outs = [[pre[:4]], [pre[4:]]]
    for j in (4, 5):
        o = nn.stack_step(params, "tf", np.stack([xs[0][j], xs[1][j]]), cache, CFG)
        outs[0].append(o[:1])
        outs[1].append(o[1:])
    for x, out in zip(xs, outs):
        full = nn.stack(params, "tf", nx.tensor(x), nn.causal_mask(6), CFG).data
        np.testing.assert_allclose(np.concatenate(out), full, rtol=0, atol=1e-12)
    assert len(cache) == 6
    assert cache.layers[0].keys.shape == cache.layers[0].values.shape == (2 * CFG.n_heads, 6, CFG.d_model // CFG.n_heads)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stack_step_equals_reference_cached_step_bit_for_bit(dtype):
    """One stream through one cache, past the first capacity of its keys
    and values: a four-row prefill, single rows, a three-row chunk, then
    single rows again. Every output and the cached keys and values equal
    the plainly written cached step's to the bit. Its float64 outputs also
    equal the causal stack to 1e-12."""
    with nx.precision("float32" if dtype == np.float32 else "float64"):
        params = make_params(gain=10.0)
    rng = np.random.default_rng(12)
    n_steps = 24
    xs = rng.standard_normal((n_steps, CFG.d_model)).astype(dtype)
    cache, ref = nn.StackCache(CFG), ConcatStackCache(CFG)
    first_capacity = cache.layers[0].capacity
    outs = []
    for lo, hi in [(0, 4), *((j, j + 1) for j in range(4, 10)), (10, 13), *((j, j + 1) for j in range(13, n_steps))]:
        got = nn.stack_step(params, "tf", xs[lo:hi], cache, CFG)
        want = cached_stack_step(params, "tf", xs[lo:hi], ref, CFG)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        outs.append(got)
    assert cache.layers[0].capacity > first_capacity and len(cache) == n_steps > nn.LayerCache.FIRST_CAPACITY
    for layer, keys, values in zip(cache.layers, ref.keys, ref.values):
        assert layer.keys.tobytes() == np.ascontiguousarray(keys).tobytes()
        assert np.ascontiguousarray(layer.values).tobytes() == values.tobytes()

    if dtype == np.float64:
        full = nn.stack(params, "tf", nx.tensor(xs), nn.causal_mask(n_steps), CFG).data
        np.testing.assert_allclose(np.concatenate(outs), full, rtol=0, atol=1e-12)


def spy_cached_layers(monkeypatch) -> dict[str, list]:
    """Record, per call, the weights of every ``kernels.linear``, the head
    count of every ``kernels.split_heads``, and every attention call, cache
    append and Tensor built."""
    calls: dict[str, list] = {}

    def spy(owner, name, record):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(record(*args))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(nx.kernels, "linear", lambda x, w, b: w)
    spy(nx.kernels, "split_heads", lambda x, n_heads, *rest: n_heads)
    spy(nx.kernels, "attention_heads", lambda *args: None)
    spy(nn.LayerCache, "extend", lambda *args: None)
    spy(nx.Tensor, "__init__", lambda *args: None)
    return calls


def test_cached_layer_runs_one_fused_projection_and_one_rotation(monkeypatch):
    """Per cached layer a step makes one q/k/v product on the concatenated
    ``wq|wk|wv`` columns, one rotation of q and k together as 2H heads, one
    attention call and one cache append; the weights are concatenated once
    per cache."""
    params = make_params()
    calls = spy_cached_layers(monkeypatch)
    cache = nn.StackCache(CFG)
    x = np.random.default_rng(13).standard_normal((3, CFG.d_model))
    d, L = CFG.d_model, CFG.n_layers
    fused = []
    for x_new in (x, x[:1]):
        calls.clear()
        nn.stack_step(params, "tf", x_new, cache, CFG)
        assert [w.shape[1] for w in calls["linear"]] == [3 * d, d, CFG.d_ff, d] * L
        assert calls["split_heads"] == [2 * CFG.n_heads] * L
        assert len(calls["attention_heads"]) == len(calls["extend"]) == L
        fused.append(calls["linear"][::4])
    for i, (first, second) in enumerate(zip(*fused)):
        assert second is first  # concatenated once per cache
        names = [f"tf/layer{i}/{w}/w" for w in ("wq", "wk", "wv")]
        np.testing.assert_array_equal(first, np.concatenate([params[name].data for name in names], axis=1))


def test_array_stack_runs_one_fused_projection_and_one_rotation_per_layer(monkeypatch):
    """An ndarray ``nn.stack`` runs the cached layer: per layer one q/k/v
    product on the ``wq|wk|wv`` columns, one rotation of q and k as 2H
    heads, one attention call and one cache append, under one mask and
    over a packed run. It builds no Tensor."""
    params = make_params()
    calls = spy_cached_layers(monkeypatch)
    x = np.random.default_rng(14).standard_normal((11, CFG.d_model))
    d, L = CFG.d_model, CFG.n_layers
    for mask in (nn.causal_mask(11), [nn.causal_mask(4), nn.full_mask(1), nn.causal_mask(6)]):
        calls.clear()
        nn.stack(params, "tf", x, mask, CFG)
        assert [w.shape[1] for w in calls["linear"]] == [3 * d, d, CFG.d_ff, d] * L
        assert calls["split_heads"] == [2 * CFG.n_heads] * L
        assert len(calls["attention_heads"]) == len(calls["extend"]) == L
        assert "__init__" not in calls


def test_stack_step_rejects_rows_not_split_by_streams():
    """A step takes the same number of new rows for every stream; rows that
    do not split into the cache's streams fail before the cache changes."""
    params = make_params()
    cache = nn.StackCache(CFG, streams=2)
    nn.stack_step(params, "tf", np.ones((4, CFG.d_model)), cache, CFG)
    for n_rows in (3, 0):
        with pytest.raises(ValueError, match="do not split into 2 streams"):
            nn.stack_step(params, "tf", np.ones((n_rows, CFG.d_model)), cache, CFG)
    assert len(cache) == 2 and cache.layers[0].keys.shape[1] == 2


def test_one_row_steps_attend_with_no_mask(monkeypatch):
    """A step of one row per stream passes no mask to the attention kernel,
    as its row attends every entry; a longer step passes one causal mask
    over the cached entries and the new rows, shared by every stream."""
    params = make_params()
    seen = []
    real = nx.kernels.attention_heads

    def attention_heads(q, kt, v, mask=None):
        seen.append((q.shape[0], mask))
        return real(q, kt, v, mask)

    monkeypatch.setattr(nx.kernels, "attention_heads", attention_heads)
    cache = nn.StackCache(CFG, streams=3)
    x = np.random.default_rng(15).standard_normal((6, CFG.d_model))
    for rows in (x, x[:3], x[:3], x):  # 2, 1, 1 and 2 rows per stream
        seen.clear()
        nn.stack_step(params, "tf", rows, cache, CFG)
        assert [heads for heads, _ in seen] == [3 * CFG.n_heads] * CFG.n_layers
        if len(rows) == 3:
            assert all(mask is None for _, mask in seen)
        else:
            n = len(cache) - 2
            want = np.arange(n + 2) <= np.arange(n, n + 2)[:, None]
            for _, mask in seen:
                np.testing.assert_array_equal(mask, want)


def test_float32_model_computes_in_float32_outside_precision_context():
    """A cache takes the dtype of the rows it is given, so float32 weights
    give float32 keys, values and outputs at the float64 default."""
    with nx.precision("float32"):
        params = make_params()
    x = np.random.default_rng(10).standard_normal((3, CFG.d_model)).astype(np.float32)
    cache = nn.StackCache(CFG)
    out = nn.stack_step(params, "tf", x, cache, CFG)
    out = nn.stack_step(params, "tf", out[-1:], cache, CFG)
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
