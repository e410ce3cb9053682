"""Engine primitives: forward semantics, gradients, tape, checkpoint format."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tada import numerics as nx
from tada.errors import ShapeError, ValidationError
from tada.numerics import Tensor, finite_difference_check
import reference_ops
from reference_ops import rope, slice_cols, softmax_masked, transpose2d


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5))
    out = nx.matmul(nx.tensor(np.eye(3)), nx.tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_softmax_symmetric_pair():
    out = softmax_masked(nx.tensor([[0.0, 0.0]]), np.array([[True, True]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_masked_softmax_exclusion_semantics():
    out = softmax_masked(nx.tensor([[5.0, 100.0]]), np.array([[True, False]]))
    np.testing.assert_array_equal(out.data, [[1.0, 0.0]])


def test_masked_softmax_bit_identical_under_excluded_perturbation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 6))
    mask = rng.random((4, 6)) < 0.6
    mask[:, 0] = True  # keep every row non-empty
    base = softmax_masked(nx.tensor(x.copy()), mask).data
    x2 = x.copy()
    x2[~mask] = rng.standard_normal((~mask).sum()) * 1e6
    pert = softmax_masked(nx.tensor(x2), mask).data
    np.testing.assert_array_equal(base, pert)
    # · and the effect persists through a downstream matmul bit-for-bit
    v = rng.standard_normal((6, 3))
    np.testing.assert_array_equal(base @ v, pert @ v)


def test_masked_softmax_empty_row_raises():
    with pytest.raises(ShapeError):
        softmax_masked(nx.tensor([[1.0, 2.0]]), np.array([[False, False]]))


def test_backward_sum_gives_ones():
    x = nx.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    nx.sum_(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_at_three():
    x = nx.tensor([3.0], requires_grad=True)
    nx.sum_(nx.mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_requires_scalar():
    x = nx.tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        nx.mul(x, x).backward()


def test_finite_difference_check_reports_a_nan_gradient():
    """A NaN analytic gradient gives a NaN error, which fails any tolerance."""

    def fn(x):
        def backward(g):
            x.grad = np.full_like(x.data, np.nan)

        return nx.custom_op("nan_grad", np.asarray(x.data.sum()), (x,), backward)

    assert np.isnan(finite_difference_check(fn, np.ones(3)))


def test_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(2)
    w1 = nx.tensor(rng.standard_normal((4, 5)))
    w2 = nx.tensor(rng.standard_normal((5, 3)))

    def f(x):
        return nx.mean_(nx.square(nx.matmul(nx.gelu(nx.matmul(x, w1)), w2)))

    err = finite_difference_check(f, rng.uniform(-1, 1, (2, 4)))
    assert err < 1e-3


def _const(rng, shape, offset=0.0):
    return nx.tensor(rng.standard_normal(shape) + offset)


def _case_add(rng):
    c = _const(rng, (3, 4))
    return lambda x: nx.sum_(nx.add(x, c)), (3, 4)


def _case_add_batch_expand(rng):
    c = _const(rng, 4)
    return lambda x: nx.sum_(nx.square(nx.add(x, c))), (3, 4)


def _case_sub(rng):
    c = _const(rng, (3, 4))
    return lambda x: nx.sum_(nx.square(nx.sub(x, c))), (3, 4)


def _case_mul(rng):
    c = _const(rng, (3, 4))
    return lambda x: nx.sum_(nx.mul(x, c)), (3, 4)


def _case_scale(rng):
    return lambda x: nx.sum_(nx.scale(x, -1.7)), (2, 3)


def _case_matmul_left(rng):
    c = _const(rng, (4, 2))
    return lambda x: nx.sum_(nx.square(nx.matmul(x, c))), (3, 4)


def _case_matmul_right(rng):
    c = _const(rng, (2, 3))
    return lambda x: nx.sum_(nx.matmul(c, x)), (3, 4)


def _case_linear_x(rng):
    w, b = _const(rng, (4, 2)), _const(rng, (2,))
    return lambda x: nx.sum_(nx.square(nx.linear(x, w, b))), (3, 4)


def _case_linear_w(rng):
    x, b = _const(rng, (3, 4)), _const(rng, (2,))
    return lambda w: nx.sum_(nx.square(nx.linear(x, w, b))), (4, 2)


def _case_linear_b(rng):
    x, w = _const(rng, (3, 4)), _const(rng, (4, 2))
    return lambda b: nx.sum_(nx.square(nx.linear(x, w, b))), (2,)


def _case_log(rng):
    c = nx.tensor(np.full((3, 3), 1.5))
    return lambda x: nx.sum_(nx.log(nx.add(nx.square(x), c))), (3, 3)


def _case_sqrt(rng):
    c = nx.tensor(np.full((3, 3), 1.0))
    return lambda x: nx.sum_(nx.sqrt(nx.add(nx.square(x), c))), (3, 3)


def _case_square(rng):
    return lambda x: nx.sum_(nx.square(x)), (3, 3)


def _case_reciprocal(rng):
    c = nx.tensor(np.full((2, 3), 2.0))
    return lambda x: nx.sum_(nx.reciprocal(nx.add(nx.square(x), c))), (2, 3)


def _case_gelu(rng):
    return lambda x: nx.sum_(nx.gelu(x)), (3, 3)


def _case_maximum_const(rng):
    return lambda x: nx.sum_(nx.maximum_const(x, 0.25)), (4, 4)


def _case_mean(rng):
    return lambda x: nx.square(nx.mean_(x)), (3, 5)


def _case_sum_axis(rng):
    return lambda x: nx.sum_(nx.square(nx.sum_(x, axis=0))), (3, 5)


def _case_layer_norm(rng):
    gain, bias = nx.tensor(np.linspace(0.5, 1.5, 6)), nx.tensor(np.linspace(-0.1, 0.1, 6))
    return lambda x: nx.sum_(nx.square(nx.layer_norm(x, gain, bias))), (4, 6)


def _case_softmax_masked(rng):
    mask = np.tril(np.ones((4, 4), bool))
    return lambda x: nx.sum_(nx.square(softmax_masked(x, mask))), (4, 4)


def _case_log_softmax(rng):
    c = _const(rng, (3, 5))
    return lambda x: nx.sum_(nx.mul(nx.log_softmax(x), c)), (3, 5)


def _case_log_softmax_masked(rng):
    mask = np.tile([True, True, False, True, True], (3, 1))
    c = nx.tensor(rng.standard_normal((3, 5)) * mask)
    return lambda x: nx.sum_(nx.mul(nx.log_softmax(x, mask=mask), c)), (3, 5)


def _case_rope(rng):
    pos = np.arange(3)
    return lambda x: nx.sum_(nx.square(rope(x, pos))), (3, 6)


def _case_split_heads(rng):
    return lambda x: nx.sum_(nx.square(nx.split_heads(x, 2))), (3, 8)


def _case_split_heads_rotary(rng):
    pos = np.array([0, 3, 4])
    c = nx.tensor(rng.standard_normal((2, 3, 4)))
    return lambda x: nx.sum_(nx.mul(nx.split_heads(x, 2, pos), c)), (3, 8)


def _attention_case(rng, slot):
    """Attention core with operand ``slot`` (0 = q, 1 = k, 2 = v) as input."""
    mask = rng.random((3, 4)) < 0.6
    mask[:, 1] = True
    ops = [nx.tensor(rng.standard_normal((2, n, 4))) for n in (3, 4, 4)]
    c = nx.tensor(rng.standard_normal((3, 8)))

    def f(x):
        args = list(ops)
        args[slot] = x
        return nx.sum_(nx.mul(nx.attention_heads(*args, mask), c))

    return f, ops[slot].shape


def _case_attention_heads_q(rng):
    return _attention_case(rng, 0)


def _case_attention_heads_k(rng):
    return _attention_case(rng, 1)


def _case_attention_heads_v(rng):
    return _attention_case(rng, 2)


def _packed_attention_case(rng, slot):
    """Attention over a packed run of sequences of ragged lengths (one of
    them a single row) with operand ``slot`` as input."""
    lengths = (3, 1, 2)
    masks = []
    for n in lengths:
        m = rng.random((n, n)) < 0.6
        m[:, 0] = True
        masks.append(m)
    ops = [nx.tensor(rng.standard_normal((2, sum(lengths), 4))) for _ in range(3)]
    c = nx.tensor(rng.standard_normal((sum(lengths), 8)))

    def f(x):
        args = list(ops)
        args[slot] = x
        return nx.sum_(nx.mul(nx.attention_heads(*args, masks), c))

    return f, ops[slot].shape


def _case_attention_heads_packed_q(rng):
    return _packed_attention_case(rng, 0)


def _case_attention_heads_packed_k(rng):
    return _packed_attention_case(rng, 1)


def _case_attention_heads_packed_v(rng):
    return _packed_attention_case(rng, 2)


def _case_cross_entropy_weighted(rng):
    tgt = np.array([1, 0, 3])
    weights = np.array([0.5, 0.25, 0.125])
    return lambda x: nx.cross_entropy(x, tgt, weights), (3, 4)


def _case_l1_loss_weighted(rng):
    c = _const(rng, (3, 4), offset=3.0)
    weights = np.array([0.5, 0.25, 0.125])
    return lambda x: nx.l1_loss(x, c, weights), (3, 4)


def _case_gather_rows(rng):
    idx = np.array([2, 0, 2])
    return lambda x: nx.sum_(nx.square(nx.gather_rows(x, idx))), (4, 3)


def _case_neighbour_rows(rng):
    c = _const(rng, (8, 9))
    return lambda x: nx.sum_(nx.mul(nx.neighbour_rows(x, [1, 2, 5]), c)), (8, 3)


def _case_scatter_rows(rng):
    idx = np.array([3, 1])
    return lambda x: nx.sum_(nx.square(nx.scatter_rows(x, idx, 5))), (2, 3)


def _case_concat(rng):
    c = _const(rng, (2, 3))
    return lambda x: nx.sum_(nx.square(nx.concat([x, c], axis=0))), (2, 3)


def _case_reshape(rng):
    return lambda x: nx.sum_(nx.square(nx.reshape(x, (6,)))), (2, 3)


def _case_slice_cols(rng):
    return lambda x: nx.sum_(nx.square(slice_cols(x, 1, 3))), (3, 4)


def _case_transpose2d(rng):
    c = _const(rng, (3, 2))
    return lambda x: nx.sum_(nx.matmul(transpose2d(x), c)), (3, 4)


def _case_cross_entropy(rng):
    tgt = np.array([1, 0, 3])
    return lambda x: nx.cross_entropy(x, tgt), (3, 4)


def _case_kl_categorical_q(rng):
    c = _const(rng, (3, 4))
    return lambda x: nx.kl_categorical(c, x), (3, 4)


def _case_kl_categorical_p(rng):
    c = _const(rng, (3, 4))
    return lambda x: nx.kl_categorical(x, c), (3, 4)


def _case_l1_loss(rng):
    c = _const(rng, (3, 4), offset=3.0)
    return lambda x: nx.l1_loss(x, c), (3, 4)


PRIMITIVE_CASES = {
    name[len("_case_"):]: fn
    for name, fn in sorted(globals().items())
    if name.startswith("_case_")
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        fn, shape = PRIMITIVE_CASES[name](rng)
        point = rng.uniform(-1.0, 1.0, shape)
        worst = max(worst, finite_difference_check(fn, point))
    assert worst < 1e-3, f"{name}: max rel err {worst}"


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_keeps_float32(name):
    """Given float32 inputs, every node of the graph and every gradient the
    backward pass writes is float32, whatever the ambient precision."""
    rng = np.random.default_rng(7)
    with nx.precision("float32"):
        fn, shape = PRIMITIVE_CASES[name](rng)
    x = nx.tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True, dtype=np.float32)
    tape = fn(x).backward()
    assert {n.data.dtype for n in tape.nodes} == {np.dtype(np.float32)}
    assert {n.grad.dtype for n in tape.nodes if n.grad is not None} == {np.dtype(np.float32)}
    assert x.grad is not None


def test_numpy_scalar_constants_keep_float32():
    """NumPy float64 scalars and 0-d arrays as constants do not promote."""
    x = nx.tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True, dtype=np.float32)
    y = nx.maximum_const(nx.scale(x, np.float64(0.5)), np.float64(-0.2))
    loss = nx.sum_(y * np.float64(2.0) + np.float64(1.0) - np.asarray(0.5) + x * np.asarray(3.0))
    loss.backward()
    assert loss.dtype == x.grad.dtype == np.float32


def test_tape_visits_each_node_once():
    x = nx.tensor([2.0], requires_grad=True)
    y = nx.add(x, x)
    z = nx.sum_(nx.mul(y, y))  # diamond: y feeds mul twice
    tape = z.backward()
    recorded = sum(1 for node in tape.nodes if node._backward is not None)
    assert tape.visits == recorded
    np.testing.assert_allclose(x.grad, [16.0])  # d/dx (2x)^2 = 8x


def test_gelu_matches_pow_formula():
    x = np.random.default_rng(4).uniform(-6.0, 6.0, (64, 32))
    c = np.sqrt(2.0 / np.pi)
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
    np.testing.assert_allclose(nx.gelu(nx.tensor(x)).data, ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bit_identical_to_plain_formula(dtype):
    x = np.random.default_rng(5).uniform(-8.0, 8.0, (64, 32)).astype(dtype)
    x[0, :4] = [0.0, -0.0, 1e4, -1e4]
    c = dtype(np.sqrt(2.0 / np.pi))
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))
    out = nx.gelu(nx.tensor(x, dtype=dtype)).data
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_bit_identical_to_matmul_add(dtype):
    rng = np.random.default_rng(6)
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in ((7, 5), (5, 3), (3,))]
    g = rng.standard_normal((7, 3)).astype(dtype)
    results = []
    for fused in (True, False):
        with nx.precision(dtype):
            x, w, b = (nx.tensor(a, requires_grad=True) for a in arrays)
            y = nx.linear(x, w, b) if fused else nx.add(nx.matmul(x, w), b)
            nx.sum_(nx.mul(y, nx.tensor(g))).backward()
        assert y.op == ("linear" if fused else "add")
        results.append([y.data, x.grad, w.grad, b.grad])
    for a, b_ in zip(*results):
        assert a.dtype == b_.dtype == dtype
        np.testing.assert_array_equal(a, b_)


def test_linear_checks_shapes():
    x, w = nx.zeros((3, 4)), nx.zeros((4, 2))
    with pytest.raises(ShapeError, match="linear"):
        nx.linear(x, w, nx.zeros((3,)))
    with pytest.raises(ShapeError, match="linear"):
        nx.linear(x, nx.zeros((3, 2)), nx.zeros((2,)))


def _layer_norm_mean_reference(x, gain, bias, g, eps=1e-5):
    """layer_norm forward and gradients written with ndarray.mean."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain + bias
    gx = g * gain
    gxhat_sum = gx.sum(axis=-1, keepdims=True)
    gxhat_dot = (gx * xhat).sum(axis=-1, keepdims=True)
    dx = inv * (gx - gxhat_sum / d - xhat * gxhat_dot / d)
    return out, dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 48), (3, 5, 64)])
def test_layer_norm_bit_identical_to_mean_formula(dtype, shape):
    rng = np.random.default_rng(5)
    d = shape[-1]
    x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
    gain = rng.uniform(0.5, 1.5, d).astype(dtype)
    bias = rng.uniform(-0.2, 0.2, d).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    xt = Tensor(x.copy(), requires_grad=True)
    gt = Tensor(gain.copy(), requires_grad=True)
    bt = Tensor(bias.copy(), requires_grad=True)
    out = nx.layer_norm(xt, gt, bt)
    nx.sum_(nx.mul(out, Tensor(g))).backward()
    ref_out, ref_dx, ref_dgain, ref_dbias = _layer_norm_mean_reference(x, gain, bias, g)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.data, ref_out)
    np.testing.assert_array_equal(xt.grad, ref_dx)
    np.testing.assert_array_equal(gt.grad, ref_dgain)
    np.testing.assert_array_equal(bt.grad, ref_dbias)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 2, 278])
def test_layer_norm_kernel_equals_plain_formula(dtype, rows):
    """The kernel's in-place steps give the plain formula's bits, for one
    row, two rows and many."""
    rng = np.random.default_rng(6)
    x = (rng.standard_normal((rows, 128)) * 3.0 + 1.5).astype(dtype)
    gain = rng.uniform(0.5, 1.5, 128).astype(dtype)
    bias = rng.uniform(-0.2, 0.2, 128).astype(dtype)
    out, xhat, inv = nx.kernels.layer_norm(x, gain, bias)
    assert out.dtype == xhat.dtype == inv.dtype == dtype
    np.testing.assert_array_equal(out, reference_ops.layer_norm(x, gain, bias))
    np.testing.assert_array_equal(out, xhat * gain + bias)


def test_rope_preserves_pairwise_norms():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 8))
    out = rope(nx.tensor(x), np.arange(5) + 7).data
    for i in range(4):
        np.testing.assert_allclose(
            np.hypot(out[:, 2 * i], out[:, 2 * i + 1]),
            np.hypot(x[:, 2 * i], x[:, 2 * i + 1]),
            rtol=1e-12,
        )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_four_op_rotation_equals_reference_rope_bit_for_bit(dtype):
    """split_heads rotates as x * cos2 + swapped(x) * sin2; head by head it
    equals the pairwise reference rope to the bit, and so does its
    backward, the inverse turn."""
    rng = np.random.default_rng(15)
    H, hd, T = 3, 8, 7
    x = rng.standard_normal((T, H * hd)).astype(dtype)
    g = rng.standard_normal((H, T, hd)).astype(dtype)
    positions = rng.integers(0, 200, size=T)
    xt, ref_xt = nx.tensor(x, requires_grad=True, dtype=dtype), nx.tensor(x, requires_grad=True, dtype=dtype)
    out = nx.split_heads(xt, H, positions, 500.0)
    assert out.data.tobytes() == nx.kernels.split_heads(x, H, positions, 500.0)[0].tobytes()
    nx.sum_(nx.mul(out, nx.tensor(g, dtype=dtype))).backward()
    loss = None
    for h in range(H):
        ref = rope(slice_cols(ref_xt, h * hd, (h + 1) * hd), positions, 500.0)
        assert out.data[h].tobytes() == ref.data.tobytes(), h
        term = nx.sum_(nx.mul(ref, nx.tensor(g[h], dtype=dtype)))
        loss = term if loss is None else loss + term
    loss.backward()
    assert xt.grad.dtype == ref_xt.grad.dtype == dtype
    np.testing.assert_array_equal(xt.grad, ref_xt.grad)


@pytest.mark.parametrize("inverse", [False, True], ids=["turn", "inverse"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rotate_pairs_equals_fancy_index_swap_bit_for_bit(dtype, inverse):
    """The strided-slice pair swap gives the fancy-indexed gather's turn to
    the bit, on contiguous rows and on the transposed (H, T, hd) view that
    split_heads rotates, for the turn and for its inverse (-sin2)."""
    rng = np.random.default_rng(16)
    H, T, hd = 4, 37, 16
    cos2, sin2 = nx.kernels._rope_angles(hd, rng.integers(0, 300, size=T), 10000.0, dtype)
    if inverse:
        sin2 = -sin2
    flat = rng.standard_normal((T, H * hd)).astype(dtype)
    view = flat.reshape(T, H, hd).transpose(1, 0, 2)
    for x in (view, np.ascontiguousarray(view), flat[:, :hd]):
        got, want = nx.kernels.rotate_pairs(x, cos2, sin2), reference_ops.rotate_pairs(x, cos2, sin2)
        assert got.dtype == dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rope_table_rows_equal_direct_angles(dtype):
    """Rows gathered from the grown per-width table equal cos/sin computed
    for the positions alone, laid out at full width: each pair's cosine
    twice, and its sine negated then plain."""
    from tada.numerics.kernels import _rope_angles

    rng = np.random.default_rng(4)
    for d, base in ((8, 10000.0), (16, 500.0)):
        freqs = base ** (-np.arange(d // 2, dtype=np.float64) * 2.0 / d)
        cases = (
            np.arange(5), np.array([3, 0, 1, 2, 0, 1]), rng.integers(0, 300, size=40), np.array([1000]),
            np.array([3, 0], dtype=np.int32), np.array([3]),  # the same bytes as different positions
        )
        for positions in cases:
            ang = positions.astype(np.float64)[:, None] * freqs[None, :]
            cos2, sin2 = _rope_angles(d, positions, base, np.dtype(dtype))
            assert cos2.dtype == sin2.dtype == dtype
            assert cos2.shape == sin2.shape == (positions.size, d)
            np.testing.assert_array_equal(cos2[:, 0::2], np.cos(ang).astype(dtype))
            np.testing.assert_array_equal(cos2[:, 1::2], np.cos(ang).astype(dtype))
            np.testing.assert_array_equal(sin2[:, 0::2], -np.sin(ang).astype(dtype))
            np.testing.assert_array_equal(sin2[:, 1::2], np.sin(ang).astype(dtype))
    with pytest.raises(ShapeError):
        _rope_angles(8, np.array([2, -1]), 10000.0, np.dtype(dtype))


def test_attention_heads_bit_identical_under_excluded_perturbation():
    rng = np.random.default_rng(6)
    H, Tq, Tk, hd = 3, 5, 7, 4
    q = rng.standard_normal((H, Tq, hd))
    k = rng.standard_normal((H, Tk, hd))
    v = rng.standard_normal((H, Tk, hd))
    mask = rng.random((Tq, Tk)) < 0.5
    mask[:, 0] = True
    mask[:, [2, 5]] = False  # keys 2 and 5 are excluded for every query
    base = nx.attention_heads(nx.tensor(q), nx.tensor(k), nx.tensor(v), mask).data
    k2, v2 = k.copy(), v.copy()
    k2[:, [2, 5]] = rng.standard_normal((H, 2, hd)) * 1e6
    v2[:, [2, 5]] = rng.standard_normal((H, 2, hd)) * 1e6
    pert = nx.attention_heads(nx.tensor(q), nx.tensor(k2), nx.tensor(v2), mask).data
    np.testing.assert_array_equal(base, pert)
    # · and per query row: keys excluded for that row only are equally invisible
    row = 1
    k3 = k.copy()
    k3[:, ~mask[row]] += 1e6
    pert_row = nx.attention_heads(nx.tensor(q), nx.tensor(k3), nx.tensor(v), mask).data
    np.testing.assert_array_equal(base[row], pert_row[row])


def test_attention_heads_checks():
    q = nx.tensor(np.zeros((2, 3, 4)))
    kv = nx.tensor(np.zeros((2, 5, 4)))
    with pytest.raises(ShapeError, match="no included positions"):
        nx.attention_heads(q, kv, kv, np.array([[True] * 5, [False] * 5, [True] * 5]))
    with pytest.raises(ShapeError, match="mask shape"):
        nx.attention_heads(q, kv, kv, np.ones((3, 4), bool))
    with pytest.raises(ShapeError):
        nx.attention_heads(q, nx.tensor(np.zeros((2, 5, 6))), kv, np.ones((3, 5), bool))
    with pytest.raises(ShapeError):
        nx.split_heads(nx.tensor(np.zeros((3, 8))), 3)
    with pytest.raises(ShapeError):
        nx.split_heads(nx.tensor(np.zeros((3, 6))), 2, np.arange(3))  # odd head width


def _packed_qkv(rng, lengths, H=2, hd=4):
    T = sum(lengths)
    return [rng.standard_normal((H, T, hd)) for _ in range(3)]


def _ragged_masks(rng, lengths):
    masks = []
    for n in lengths:
        m = rng.random((n, n)) < 0.5
        m[np.arange(n), np.arange(n)] = True
        masks.append(m)
    return masks


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_packed_attention_equals_each_sequence_alone(dtype):
    """Each sequence of a packed run gets exactly its own attention, and
    the gradients of every operand are its own sequences' gradients."""
    rng = np.random.default_rng(11)
    lengths = [4, 1, 6, 2]
    arrays = [a.astype(dtype) for a in _packed_qkv(rng, lengths)]
    masks = _ragged_masks(rng, lengths)
    g = rng.standard_normal((sum(lengths), 8)).astype(dtype)
    packed = [nx.tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
    out = nx.attention_heads(*packed, masks)
    nx.sum_(nx.mul(out, nx.tensor(g, dtype=dtype))).backward()
    assert out.dtype == dtype and all(t.grad.dtype == dtype for t in packed)
    start = 0
    for n, m in zip(lengths, masks):
        rows = slice(start, start + n)
        alone = [nx.tensor(a[:, rows], requires_grad=True, dtype=dtype) for a in arrays]
        ref = nx.attention_heads(*alone, m)
        nx.sum_(nx.mul(ref, nx.tensor(g[rows], dtype=dtype))).backward()
        np.testing.assert_array_equal(out.data[rows], ref.data)
        for t, a in zip(packed, alone):
            np.testing.assert_array_equal(t.grad[:, rows], a.grad)
        start += n


def test_packed_attention_of_one_sequence_is_the_single_mask():
    rng = np.random.default_rng(12)
    q, k, v = (nx.tensor(a) for a in _packed_qkv(rng, [5]))
    (mask,) = _ragged_masks(rng, [5])
    np.testing.assert_array_equal(nx.attention_heads(q, k, v, [mask]).data, nx.attention_heads(q, k, v, mask).data)


def test_packed_attention_isolates_sequences():
    """Another sequence's queries, keys and values, however large, leave a
    sequence's rows bit-identical."""
    rng = np.random.default_rng(13)
    lengths = [3, 5, 2]
    q, k, v = _packed_qkv(rng, lengths)
    masks = _ragged_masks(rng, lengths)
    base = nx.attention_heads(nx.tensor(q), nx.tensor(k), nx.tensor(v), masks).data
    own = slice(3, 8)
    others = np.ones(sum(lengths), dtype=bool)
    others[own] = False
    q2, k2, v2 = (a.copy() for a in (q, k, v))
    for a in (q2, k2, v2):
        a[:, others] = rng.standard_normal(a[:, others].shape) * 1e6
    pert = nx.attention_heads(nx.tensor(q2), nx.tensor(k2), nx.tensor(v2), masks).data
    np.testing.assert_array_equal(base[own], pert[own])
    assert not np.array_equal(base[others], pert[others])


def test_packed_attention_checks():
    q = nx.tensor(np.zeros((2, 5, 4)))
    with pytest.raises(ShapeError, match="mask shape"):
        nx.attention_heads(q, q, q, [np.ones((2, 2), bool), np.ones((2, 2), bool)])
    with pytest.raises(ShapeError, match="no included positions"):
        nx.attention_heads(q, q, q, [np.ones((2, 2), bool), np.eye(3, dtype=bool) & False])


def test_shape_error_names_primitive_and_extents():
    with pytest.raises(ShapeError) as exc:
        nx.matmul(nx.tensor(np.zeros((2, 3))), nx.tensor(np.zeros((4, 2))))
    assert "matmul" in str(exc.value)
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)
    with pytest.raises(ShapeError):
        nx.add(nx.tensor(np.zeros((2, 3))), nx.tensor(np.zeros((3, 2))))


def test_forward_deterministic():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4))
    a = nx.gelu(nx.tensor(x)).data
    b = nx.gelu(nx.tensor(x)).data
    np.testing.assert_array_equal(a, b)


def test_no_grad_blocks_recording():
    x = nx.tensor([1.0], requires_grad=True)
    with nx.no_grad():
        y = nx.mul(x, x)
    assert not y.requires_grad and y.parents == ()


def test_precision_context():
    assert nx.tensor([1.0]).dtype == np.float64
    with nx.precision("float32"):
        assert nx.tensor([1.0]).dtype == np.float32
    assert nx.tensor([1.0]).dtype == np.float64


def test_scatter_rows_rejects_duplicates():
    with pytest.raises(ValidationError):
        nx.scatter_rows(nx.tensor(np.zeros((2, 3))), np.array([1, 1]), 4)


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {
            "enc/w": rng.standard_normal((3, 4)).astype(np.float32),
            "scalar": np.array([2.5], dtype=np.float32),
        }
        path = tmp_path / "ck.tada"
        nx.save_arrays(path, arrays)
        loaded = nx.load_arrays(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_binary_layout(self, tmp_path):
        path = tmp_path / "ck.tada"
        nx.save_arrays(path, {"ab": np.arange(6, dtype=np.float32).reshape(2, 3)})
        raw = path.read_bytes()
        assert raw[:5] == b"TADA1"
        version, count = struct.unpack_from("<QQ", raw, 5)
        assert version == 1 and count == 1
        (name_len,) = struct.unpack_from("<Q", raw, 21)
        assert name_len == 2 and raw[29:31] == b"ab"
        rank, d0, d1 = struct.unpack_from("<QQQ", raw, 31)
        assert (rank, d0, d1) == (2, 2, 3)
        payload = np.frombuffer(raw[55:], dtype="<f4")
        np.testing.assert_array_equal(payload, np.arange(6, dtype=np.float32))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tada"
        path.write_bytes(b"NOPE!" + b"\0" * 16)
        with pytest.raises(ValidationError):
            nx.load_arrays(path)


def _valid_checkpoint(tmp_path):
    path = tmp_path / "ck.tada"
    nx.save_arrays(path, {
        "enc/w": np.arange(12, dtype=np.float32).reshape(3, 4),
        "scalar": np.array([2.5], dtype=np.float32),
        "rank0": np.float32(1.0),
    })
    return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_checkpoint_raises_validation_error(tmp_path_factory, data):
    raw = _valid_checkpoint(tmp_path_factory.mktemp("ck"))
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = tmp_path_factory.mktemp("cut") / "cut.tada"
    path.write_bytes(raw[:cut])
    with pytest.raises(ValidationError, match="cut.tada"):
        nx.load_arrays(path)


@pytest.mark.parametrize(
    "arrays, offset, value, says",
    [
        ({"ab": np.zeros((2, 3))}, 21, 2**63, "truncated file"),  # name_len
        ({"ab": np.zeros((2, 3))}, 31, 2**61, "truncated file"),  # rank
        ({"ab": np.zeros((2, 3))}, 39, 2**62, "truncated file"),  # first extent
        ({"ab": np.zeros((0, 3))}, 47, 2**62, "cannot have shape"),  # an empty array's second extent
    ],
    ids=["name_len", "rank", "extent", "empty-extent"],
)
def test_length_field_past_the_end_rejected(tmp_path, arrays, offset, value, says):
    """A length field is checked against the bytes left before anything is
    read or allocated; none is read as a size."""
    path = tmp_path / "ck.tada"
    nx.save_arrays(path, arrays)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match=f"ck.tada: .*{says}"):
        nx.load_arrays(path)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_matches_textbook_formula(dtype):
    """Five steps equal the textbook update bit for bit; a parameter
    without a gradient keeps its weights and moments, and the arrays a
    caller handed in are never written through."""
    rng = np.random.default_rng(8)
    w0 = rng.standard_normal((3, 4)).astype(dtype)
    frozen0 = rng.standard_normal(5).astype(dtype)
    params = {"w": Tensor(w0.copy(), requires_grad=True), "frozen": Tensor(frozen0, requires_grad=True)}
    handed_in = params["w"].data
    opt = nx.Adam(params, lr=1e-2)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
    w, m, v = w0.copy(), np.zeros_like(w0), np.zeros_like(w0)
    for t in range(1, 6):
        g = rng.standard_normal(w0.shape).astype(dtype)
        params["w"].grad = g
        params["frozen"].grad = None
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        w = w - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert params["w"].data.dtype == dtype
        np.testing.assert_array_equal(params["w"].data, w)
        np.testing.assert_array_equal(opt.m["w"], m)
        np.testing.assert_array_equal(opt.v["w"], v)
    np.testing.assert_array_equal(handed_in, w0)
    assert params["frozen"].data is frozen0
    assert not opt.m["frozen"].any() and not opt.v["frozen"].any()


def test_first_gradient_is_kept_not_copied():
    """A leaf's first gradient is the array its node handed down; a second
    contribution makes a new sum and leaves that array as it was."""
    x = nx.tensor(np.ones((2, 3)), requires_grad=True)
    y = nx.add(x, nx.tensor(np.zeros((2, 3))))
    loss = nx.sum_(nx.mul(y, nx.tensor(np.full((2, 3), 2.0))))
    tape = loss.backward()
    first = next(n for n in tape.nodes if n.op == "add").grad
    assert x.grad is first
    z = nx.tensor(np.ones(3), requires_grad=True)
    nx.sum_(nx.add(nx.mul(z, nx.tensor(np.full(3, 2.0))), z)).backward()
    np.testing.assert_array_equal(z.grad, np.full(3, 3.0))


def test_fit_is_the_textbook_minibatch_adam_loop(capsys):
    """Each step draws min(batch_size, n_items) indices from the caller's
    rng and hands them to loss_fn; the weights equal a hand-written Adam
    loop over the same draws, and the report prints every log_every steps."""
    target = nx.tensor(np.arange(5.0))

    def loss_of(w, idx):
        counts = nx.tensor(np.bincount(idx, minlength=5).astype(np.float64))
        return nx.sum_(nx.mul(nx.square(nx.sub(w, target)), counts))

    seen = []
    w = nx.tensor(np.zeros(5), requires_grad=True)

    def loss_fn(step, idx):
        seen.append((step, idx))
        loss = loss_of(w, idx)
        return loss, {"loss": float(loss.data)}

    rng = np.random.default_rng(3)
    nx.fit("toy", {"w": w}, loss_fn, n_items=5, steps=5, batch_size=8, lr=0.1, rng=rng, log_every=2)
    ref = nx.tensor(np.zeros(5), requires_grad=True)
    opt = nx.Adam({"w": ref}, lr=0.1)
    rng = np.random.default_rng(3)
    for step in range(5):
        idx = rng.integers(0, 5, size=5)
        assert seen[step][0] == step
        np.testing.assert_array_equal(seen[step][1], idx)
        opt.zero_grad()
        loss_of(ref, idx).backward()
        opt.step()
    np.testing.assert_array_equal(w.data, ref.data)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["toy step 0", "toy step 2", "toy step 4"]


def _kernel_pairs(rng, dtype, n):
    """(case, kernel output, taped forward) for every array kernel, on
    operands of ``dtype`` with ``n`` query rows."""

    def a(*shape):
        return rng.standard_normal(shape).astype(dtype)

    def t(x):
        return nx.tensor(x, dtype=dtype)

    k = nx.kernels
    x, w, b, g = a(n, 8), a(8, 6), a(6), a(8)
    positions = rng.integers(0, 50, size=n)
    q, kk, v = a(2, n, 4), a(2, n + 3, 4), a(2, n + 3, 4)
    kt = np.ascontiguousarray(kk.transpose(0, 2, 1))  # the keys as a cache holds them, (H, hd, Tk)
    mask = rng.random((n, n + 3)) < 0.5
    mask[:, 0] = True
    # a packed run: query rows [1, n - 1] and keys [2, n + 1], one sequence for n == 1
    lens = zip([1, n - 1], [2, n + 1]) if n > 1 else [(1, n + 3)]
    packed = [rng.random(shape) < 0.5 for shape in lens]
    for m in packed:
        m[:, -1] = True
    idx = rng.permutation(n + 2)[:n]
    lens_x = [n] if n == 1 else [1, n - 2, 1]
    pairs = [
        ("linear", k.linear(x, w, b), nx.linear(t(x), t(w), t(b))),
        ("gelu", k.gelu(x), nx.gelu(t(x))),
        ("layer_norm", k.layer_norm(x, g, g[::-1]), nx.layer_norm(t(x), t(g), t(g[::-1]))),
        ("split_heads", k.split_heads(x, 2), nx.split_heads(t(x), 2)),
        ("split_heads_rotary", k.split_heads(x, 2, positions, 500.0), nx.split_heads(t(x), 2, positions, 500.0)),
        ("attention_heads", k.attention_heads(q, kt, v, mask), nx.attention_heads(t(q), t(kk), t(v), mask)),
        ("attention_heads_packed", k.attention_heads(q, kt, v, packed), nx.attention_heads(t(q), t(kk), t(v), packed)),
        ("scatter_rows", k.scatter_rows(x, idx, n + 2), nx.scatter_rows(t(x), idx, n + 2)),
        ("neighbour_rows", k.neighbour_rows(x, lens_x), nx.neighbour_rows(t(x), lens_x)),
    ]
    return [(case, out[0] if isinstance(out, tuple) else out, ref.data) for case, out, ref in pairs]


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_equal_taped_forwards_bit_for_bit(dtype, n):
    """Each array kernel gives its taped primitive's forward to the bit, in
    the operands' dtype, for one row and for several, under one mask and a
    packed mask list."""
    for case, out, ref in _kernel_pairs(np.random.default_rng(14), dtype, n):
        assert out.dtype == ref.dtype == dtype, case
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes(), case


@pytest.mark.parametrize("packed", [False, True])
def test_kernel_raises_the_taped_empty_row_error(packed):
    """A mask row with no included position is the same ShapeError from
    the kernel as from the taped primitive."""
    q, kv = np.zeros((2, 3, 4)), np.zeros((2, 5, 4))
    mask = np.array([[True] * 5, [False] * 5, [True] * 5])
    if packed:
        mask = [mask[:2, :2], mask[2:, 2:]]
    errors = []
    kernel = (nx.kernels.attention_heads, np.asarray, kv.transpose(0, 2, 1))
    for attend, wrap, keys in (kernel, (nx.attention_heads, nx.tensor, kv)):
        with pytest.raises(ShapeError, match="no included positions") as info:
            attend(wrap(q), wrap(keys), wrap(kv), mask)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_all_true_blocks_given_by_shape_equal_their_masks_bit_for_bit(dtype):
    """No mask, and a packed block given by its (rows, keys) shape, attend
    as an all-true mask of that shape does, to the bit, weights included;
    a shape whose rows have no key, or that does not tile the operands, is
    the ShapeError the mask would give."""
    rng = np.random.default_rng(15)
    q, kv = rng.standard_normal((2, 5, 4)).astype(dtype), rng.standard_normal((2, 7, 4)).astype(dtype)
    kt = np.ascontiguousarray(kv.transpose(0, 2, 1))
    attend = nx.kernels.attention_heads
    band = np.tri(3, 4, 1, dtype=bool)
    cases = [
        (attend(q, kt, kv), attend(q, kt, kv, np.ones((5, 7), dtype=bool))),
        (attend(q, kt, kv, [(2, 3), (3, 4)]), attend(q, kt, kv, [np.ones((2, 3), bool), np.ones((3, 4), bool)])),
        (attend(q, kt, kv, [(2, 3), band]), attend(q, kt, kv, [np.ones((2, 3), bool), band])),
    ]
    for got, want in cases:
        assert got[0].dtype == dtype and got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1] and all(a.tobytes() == b.tobytes() for a, b in zip(got[2], want[2]))
    with pytest.raises(ShapeError, match="no included positions"):
        attend(q, kt, kv, [(2, 0), (3, 7)])
    with pytest.raises(ShapeError, match="no included positions"):
        attend(q, kt[:, :, :0], kv[:, :0])
    with pytest.raises(ShapeError, match=re.escape("mask shape [(2, 3), (3, 5)] != (5, 7)")):
        attend(q, kt, kv, [(2, 3), (3, 5)])


def test_kernel_refuses_keys_in_the_row_layout():
    """The kernel takes keys as (H, hd, Tk), as a key/value cache holds
    them; keys given as (H, Tk, hd), Tk != hd, are a ShapeError that names
    their shape."""
    q, kv = np.zeros((2, 3, 4)), np.zeros((2, 5, 4))
    with pytest.raises(ShapeError, match=re.escape("keys (2, 5, 4)")):
        nx.kernels.attention_heads(q, kv, kv, np.ones((3, 5), dtype=bool))
