"""Flow matching: loss semantics, guidance split, Euler integrator against
analytic flow oracles."""

import numpy as np
import pytest

from tada import nn
from tada import numerics as nx
from tada.errors import NumericalAbort, ValidationError
from tada.flowhead import (
    FlowConfig,
    VectorFieldModel,
    cfg_combine,
    euler_integrate,
    euler_sample,
    flow_loss,
    gaussian_target_field,
    interpolate,
    point_mass_field,
    time_embedding,
    two_point_field,
)
from tada.numerics import finite_difference_check_params

SMALL = FlowConfig(d_latent=4, bits=2, d_cond=6, d_time=8, width=16, n_hidden=2)
N_STEPS, CFG_SCALE = 10, 1.8  # the sampling settings GenParams defaults to


class TestInterpolate:
    def test_t_zero_gives_noise(self):
        y1, y0 = np.ones((2, 3)), np.full((2, 3), 5.0)
        np.testing.assert_array_equal(interpolate(y1, y0, np.zeros(2), 0.1), y0)

    def test_t_one_sigma_zero_gives_target(self):
        y1, y0 = np.ones((2, 3)), np.full((2, 3), 5.0)
        np.testing.assert_array_equal(interpolate(y1, y0, np.ones(2), 0.0), y1)

    def test_midpoint_arithmetic(self):
        out = interpolate(np.array([[2.0]]), np.array([[0.0]]), np.array([0.5]), 0.0)
        assert out[0, 0] == pytest.approx(1.0)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            interpolate(np.zeros((1, 2)), np.zeros((1, 2)), np.array([1.5]), 0.0)


class _ExactVelocityStub:
    """Duck-typed model whose field returns the true conditional velocity.

    For a known target row y1 the interpolation inverts as
    y0 = (y_t - t*y1) / (1 - (1-s)t), so the exact velocity
    y1 - (1-s)*y0 is recoverable from (y_t, t).
    """

    def __init__(self, targets, sigma_min):
        self.targets = np.asarray(targets, dtype=np.float64)
        self.sigma_min = sigma_min

    def field(self, y_t, t, cond):
        y_t = y_t if isinstance(y_t, np.ndarray) else y_t.data
        t = np.asarray(t).reshape(-1, 1)
        y0 = (y_t - t * self.targets) / (1.0 - (1.0 - self.sigma_min) * t)
        return nx.tensor(self.targets - (1.0 - self.sigma_min) * y0)


class _ZeroStub:
    def field(self, y_t, t, cond):
        arr = y_t if isinstance(y_t, np.ndarray) else y_t.data
        return nx.tensor(np.zeros_like(arr))


class TestFlowLoss:
    def test_perfect_model_zero_loss(self):
        rng = np.random.default_rng(0)
        targets = rng.standard_normal((6, 8))
        stub = _ExactVelocityStub(targets, sigma_min=1e-5)
        loss = flow_loss(stub, targets, np.zeros((6, 4)), sigma_min=1e-5, seed=1)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-18)

    def test_zero_model_expected_second_moment(self):
        # v == 0, y1 == 0, sigma_min = 0: loss = E ||y0||^2 = width of y.
        d = 24
        targets = np.zeros((4000, d))
        loss = flow_loss(_ZeroStub(), targets + np.arange(4000)[:, None] * 1e-9, np.zeros((4000, 2)), 0.0, seed=2)
        assert float(loss.data) == pytest.approx(d, rel=0.03)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        model = VectorFieldModel(SMALL, rng=rng)
        targets = rng.standard_normal((5, SMALL.d_target))
        cond = rng.standard_normal((5, SMALL.d_cond))
        perm = np.array([3, 0, 4, 1, 2])
        a = float(flow_loss(model, targets, cond, 1e-5, seed=4).data)
        b = float(flow_loss(model, targets[perm], cond[perm], 1e-5, seed=4).data)
        assert a == pytest.approx(b, rel=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        model = VectorFieldModel(SMALL, rng=rng)
        targets = rng.standard_normal((3, SMALL.d_target))
        cond = rng.standard_normal((3, SMALL.d_cond))
        a = float(flow_loss(model, targets, cond, 1e-5, seed=6).data)
        b = float(flow_loss(model, targets, cond, 1e-5, seed=6).data)
        c = float(flow_loss(model, targets, cond, 1e-5, seed=7).data)
        assert a == b and a != c

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        model = VectorFieldModel(SMALL, rng=rng)
        targets = rng.standard_normal((3, SMALL.d_target))
        cond = rng.standard_normal((3, SMALL.d_cond))

        def fn():
            return flow_loss(model, targets, cond, 1e-5, seed=9)

        err = finite_difference_check_params(
            fn, list(model.params.values()), sample=4, seed=0
        )
        assert err < 1e-3


class TestCfgCombine:
    def test_scale_one_is_positive_branch(self):
        rng = np.random.default_rng(10)
        vp, vn = rng.standard_normal((2, 8)), rng.standard_normal((2, 8))
        np.testing.assert_array_equal(cfg_combine(vp, vn, 1.0, 4), vp)

    def test_guided_dims_and_bypass(self):
        vp = np.ones((1, 8))
        vn = np.zeros((1, 8))
        out = cfg_combine(vp, vn, 1.8, 4)
        np.testing.assert_allclose(out[0, :4], 1.8)
        np.testing.assert_allclose(out[0, 4:], 1.0)

    def test_scale_zero_uses_negative_on_guided_dims(self):
        rng = np.random.default_rng(11)
        vp, vn = rng.standard_normal((3, 8)), rng.standard_normal((3, 8))
        out = cfg_combine(vp, vn, 0.0, 5)
        np.testing.assert_array_equal(out[:, :5], vn[:, :5])
        np.testing.assert_array_equal(out[:, 5:], vp[:, 5:])

    def test_only_declared_split_touched(self):
        rng = np.random.default_rng(12)
        vp, vn = rng.standard_normal((2, 10)), rng.standard_normal((2, 10))
        out = cfg_combine(vp, vn, 2.5, 3)
        np.testing.assert_array_equal(out[:, 3:], vp[:, 3:])


class TestEulerSampling:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        model = VectorFieldModel(SMALL, rng=rng)
        cond = rng.standard_normal((1, SMALL.d_cond))

        rows = np.repeat(model.cond_rows(cond), 4, axis=0)  # two samples, both branches

        def fp(y, t):
            return model.field_np(y, t, rows)

        a = euler_sample(fp, SMALL, N_STEPS, CFG_SCALE, seed=14, n_samples=2)
        b = euler_sample(fp, SMALL, N_STEPS, CFG_SCALE, seed=14, n_samples=2)
        c = euler_sample(fp, SMALL, N_STEPS, CFG_SCALE, seed=15, n_samples=2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scale_one_ignores_negative_branch(self):
        rng = np.random.default_rng(16)
        model = VectorFieldModel(SMALL, rng=rng)
        n = 3
        rows = np.repeat(model.cond_rows(rng.standard_normal((1, SMALL.d_cond))), n, axis=0)

        def fp(y, t):
            return model.field_np(y, t, rows)

        def poisoned(y, t):
            v = fp(y, t)
            v[n:] = 1e9  # the negative half, were it stacked in
            return v

        a = euler_sample(poisoned, SMALL, N_STEPS, 1.0, seed=17, n_samples=n)
        b = euler_sample(fp, SMALL, N_STEPS, 1.0, seed=17, n_samples=n)
        np.testing.assert_array_equal(a, b)

    def test_stacked_guided_field_matches_separate_branch_calls(self):
        rng = np.random.default_rng(21)
        model = VectorFieldModel(SMALL, rng=rng)
        c_pos, c_neg = rng.standard_normal((2, SMALL.d_cond))
        R = 4
        rows = np.repeat(model.cond_rows(np.stack([c_pos, c_neg])), R, axis=0)

        def stacked(y, t):
            return model.field_np(y, t, rows)

        # Reference: the taped field, one call per branch per step.
        ref = np.random.default_rng(22).standard_normal((R, SMALL.d_target))
        for k in range(N_STEPS):
            t = k / N_STEPS
            v_pos = model.field(ref, t, np.tile(c_pos, (R, 1))).data
            v_neg = model.field(ref, t, np.tile(c_neg, (R, 1))).data
            ref = ref + cfg_combine(v_pos, v_neg, CFG_SCALE, SMALL.d_latent) / N_STEPS

        out = euler_sample(stacked, SMALL, N_STEPS, CFG_SCALE, seed=22, n_samples=R)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, CFG_SCALE])
    def test_equals_plain_euler_loop_bit_for_bit(self, scale):
        """The sampler's in-place buffer and blend give the plain loop's
        states to the bit: a fresh [y; y] per step, the blend
        v_neg + scale * (v_pos - v_neg) in float64, and y + v / n."""
        rng = np.random.default_rng(26)
        with nx.precision("float32"):
            model = VectorFieldModel(SMALL, rng=rng)
        R = 3
        conds = rng.standard_normal((2, SMALL.d_cond))
        rows = np.repeat(model.cond_rows(conds if scale != 1.0 else conds[:1]), R, axis=0)

        def field(y, t):
            return model.field_np(y, t, rows)

        y = np.random.default_rng(27).standard_normal((R, SMALL.d_target))
        d = SMALL.d_latent
        for k in range(N_STEPS):
            v = field(np.concatenate([y, y]) if scale != 1.0 else y, k / N_STEPS)
            if scale != 1.0:
                pos, neg = v[:R].astype(np.float64), v[R:].astype(np.float64)
                v = pos.copy()
                v[:, :d] = neg[:, :d] + scale * (pos[:, :d] - neg[:, :d])
            y = y + v / N_STEPS
        out = euler_sample(field, SMALL, N_STEPS, scale, seed=27, n_samples=R)
        assert out.dtype == np.float64 and out.tobytes() == y.tobytes()

    def test_point_mass_field_is_exact_for_euler(self):
        # Straight-line characteristics at constant speed: every Euler step
        # lands back on the exact path, so the terminal error is round-off.
        rng = np.random.default_rng(18)
        target = rng.standard_normal(8)
        field = point_mass_field(target, sigma_min=0.0)
        y0 = rng.standard_normal((4, 8))
        for n in (2, 5, 10):
            y = euler_integrate(field, y0, n)
            err = np.linalg.norm(y - target, axis=1).max()
            start_gap = np.linalg.norm(y0 - target, axis=1).max()
            assert err <= 0.15 * start_gap / n
            assert err < 1e-9

    def test_first_order_convergence_on_gaussian_oracle(self):
        rng = np.random.default_rng(19)
        mu = rng.standard_normal(24) * 1.5
        field, terminal = gaussian_target_field(mu, spread=0.3, sigma_min=1e-5)
        y0 = rng.standard_normal((32, 24))
        ref = terminal(y0)
        errs = {}
        for n in (5, 10, 20, 40):
            errs[n] = float(np.linalg.norm(euler_integrate(field, y0, n) - ref, axis=1).mean())
        for n in (5, 10, 20):
            ratio = errs[2 * n] / errs[n]
            assert 0.3 <= ratio <= 0.7, (n, ratio)

    def test_two_point_field_responsibilities_blend(self):
        mu_a, mu_b = np.zeros(4), np.ones(4) * 4
        field = two_point_field(mu_a, mu_b, 0.5, 1e-5)
        v = field(np.zeros((1, 4)), 0.0)
        assert np.all(np.isfinite(v))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_aborts(self):
        def bad(y, t):
            return np.full_like(y, np.inf)

        with pytest.raises(NumericalAbort, match="Euler step 0"):
            euler_sample(bad, SMALL, N_STEPS, CFG_SCALE, seed=20)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_state_aborts(self):
        """A finite field whose guided extrapolation overflows leaves a
        non-finite state, and the sampler aborts at that step."""

        def overflowing(y, t):
            v = np.zeros_like(y)
            v[: len(y) // 2] = 1e308  # the positive branch; the negative one stays 0
            return v

        with pytest.raises(NumericalAbort, match="non-finite state at Euler step 0"):
            euler_sample(overflowing, SMALL, N_STEPS, 4.0, seed=20)


@pytest.mark.parametrize("t", [0.0, 0.3, 0.97])
def test_split_field_matches_taped_field(t):
    rng = np.random.default_rng(23)
    model = VectorFieldModel(SMALL, rng=rng)
    y = rng.standard_normal((5, SMALL.d_target))
    cond = rng.standard_normal((5, SMALL.d_cond))
    ref = model.field(y, t, cond).data
    np.testing.assert_allclose(model.field_np(y, t, model.cond_rows(cond)), ref, rtol=0, atol=1e-12)
    # One condition repeated for every point, as the sampler passes it.
    one = np.repeat(cond[:1], 5, axis=0)
    ref_one = model.field(y, t, one).data
    np.testing.assert_allclose(model.field_np(y, t, model.cond_rows(one)), ref_one, rtol=0, atol=1e-12)


def test_field_np_follows_the_weights_after_an_adam_step():
    """field_np caches the time features' share per weight array: a second
    call at the same t gives the uncached formula's result to the bit, and
    after an Adam step replaces the weights it equals a fresh model's
    field on the new weights, not the old one."""
    rng = np.random.default_rng(25)
    model = VectorFieldModel(SMALL, rng=rng)
    y = rng.standard_normal((3, SMALL.d_target))
    cond = rng.standard_normal((3, SMALL.d_cond))
    t = 0.25

    def uncached(m):
        w = m.params["flow/fc0/w"].data
        d_y, d_t = SMALL.d_target, SMALL.d_time
        h = y @ w[:d_y] + time_embedding(t, d_t) @ w[d_y : d_y + d_t] + m.cond_rows(cond)
        for i in range(1, m.n_layers):
            h = nn.linear(m.params, f"flow/fc{i}", nn.gelu(h))
        return h

    before = model.field_np(y, t, model.cond_rows(cond))
    assert model.field_np(y, t, model.cond_rows(cond)).tobytes() == before.tobytes() == uncached(model).tobytes()
    opt = nx.Adam(model.params, lr=0.05)
    flow_loss(model, rng.standard_normal((3, SMALL.d_target)), cond, SMALL.sigma_min, seed=0).backward()
    opt.step()
    after = model.field_np(y, t, model.cond_rows(cond))
    fresh = VectorFieldModel(SMALL, params=model.params)
    assert after.tobytes() == fresh.field_np(y, t, fresh.cond_rows(cond)).tobytes() == uncached(model).tobytes()
    assert not np.array_equal(after, before)


def test_split_field_rejects_misaligned_condition_rows():
    rng = np.random.default_rng(24)
    model = VectorFieldModel(SMALL, rng=rng)
    rows = model.cond_rows(rng.standard_normal((4, SMALL.d_cond)))
    with pytest.raises(ValidationError):
        model.field_np(rng.standard_normal((2, SMALL.d_target)), 0.5, rows)
    with pytest.raises(ValidationError, match="1 condition rows for 2 points"):
        model.field(rng.standard_normal((2, SMALL.d_target)), 0.5, rng.standard_normal((1, SMALL.d_cond)))
    with pytest.raises(ValidationError):
        model.cond_rows(np.zeros((2, SMALL.d_cond + 1)))


def test_time_embedding_shape_and_determinism():
    a = time_embedding(np.array([0.0, 0.5]), 8)
    b = time_embedding(np.array([0.0, 0.5]), 8)
    assert a.shape == (2, 8)
    np.testing.assert_array_equal(a, b)
