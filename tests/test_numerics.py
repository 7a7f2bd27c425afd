import math

import numpy as np
import pytest

from cizsl.errors import InvalidInputError, OracleFailureError
from cizsl.numerics import (AdamState, RngStream, adam_init, adam_step,
                            finite_diff_gradient, log_softmax, softmax, softmax_vjp)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_direct_evaluation(self):
        # exp(ln 1) / (1 + 3) = 0.25, exp(ln 3) / 4 = 0.75
        out = softmax([math.log(1.0), math.log(3.0)])
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-14)

    def test_shift_invariance_and_stability(self):
        np.testing.assert_allclose(softmax([1000.0, 1000.0]), [0.5, 0.5], atol=1e-15)
        a = softmax([1.0, 2.0, 3.0])
        b = softmax([1.0 + 500.0, 2.0 + 500.0, 3.0 + 500.0])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sums_to_one_for_long_random_vectors(self):
        rng = RngStream(7, 0)
        for n in (2, 10, 100, 1000):
            p = softmax(rng.normal(n) * 10.0)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            softmax([np.nan, 0.0])
        with pytest.raises(InvalidInputError):
            softmax([])

    def test_log_softmax_matches_log_of_softmax(self):
        z = RngStream(3, 0).normal(9)
        np.testing.assert_allclose(log_softmax(z), np.log(softmax(z)), atol=1e-12)

    def test_vjp_matches_finite_differences(self):
        rng = RngStream(11, 0)
        z0 = rng.normal(5)
        w = rng.normal(5)

        def f(z):
            return float(w @ softmax(z))

        analytic = softmax_vjp(softmax(z0), w)
        fd = finite_diff_gradient(f, z0.copy(), 1e-6)
        np.testing.assert_allclose(analytic, fd, atol=1e-8)


def reference_adam_step(params, grad, state):
    """The out-of-place Adam update the in-place `adam_step` must reproduce."""
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, AdamState(m=m, v=v, step=t, lr=state.lr, beta1=state.beta1,
                                 beta2=state.beta2, eps=state.eps)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        # holds at every zero-moment state, not just the first step
        params = np.array([1.0, -2.0, 3.5])
        state = adam_init(3)
        for step in range(1, 6):
            adam_step(params, np.zeros(3), state)
            np.testing.assert_array_equal(params, [1.0, -2.0, 3.5])
            assert state.step == step

    def test_single_scalar_first_step(self):
        # bias-corrected first step moves by ~lr regardless of |g|
        params = np.array([0.0])
        adam_step(params, np.array([1.0]), adam_init(1, lr=0.001))
        assert abs(float(params[0]) + 0.001) < 1e-6

    def test_positive_scaling_preserves_first_step_sign_pattern(self):
        g = np.array([0.3, -2.0, 0.0, 5.0])
        a, b = np.zeros(4), np.zeros(4)
        adam_step(a, g, adam_init(4))
        adam_step(b, 17.0 * g, adam_init(4))
        np.testing.assert_array_equal(np.sign(a), np.sign(b))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            adam_step(np.zeros(3), np.zeros(2), adam_init(3))

    def test_non_float64_params_rejected(self):
        # an in-place update of a converted copy would be lost
        with pytest.raises(InvalidInputError):
            adam_step(np.zeros(3, dtype=np.float32), np.zeros(3), adam_init(3))
        with pytest.raises(InvalidInputError):
            adam_step([0.0, 0.0, 0.0], np.zeros(3), adam_init(3))

    def test_state_progression(self):
        state = adam_init(2)
        p = np.array([1.0, 1.0])
        for i in range(1, 4):
            adam_step(p, np.array([0.5, -0.5]), state)
            assert state.step == i

    def test_in_place_bit_equal_to_reference(self):
        rng = RngStream(12, 0)
        params = rng.normal(257)
        state = adam_init(257, lr=0.003, beta1=0.5, beta2=0.9)
        ref_params, ref_state = params.copy(), adam_init(257, lr=0.003)
        buffer, m, v = params, state.m, state.v
        for _ in range(6):
            grad = rng.normal(257) * rng.uniform(1e-3, 1e3)
            adam_step(params, grad, state)
            ref_params, ref_state = reference_adam_step(ref_params, grad, ref_state)
            np.testing.assert_array_equal(params, ref_params)
            np.testing.assert_array_equal(state.m, ref_state.m)
            np.testing.assert_array_equal(state.v, ref_state.v)
            assert state.step == ref_state.step
        # the same arrays were updated, none replaced
        assert params is buffer and state.m is m and state.v is v


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), 1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant(self):
        g = finite_diff_gradient(lambda x: 4.2, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_sum(self):
        x = RngStream(5, 0).normal(7)
        g = finite_diff_gradient(lambda v: float(np.sum(v)), x)
        np.testing.assert_allclose(g, np.ones(7), atol=1e-8)

    def test_non_finite_objective_raises(self):
        with pytest.raises(OracleFailureError):
            finite_diff_gradient(lambda x: float("nan"), np.array([0.0]))

    def test_bad_step_rejected(self):
        with pytest.raises(InvalidInputError):
            finite_diff_gradient(lambda x: 0.0, np.array([0.0]), h=-1.0)


class TestRngStream:
    def test_same_key_reproduces_bit_identical_draws(self):
        a = RngStream(42, 3).normal(100)
        b = RngStream(42, 3).normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 1).normal(100)
        b = RngStream(42, 2).normal(100)
        assert not np.array_equal(a, b)

    def test_gaussian_moments(self):
        draws = RngStream(123, 9).normal(100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_uniform_range(self):
        rng = RngStream(0, 4)
        for _ in range(100):
            v = rng.uniform(0.2, 0.8)
            assert 0.2 <= v < 0.8
        draws = rng.uniform(0.2, 0.8, 10_000)
        assert draws.min() >= 0.2 and draws.max() < 0.8

    def test_uniform_bad_bounds(self):
        with pytest.raises(InvalidInputError):
            RngStream(0, 0).uniform(1.0, 1.0)

    def test_derive_is_deterministic_and_decorrelated(self):
        r = RngStream(9, 5)
        a = r.derive(1)
        b = r.derive(1)
        c = r.derive(2)
        assert a.stream_id == b.stream_id
        assert a.stream_id != c.stream_id
        np.testing.assert_array_equal(a.normal(10), b.normal(10))

    @pytest.mark.parametrize("n_critic,m", [(1, 8), (5, 7), (5, 64)])
    def test_batched_draws_equal_sequential_draws(self, n_critic, m):
        # the training loop draws its n_critic critic batches as one array
        # per stream; each stream must then hold the same sequence, later
        # draws included, as one draw per critic step
        a, b = RngStream(4, 3), RngStream(4, 3)
        for lo, hi in ((0, 7), (1, 7)):  # draws before the batch keep their place
            np.testing.assert_array_equal(a.integers(lo, hi, m), b.integers(lo, hi, m))
        np.testing.assert_array_equal(
            a.integers(0, 1000, (n_critic, m)),
            np.stack([b.integers(0, 1000, m) for _ in range(n_critic)]))
        np.testing.assert_array_equal(
            a.normal((n_critic * m, 3)),
            np.concatenate([b.normal((m, 3)) for _ in range(n_critic)]))
        np.testing.assert_array_equal(
            a.uniform(0.0, 1.0, (n_critic, m)),
            np.stack([b.uniform(0.0, 1.0, m) for _ in range(n_critic)]))
        np.testing.assert_array_equal(a.integers(0, 5, m), b.integers(0, 5, m))
        np.testing.assert_array_equal(a.normal((m, 3)), b.normal((m, 3)))
