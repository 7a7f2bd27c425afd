import math
from dataclasses import replace

import numpy as np
import pytest

from cizsl.divergence import (MODES, DivergenceParams, batch_minmax_normalize,
                              entropy_loss_batch, minmax_bounds,
                              minmax_gradient_scale, sm_divergence,
                              sm_divergence_grads)
from cizsl.errors import DivergenceUndefinedError, InvalidInputError
from cizsl.numerics import RngStream, finite_diff_gradient, relative_error

KL = DivergenceParams(mode="kl", gamma=1.0, beta=1.0)
BHAT = DivergenceParams(mode="bhattacharyya", gamma=0.5, beta=1.0)


def rand_simplex(rng, k, floor=0.02):
    p = rng.uniform(floor, 1.0, k)
    return p / p.sum()


class TestValues:
    def test_identical_distributions_vanish(self):
        p = np.array([0.3, 0.7])
        for params in (KL, BHAT,
                       DivergenceParams(mode="renyi", gamma=2.3, beta=1.0),
                       DivergenceParams(mode="tsallis", gamma=0.7, beta=0.7),
                       DivergenceParams(mode="sharma-mittal", gamma=1.9, beta=0.4)):
            assert abs(sm_divergence(p, p, params)) < 1e-12

    def test_kl_direct_evaluation(self):
        # 0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75) = 0.5 ln(4/3)
        val = sm_divergence([0.5, 0.5], [0.25, 0.75], KL)
        assert abs(val - 0.5 * math.log(4.0 / 3.0)) < 1e-12
        assert abs(val - 0.143841) < 1e-6

    def test_bhattacharyya_direct_evaluation(self):
        # -ln(sqrt(1 * 0.5) + sqrt(0 * 0.5)) = -ln sqrt(0.5)
        val = sm_divergence([1.0, 0.0], [0.5, 0.5], BHAT)
        assert abs(val - (-math.log(math.sqrt(0.5)))) < 1e-12
        assert abs(val - 0.346574) < 1e-6

    def test_renyi_direct_evaluation(self):
        # (1/(2-1)) ln(0.25/0.25 + 0.25/0.75) = ln(4/3)
        val = sm_divergence([0.5, 0.5], [0.25, 0.75],
                            DivergenceParams(mode="renyi", gamma=2.0, beta=1.0))
        assert abs(val - math.log(4.0 / 3.0)) < 1e-12
        assert abs(val - 0.287682) < 1e-6

    def test_tsallis_direct_evaluation(self):
        # (sum p^2/q - 1) / (2 - 1) = 1/3
        val = sm_divergence([0.5, 0.5], [0.25, 0.75],
                            DivergenceParams(mode="tsallis", gamma=2.0, beta=2.0))
        assert abs(val - 1.0 / 3.0) < 1e-12

    def test_undefined_when_q_vanishes_under_p(self):
        with pytest.raises(DivergenceUndefinedError):
            sm_divergence([0.5, 0.5], [1.0, 0.0],
                          DivergenceParams(mode="sharma-mittal", gamma=0.5, beta=0.3))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            sm_divergence([0.5, 0.5], [0.2, 0.3, 0.5], KL)

    def test_replace_keeps_tsallis_beta_tied(self):
        ts = DivergenceParams(mode="tsallis", gamma=1.6, beta=1.6)
        assert replace(ts, gamma=2.5).beta == 2.5


class TestInputShape:
    @pytest.mark.parametrize("mode", MODES)
    def test_two_dimensional_pair_rejected(self, mode):
        # a batch of rows is entropy_loss_batch's input, not a pair's
        params = DivergenceParams(mode=mode, gamma=1.7, beta=0.4)
        rng = RngStream(50, 0)
        rows = np.array([rand_simplex(rng, 4), rand_simplex(rng, 4)])
        p = rand_simplex(rng, 4)
        for a, b in ((rows, rows), (rows, p[None]), (p[None], p[None])):
            with pytest.raises(InvalidInputError, match="1-D"):
                sm_divergence(a, b, params)
            with pytest.raises(InvalidInputError, match="1-D"):
                sm_divergence_grads(a, b, params)


class TestLimitConsistency:
    """The guard strip dispatches to the analytic limit of each special case."""

    def setup_method(self):
        self.rng = RngStream(77, 0)

    def pairs(self, n=200):
        for _ in range(n):
            k = int(self.rng.integers(2, 17))
            yield rand_simplex(self.rng, k), rand_simplex(self.rng, k)

    def test_kl_limit(self):
        for p, q in self.pairs():
            sm = DivergenceParams(mode="sharma-mittal",
                                  gamma=1.0 + 1e-6, beta=1.0 - 1e-6)
            assert abs(sm_divergence(p, q, sm) - sm_divergence(p, q, KL)) < 1e-5

    def test_renyi_limit(self):
        for p, q in self.pairs():
            gamma = float(self.rng.uniform(0.2, 2.5))
            if abs(gamma - 1.0) < 0.05:
                gamma = 1.5
            sm = DivergenceParams(mode="sharma-mittal", gamma=gamma, beta=1.0 + 1e-6)
            ren = DivergenceParams(mode="renyi", gamma=gamma, beta=1.0)
            assert abs(sm_divergence(p, q, sm) - sm_divergence(p, q, ren)) < 1e-5

    def test_tsallis_exact_at_beta_equals_gamma(self):
        for p, q in self.pairs():
            gamma = float(self.rng.uniform(0.2, 2.5))
            if abs(gamma - 1.0) < 0.05:
                gamma = 0.4
            sm = DivergenceParams(mode="sharma-mittal", gamma=gamma, beta=gamma)
            ts = DivergenceParams(mode="tsallis", gamma=gamma, beta=gamma)
            assert abs(sm_divergence(p, q, sm) - sm_divergence(p, q, ts)) < 1e-5

    def test_bhattacharyya_factor_two(self):
        # the limit of the family at (gamma, beta) -> (0.5, 1) equals twice
        # the Bhattacharyya divergence
        for p, q in self.pairs():
            sm = DivergenceParams(mode="sharma-mittal", gamma=0.5, beta=1.0 + 1e-6)
            lim = sm_divergence(p, q, sm)
            b = sm_divergence(p, q, BHAT)
            assert abs(lim - 2.0 * b) < 1e-5

    def test_general_formula_approaches_limits_outside_guard(self):
        # just outside the dispatch strip the closed form must already be close
        for p, q in list(self.pairs(50)):
            sm = DivergenceParams(mode="sharma-mittal",
                                  gamma=1.0 + 2e-3, beta=1.0 + 2e-3)
            assert abs(sm_divergence(p, q, sm) - sm_divergence(p, q, KL)) < 0.05

    def test_nonnegativity(self):
        rng = RngStream(5, 1)
        for _ in range(10_000):
            k = int(rng.integers(2, 9))
            p = rand_simplex(rng, k)
            q = rand_simplex(rng, k)
            gamma = float(rng.uniform(0.1, 3.0))
            beta = float(rng.uniform(-1.0, 3.0))
            params = DivergenceParams(mode="sharma-mittal", gamma=gamma, beta=beta)
            assert sm_divergence(p, q, params) >= -1e-12


class TestGradients:
    def setup_method(self):
        self.rng = RngStream(31, 2)

    def project_to_tangent(self, grad, p):
        # remove the component normal to the simplex
        return grad - grad.mean()

    def test_gradient_vanishes_at_p_equals_q(self):
        for params in (DivergenceParams(mode="sharma-mittal", gamma=1.7, beta=0.3),
                       DivergenceParams(mode="renyi", gamma=2.2, beta=1.0),
                       DivergenceParams(mode="tsallis", gamma=0.6, beta=0.6),
                       KL, BHAT):
            p = rand_simplex(self.rng, 5)
            dp, _ = sm_divergence_grads(p, p, params)
            tangent = self.project_to_tangent(dp, p)
            assert np.max(np.abs(tangent)) < 1e-9

    @pytest.mark.parametrize("mode,gamma,beta", [
        ("sharma-mittal", 1.8, 0.4),
        ("sharma-mittal", 0.4, 2.2),
        ("sharma-mittal", 2.5, -0.5),
        ("renyi", 2.0, 1.0),
        ("renyi", 0.5, 1.0),
        ("tsallis", 1.9, 1.9),
        ("tsallis", 0.55, 0.55),
        ("kl", 1.0, 1.0),
        ("bhattacharyya", 0.5, 1.0),
    ])
    def test_gradients_match_finite_differences(self, mode, gamma, beta):
        rng = RngStream(101, hash((mode, gamma)) % 1000)
        for _ in range(5):
            k = int(rng.integers(3, 8))
            p = rand_simplex(rng, k)
            q = rand_simplex(rng, k)
            params = DivergenceParams(mode=mode, gamma=gamma, beta=beta)
            dp, (dg, db) = sm_divergence_grads(p, q, params)

            # d/dp via an unconstrained reparameterization of the simplex
            def val_of_raw(raw):
                w = np.abs(raw) / np.abs(raw).sum()
                return sm_divergence(w, q, params)

            fd_raw = finite_diff_gradient(val_of_raw, p.copy(), 1e-6)
            s = p.sum()
            jac = (np.eye(k) * s - np.outer(p, np.ones(k))) / s ** 2
            assert relative_error(jac.T @ dp, fd_raw) < 1e-4

            if mode in ("sharma-mittal", "renyi", "tsallis"):
                def val_of_gamma(gv):
                    pg = replace(params, gamma=float(gv[0]),
                                 beta=float(gv[0]) if mode == "tsallis" else beta)
                    return sm_divergence(p, q, pg)

                fd_g = finite_diff_gradient(val_of_gamma, np.array([gamma]), 1e-6)
                assert relative_error(np.array([dg]), fd_g) < 1e-4
            if mode == "sharma-mittal":
                def val_of_beta(bv):
                    return sm_divergence(p, q, replace(params, beta=float(bv[0])))

                fd_b = finite_diff_gradient(val_of_beta, np.array([beta]), 1e-6)
                assert relative_error(np.array([db]), fd_b) < 1e-4

    def test_tsallis_constrained_line(self):
        # d/dgamma along beta = gamma matches the finite difference along it
        p = rand_simplex(self.rng, 6)
        q = rand_simplex(self.rng, 6)
        gamma = 1.6

        def along_line(gv):
            return sm_divergence(p, q, DivergenceParams(
                mode="tsallis", gamma=float(gv[0]), beta=float(gv[0])))

        _, (dg, _) = sm_divergence_grads(
            p, q, DivergenceParams(mode="tsallis", gamma=gamma, beta=gamma))
        fd = finite_diff_gradient(along_line, np.array([gamma]), 1e-6)
        assert relative_error(np.array([dg]), fd) < 1e-4

    def test_guard_strip_gradients_are_finite_and_close(self):
        # inside the strip the dispatched limit gradients approximate the
        # two-sided finite difference taken across it
        p = rand_simplex(self.rng, 4)
        q = rand_simplex(self.rng, 4)
        params = DivergenceParams(mode="sharma-mittal", gamma=1.7, beta=1.0 + 2e-4)
        dp, (dg, db) = sm_divergence_grads(p, q, params)
        assert np.all(np.isfinite(dp)) and np.isfinite(dg) and np.isfinite(db)

        def val_of_beta(bv):
            return sm_divergence(p, q, replace(params, beta=float(bv[0])))

        fd_b = (val_of_beta(np.array([1.0 + 5e-3])) -
                val_of_beta(np.array([1.0 - 5e-3]))) / 1e-2
        assert abs(db - fd_b) < 5e-2 * max(1.0, abs(fd_b))


def entropy_loss(p, params):
    """The entropy loss of one distribution, through the batch entry point."""
    return float(entropy_loss_batch(np.array([p], dtype=np.float64), params)[0][0])


class TestEntropyLoss:
    def test_uniform_input_is_zero_for_every_mode(self):
        p = np.full(6, 1.0 / 6.0)
        for params in (KL, BHAT,
                       DivergenceParams(mode="renyi", gamma=2.0, beta=1.0),
                       DivergenceParams(mode="tsallis", gamma=0.8, beta=0.8),
                       DivergenceParams(mode="sharma-mittal", gamma=2.0, beta=0.5)):
            assert abs(entropy_loss(p, params)) < 1e-12

    def test_one_hot_kl_is_log_k(self):
        val = entropy_loss([1.0, 0.0, 0.0, 0.0], KL)
        assert abs(val - math.log(4.0)) < 1e-12

    def test_nonuniform_strictly_positive(self):
        rng = RngStream(8, 3)
        for _ in range(50):
            p = rand_simplex(rng, 5)
            if np.max(np.abs(p - 0.2)) < 1e-3:
                continue
            for params in (KL, DivergenceParams(mode="sharma-mittal",
                                                gamma=1.6, beta=0.7)):
                assert entropy_loss(p, params) > 0.0

    def test_zero_iff_uniform(self):
        rng = RngStream(9, 4)
        params = DivergenceParams(mode="sharma-mittal", gamma=2.0, beta=0.5)
        for _ in range(200):
            p = rand_simplex(rng, 4)
            val = entropy_loss(p, params)
            if val < 1e-9:
                np.testing.assert_allclose(p, 0.25, atol=1e-4)

    def test_needs_two_classes(self):
        with pytest.raises(InvalidInputError):
            entropy_loss([1.0], KL)

    def test_batch_matches_scalar(self):
        rng = RngStream(10, 5)
        params = DivergenceParams(mode="sharma-mittal", gamma=1.4, beta=0.2)
        probs = np.array([rand_simplex(rng, 5) for _ in range(6)])
        values, _, _, _ = entropy_loss_batch(probs, params)
        uniform = np.full(5, 0.2)
        for i in range(6):
            assert abs(values[i] - sm_divergence(probs[i], uniform, params)) < 1e-12


class TestMembers:
    """The named modes are the family at pinned (gamma, beta)."""

    def test_pins_hold_on_construction_and_replace(self):
        assert DivergenceParams(mode="renyi", beta=0.3).beta == 1.0
        ts = DivergenceParams(mode="tsallis", gamma=1.6, beta=0.2)
        assert ts.beta == 1.6
        assert replace(ts, gamma=2.5).beta == 2.5
        assert replace(ts, beta=0.7).beta == 1.6
        kl = DivergenceParams(mode="kl", gamma=3.0, beta=0.2)
        assert (kl.gamma, kl.beta) == (1.0, 1.0)
        assert (replace(kl, gamma=2.0).gamma, replace(kl, beta=2.0).beta) == (1.0, 1.0)
        bh = replace(BHAT, gamma=2.0, beta=0.3)
        assert (bh.gamma, bh.beta) == (0.5, 1.0)
        sm = DivergenceParams(mode="sharma-mittal", gamma=1.3, beta=0.2)
        assert (sm.gamma, sm.beta) == (1.3, 0.2)

    @pytest.mark.parametrize("mode,gamma", [
        ("kl", 1.0), ("renyi", 2.3), ("renyi", 0.4), ("tsallis", 1.7),
        ("tsallis", 0.6), ("tsallis", 1.0004), ("bhattacharyya", 0.5)])
    def test_each_member_equals_the_family_at_its_pins(self, mode, gamma):
        rng = RngStream(41, 7)
        probs = np.array([rand_simplex(rng, 5) for _ in range(8)])
        member = DivergenceParams(mode=mode, gamma=gamma)
        family = DivergenceParams(mode="sharma-mittal", gamma=member.gamma,
                                  beta=member.beta)
        value, dp, _, _ = entropy_loss_batch(probs, member)
        fam_value, fam_dp, _, _ = entropy_loss_batch(probs, family)
        if mode in ("kl", "renyi"):
            np.testing.assert_array_equal(value, fam_value)
            np.testing.assert_array_equal(dp, fam_dp)
        else:
            scale = 0.5 if mode == "bhattacharyya" else 1.0
            np.testing.assert_allclose(value, scale * fam_value, rtol=1e-12, atol=0)
            np.testing.assert_allclose(dp, scale * fam_dp, rtol=1e-12, atol=0)
        # the textbook closed forms, evaluated directly
        q = 0.2
        if mode == "tsallis" and abs(gamma - 1.0) > 0.01:
            terms = probs ** gamma * q ** (1.0 - gamma)
            np.testing.assert_allclose(value, (terms.sum(axis=1) - 1.0) / (gamma - 1.0),
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(dp, terms / probs * gamma / (gamma - 1.0),
                                       rtol=1e-12, atol=0)
        if mode == "bhattacharyya":
            bc = np.sqrt(probs * q).sum(axis=1)
            np.testing.assert_allclose(value, -np.log(bc), rtol=1e-12, atol=0)
            np.testing.assert_allclose(dp, -0.5 * np.sqrt(q / probs) / bc[:, None],
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", MODES)
    def test_pinned_partials_are_zero(self, mode):
        rng = RngStream(42, 8)
        probs = np.array([rand_simplex(rng, 4) for _ in range(5)])
        params = DivergenceParams(mode=mode, gamma=1.8, beta=0.3)
        _, _, dg, db = entropy_loss_batch(probs, params)
        for name, partial in (("gamma", dg), ("beta", db)):
            if name in params.free:
                assert np.all(partial != 0.0)
            else:
                assert np.all(partial == 0.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_matches_finite_differences(self, mode):
        rng = RngStream(43, MODES.index(mode))
        params = DivergenceParams(mode=mode, gamma=1.8, beta=0.3).validate()
        p, q = rand_simplex(rng, 5), rand_simplex(rng, 5)
        assert abs(sm_divergence(p, p, params)) < 1e-12
        dp, partials = sm_divergence_grads(p, q, params)

        def val_of_raw(raw):
            return sm_divergence(np.abs(raw) / np.abs(raw).sum(), q, params)

        fd_raw = finite_diff_gradient(val_of_raw, p.copy(), 1e-6)
        s = p.sum()
        jac = (np.eye(5) * s - np.outer(p, np.ones(5))) / s ** 2
        assert relative_error(jac.T @ dp, fd_raw) < 1e-4
        for name, partial in zip(("gamma", "beta"), partials):
            if name not in params.free:
                continue
            fd = finite_diff_gradient(
                lambda v: sm_divergence(p, q, replace(params, **{name: float(v[0])})),
                np.array([getattr(params, name)]), 1e-6)
            assert relative_error(np.array([partial]), fd) < 1e-4


class TestMinMaxNormalize:
    def test_basic(self):
        np.testing.assert_allclose(batch_minmax_normalize([2.0, 4.0, 6.0]),
                                   [0.0, 0.5, 1.0])

    def test_degenerate_all_equal(self):
        np.testing.assert_array_equal(batch_minmax_normalize([3.0, 3.0]), [0.5, 0.5])

    def test_singleton(self):
        np.testing.assert_array_equal(batch_minmax_normalize([7.0]), [0.5])

    def test_output_in_unit_interval(self):
        rng = RngStream(2, 6)
        v = rng.normal(50) * 10
        out = batch_minmax_normalize(v)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_gradient_scale(self):
        assert minmax_gradient_scale((2.0, 6.0)) == 0.25
        assert minmax_gradient_scale((3.0, 3.0)) == 0.0

    def test_frozen_bounds(self):
        out = batch_minmax_normalize([1.0, 9.0], bounds=(0.0, 10.0))
        np.testing.assert_allclose(out, [0.1, 0.9])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            minmax_bounds(np.array([]))
