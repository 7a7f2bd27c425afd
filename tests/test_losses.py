import math

import numpy as np
import pytest

from cizsl.divergence import DivergenceParams
from cizsl.errors import InvalidInputError
from cizsl.losses import (ALPHA_MODES, creativity_loss, discriminator_loss,
                          generator_loss, hallucinate_batch, interpolate_texts,
                          sample_alpha, visual_pivot)
from cizsl.net import (DiscriminatorArch, Discriminator, Generator, GeneratorArch,
                       Layer, MlpNetwork, build_discriminator, build_generator,
                       gradient_penalty)
from cizsl.numerics import RngStream, finite_diff_gradient, relative_error

SM = DivergenceParams(mode="sharma-mittal", gamma=1.8, beta=0.4)


def tiny_models(seed=0, k_cls=3):
    rng = RngStream(seed, 7)
    gen = build_generator(GeneratorArch(text_dim=4, noise_dim=3, output_dim=5,
                                        embed_dim=4, hidden_dims=(6,)), rng)
    disc = build_discriminator(DiscriminatorArch(input_dim=5, n_classes=k_cls,
                                                 hidden_dims=(6,)), rng)
    return gen, disc


class TestHallucination:
    def test_fixed_mode_midpoint(self):
        desc = np.array([[1.0, 0.0], [0.0, 1.0]])
        t_h, _, alpha = hallucinate_batch(desc, RngStream(0, 0), RngStream(0, 1),
                                          "fixed-0.5", 5)
        np.testing.assert_array_equal(alpha, np.full(5, 0.5))
        np.testing.assert_allclose(t_h, np.full((5, 2), 0.5))

    def test_interpolation_endpoints(self):
        t_a = np.array([1.0, 0.0])
        t_b = np.array([0.0, 1.0])
        np.testing.assert_allclose(interpolate_texts(t_a, t_b, 0.2),
                                   0.2 * t_a + 0.8 * t_b)
        np.testing.assert_allclose(interpolate_texts(t_a, t_b, 0.8),
                                   0.8 * t_a + 0.2 * t_b)

    def test_swap_symmetry(self):
        rng = RngStream(4, 0)
        t_a, t_b = rng.normal(6), rng.normal(6)
        for alpha in (0.2, 0.35, 0.8):
            left = interpolate_texts(t_a, t_b, alpha)
            right = interpolate_texts(t_b, t_a, 1.0 - alpha)
            np.testing.assert_allclose(left, right, atol=1e-15)

    def test_uniform_mode_statistics(self):
        draws = sample_alpha(RngStream(11, 0), "uniform-0.2-0.8", 10_000)
        assert np.all(draws >= 0.2) and np.all(draws < 0.8)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_uniform_full_mode_statistics(self):
        draws = sample_alpha(RngStream(12, 0), "uniform-0-1", 10_000)
        assert np.all(draws >= 0.0) and np.all(draws < 1.0)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_normal_mode_clamped(self):
        draws = sample_alpha(RngStream(13, 0), "normal-0.5", 10_000)
        assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_all_modes_enumerated(self):
        assert set(ALPHA_MODES) == {"uniform-0.2-0.8", "uniform-0-1",
                                    "fixed-0.5", "normal-0.5"}
        with pytest.raises(InvalidInputError):
            sample_alpha(RngStream(0, 0), "nope", 1)

    def test_batch_pairs_are_distinct_classes(self):
        desc = RngStream(5, 0).normal((7, 3))
        t_h, (a, b), alpha = hallucinate_batch(desc, RngStream(5, 1), RngStream(5, 2),
                                               "uniform-0.2-0.8", 500)
        assert np.all(a != b)
        assert t_h.shape == (500, 3)
        np.testing.assert_allclose(
            t_h, alpha[:, None] * desc[a] + (1 - alpha[:, None]) * desc[b])

    def test_batch_needs_two_classes(self):
        with pytest.raises(InvalidInputError):
            hallucinate_batch(np.zeros((1, 3)), RngStream(0, 0), RngStream(0, 1),
                              "fixed-0.5", 4)


class TestCreativityLoss:
    def test_lambda_zero_reduces_to_negated_realness(self):
        # the generator objective's creativity part is then the negated mean
        # critic score of the hallucinated generations alone
        gen, disc = tiny_models()
        rng = RngStream(1, 0)
        t_h, z_h = rng.normal((6, 4)), rng.normal((6, 3))
        t_s, y_s, z_s = rng.normal((6, 4)), rng.integers(0, 3, 6), rng.normal((6, 3))
        res = generator_loss(gen, disc, t_s, y_s, z_s, t_h, z_h, 0.0, SM,
                             rng.normal((3, 5)))
        real, _ = disc.forward(gen.forward(t_h, z_h))
        assert res.parts["creativity"] == pytest.approx(-float(np.mean(real)), abs=1e-12)
        assert res.parts["mean_entropy"] == 0.0

    def test_lambda_zero_gives_zero_value_and_gradient(self):
        logits = RngStream(1, 1).normal((6, 3))
        value, d_logits, grad_div, mean_entropy = creativity_loss(logits, 0.0, SM)
        assert value == 0.0 and mean_entropy == 0.0
        np.testing.assert_array_equal(d_logits, np.zeros((6, 3)))
        assert grad_div == (0.0, 0.0)

    def test_uniform_class_head_degenerate_normalization(self):
        # equal logits in a row: softmax is uniform, entropy values all zero,
        # degenerate batch maps to 0.5 and contributes no gradient
        logits = np.repeat(RngStream(2, 0).normal((5, 1)), 3, axis=1)
        lam = 3.0
        value, d_logits, grad_div, _ = creativity_loss(logits, lam, SM)
        assert value == pytest.approx(lam * 0.5, abs=1e-12)
        np.testing.assert_allclose(d_logits, 0.0, atol=1e-12)
        assert grad_div == (0.0, 0.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInputError):
            creativity_loss(np.zeros((0, 3)), 1.0, SM)

    def test_gradient_matches_finite_differences(self):
        # covered at scale by the gradcheck harness; one spot check here
        from cizsl.gradcheck import run_gradient_contract
        report = run_gradient_contract(seed=0, n_configs=3)
        by_name = {c.name: c for c in report.checks}
        assert by_name["creativity_loss_dlogits"].passed
        assert by_name["creativity_loss_dgamma"].passed
        assert by_name["creativity_loss_dbeta"].passed


class TestVisualPivot:
    def test_zero_when_generations_equal_centers(self):
        centers = np.array([[1.0, 2.0], [-3.0, 0.5]])
        labels = np.array([0, 0, 1, 0, 1])
        value, d_x = visual_pivot(centers[labels], labels, centers)
        assert value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(d_x, 0.0, atol=1e-12)

    def test_one_class_squared_distance(self):
        # five rows of 2.0 in one dimension, center at 5.0
        value, d_x = visual_pivot(np.full((5, 1), 2.0), np.zeros(5, dtype=int),
                                  np.array([[5.0]]))
        assert value == pytest.approx(9.0)
        np.testing.assert_allclose(d_x, np.full((5, 1), 2.0 * -3.0 / 5))

    def test_gradient_matches_finite_differences(self):
        rng = RngStream(6, 1)
        x = rng.normal((9, 5))
        labels = np.array([0, 2, 2, 0, 1, 0, 2, 2, 0])
        centers = rng.normal((3, 5))
        _, d_x = visual_pivot(x, labels, centers)
        fd = finite_diff_gradient(
            lambda xf: visual_pivot(xf.reshape(x.shape), labels, centers)[0],
            x.ravel().copy(), 1e-5)
        assert relative_error(d_x.ravel(), fd) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_class_loop(self, seed):
        rng = RngStream(60 + seed, 1)
        m, k, d = 32, 24, 48
        x = rng.normal((m, d))
        labels = rng.integers(0, k, m)
        centers = rng.normal((k, d))
        present = np.unique(labels)
        ref_value, ref_d_x = 0.0, np.zeros_like(x)
        for c in present:
            sel = labels == c
            diff = x[sel].mean(axis=0) - centers[c]
            ref_value += float(diff @ diff)
            ref_d_x[sel] = (2.0 / (present.size * sel.sum())) * diff
        value, d_x = visual_pivot(x, labels, centers)
        # the value sums the classes in another order; the gradient does not
        assert value == pytest.approx(ref_value / present.size, rel=1e-14)
        np.testing.assert_array_equal(d_x, ref_d_x)

    def test_only_present_classes_count(self):
        # class 1 has no rows: it neither adds a term nor divides the mean
        centers = np.array([[0.0], [100.0], [1.0]])
        value, _ = visual_pivot(np.array([[2.0], [3.0]]), np.array([0, 2]), centers)
        assert value == pytest.approx((4.0 + 4.0) / 2)


class TestGeneratorLoss:
    def batch(self, seed=3, m=6, k=3):
        rng = RngStream(seed, 2)
        return (rng.normal((m, 4)), rng.integers(0, k, m), rng.normal((m, 3)),
                rng.normal((m, 4)), rng.normal((m, 3)), rng.normal((k, 5)))

    def test_no_creativity_reduces_to_baseline_objective(self):
        # dropping both creativity terms leaves realness + classification +
        # pivot, the plain feature-generation backbone objective
        gen, disc = tiny_models()
        t_s, y_s, z_s, t_h, z_h, centers = self.batch()
        res = generator_loss(gen, disc, t_s, y_s, z_s, t_h, z_h, 2.0, SM,
                             centers, creativity_enabled=False)
        x = gen.forward(t_s, z_s)
        real, logits = disc.forward(x)
        from cizsl.numerics import log_softmax
        lsm = log_softmax(logits)
        manual = -float(np.mean(real)) \
            - float(np.mean(lsm[np.arange(6), y_s]))
        present = np.unique(y_s)
        pivot = 0.0
        for kcls in present:
            mu = x[y_s == kcls].mean(axis=0)
            pivot += float(np.sum((mu - centers[kcls]) ** 2))
        manual += pivot / present.size
        assert res.value == pytest.approx(manual, abs=1e-12)
        assert res.parts["creativity"] == 0.0

    def test_perfect_classifier_contributes_zero_classification_term(self):
        # rig the class head to constant logits (+1e3 on class 0, -1e3
        # elsewhere) and label every row 0: log softmax of the label is 0
        gen, disc = tiny_models()
        t_s, _, z_s, t_h, z_h, centers = self.batch()
        y_s = np.zeros(t_s.shape[0], dtype=int)
        head = disc.net.layers[-1]
        head.weight[1:] = 0.0
        head.bias[1:] = -1e3
        head.bias[1] = 1e3
        res = generator_loss(gen, disc, t_s, y_s, z_s, t_h, z_h, 0.0, SM,
                             centers, creativity_enabled=False)
        assert res.parts["seen_classification"] == pytest.approx(0.0, abs=1e-12)

    def test_equals_separate_seen_and_hallucinated_passes(self):
        # the stacked pass computes what a seen-only pass plus a separate
        # pass over the hallucinated rows computes
        gen, disc = tiny_models()
        t_s, y_s, z_s, t_h, z_h, centers = self.batch()
        res = generator_loss(gen, disc, t_s, y_s, z_s, t_h, z_h, 2.0, SM, centers)
        seen = generator_loss(gen, disc, t_s, y_s, z_s, t_h, z_h, 2.0, SM, centers,
                              creativity_enabled=False)
        real_h, logits_h = disc.forward(gen.forward(t_h, z_h))
        term, _, grad_div, mean_entropy = creativity_loss(logits_h, 2.0, SM)
        assert res.value == pytest.approx(
            seen.value - float(np.mean(real_h)) + term, abs=1e-12)
        assert res.parts["mean_entropy"] == pytest.approx(mean_entropy, abs=1e-12)
        np.testing.assert_allclose(res.grad_divergence, grad_div, atol=1e-12)

    def test_one_network_pass_per_call(self, monkeypatch):
        gen, disc = tiny_models()
        t_s, y_s, z_s, t_h, z_h, centers = self.batch()
        calls = []

        def count(cls, name):
            original = getattr(cls, name)

            def counted(self, *args):
                calls.append(f"{cls.__name__}.{name}")
                return original(self, *args)

            monkeypatch.setattr(cls, name, counted)

        for cls in (Generator, Discriminator):
            for name in ("forward_cached", "backward"):
                count(cls, name)
        for enabled in (True, False):
            calls.clear()
            generator_loss(gen, disc, t_s, y_s, z_s, t_h, z_h, 1.0, SM, centers,
                           creativity_enabled=enabled)
            assert sorted(calls) == ["Discriminator.backward",
                                     "Discriminator.forward_cached",
                                     "Generator.backward", "Generator.forward_cached"]
        calls.clear()
        creativity_loss(RngStream(3, 3).normal((6, 3)), 1.0, SM)
        assert calls == []

    def test_label_out_of_range_rejected(self):
        gen, disc = tiny_models()
        t_s, y_s, z_s, t_h, z_h, centers = self.batch()
        bad = y_s.copy()
        bad[0] = 3
        with pytest.raises(InvalidInputError):
            generator_loss(gen, disc, t_s, bad, z_s, t_h, z_h, 1.0, SM, centers)

    def test_full_gradient_matches_finite_differences(self):
        from cizsl.gradcheck import run_gradient_contract
        report = run_gradient_contract(seed=1, n_configs=3)
        by_name = {c.name: c for c in report.checks}
        assert by_name["generator_loss"].passed
        assert by_name["visual_pivot"].passed


class TestModelAxis:
    """A stack of B models computes, per model, the bits of the single model."""

    @pytest.mark.parametrize("extra", [False, True])
    def test_stacked_losses_are_bit_equal_per_model(self, extra):
        k_cls = 4
        models = [tiny_models(seed, k_cls=k_cls) for seed in (30, 31)]
        gens, discs = [g for g, _ in models], [d for _, d in models]
        gen, disc = Generator.stack(gens), Discriminator.stack(discs)
        rng = RngStream(32, 0)
        n_seen = k_cls - (1 if extra else 0)
        m = 6
        t_s, z_s = rng.normal((2, m, 4)), rng.normal((2, m, 3))
        t_h, z_h = rng.normal((2, m, 4)), rng.normal((2, m, 3))
        y_s = rng.integers(0, n_seen, (2, m))
        x_real, y_real = rng.normal((2, m, 5)), rng.integers(0, n_seen, (2, m))
        eps = rng.uniform(0.0, 1.0, (2, m))
        centers = rng.normal((n_seen, 5))
        # lambda 0 beside a creative model: the early return stays per model
        lams = [0.0, 1.3]
        divs = [SM, DivergenceParams(mode="renyi", gamma=0.7)]
        x_fake, x_h = gen.forward(t_s, z_s), gen.forward(t_h, z_h)

        res_g = generator_loss(gen, disc, t_s, y_s, z_s, t_h, z_h, lams, divs, centers,
                               extra_class=extra)
        res_d = discriminator_loss(disc, x_real, y_real, x_fake, y_s, 10.0, eps,
                                   extra_class=extra, x_h=x_h)
        for b in range(2):
            one_g = generator_loss(gens[b], discs[b], t_s[b], y_s[b], z_s[b], t_h[b],
                                   z_h[b], lams[b], divs[b], centers, extra_class=extra)
            one_d = discriminator_loss(discs[b], x_real[b], y_real[b], x_fake[b],
                                       y_s[b], 10.0, eps[b], extra_class=extra,
                                       x_h=x_h[b])
            np.testing.assert_array_equal(res_g.grad_gen[b], one_g.grad_gen)
            np.testing.assert_array_equal(res_d.grad_disc[b], one_d.grad_disc)
            assert res_g.value[b] == one_g.value and res_d.value[b] == one_d.value
            assert tuple(res_g.grad_divergence[b]) == one_g.grad_divergence
            for stacked, one in ((res_g, one_g), (res_d, one_d)):
                assert stacked.parts.keys() == one.parts.keys()
                assert all(stacked.parts[k][b] == v for k, v in one.parts.items())


class TestDiscriminatorLoss:
    def test_hand_case_log_k(self):
        # unit-norm linear critic, zero class head, fake == real constant batch:
        # wasserstein terms cancel, penalty 0, classification gives log K
        k = 4
        w = np.zeros((1 + k, 3))
        w[0] = [0.6, 0.8, 0.0]
        disc = Discriminator(MlpNetwork([Layer(w, np.zeros(1 + k))]), n_classes=k)
        const = np.array([1.0, 2.0, 3.0])
        gen = Generator(
            embed=MlpNetwork([Layer(np.zeros((3, 2)), const, "identity")]),
            trunk=MlpNetwork([Layer(np.hstack([np.eye(3), np.zeros((3, 2))]),
                                    np.zeros(3), "identity")]),
            noise_dim=2)
        m = 5
        x_real = np.tile(const, (m, 1))
        y = np.zeros(m, dtype=int)
        t_s = np.zeros((m, 2))
        z = np.zeros((m, 2))
        eps = np.full(m, 0.3)
        res = discriminator_loss(disc, x_real, y, gen.forward(t_s, z), y,
                                 gp_weight=10.0, gp_eps=eps)
        assert res.value == pytest.approx(math.log(k), abs=1e-12)
        assert res.parts["penalty"] == pytest.approx(0.0, abs=1e-15)

    def test_identical_real_and_fake_gap_is_zero(self):
        k = 3
        rng = RngStream(9, 0)
        disc = build_discriminator(DiscriminatorArch(input_dim=4, n_classes=k), rng)
        const = rng.normal(4)
        gen = Generator(
            embed=MlpNetwork([Layer(np.zeros((4, 2)), const, "identity")]),
            trunk=MlpNetwork([Layer(np.hstack([np.eye(4), np.zeros((4, 2))]),
                                    np.zeros(4), "identity")]),
            noise_dim=2)
        m = 6
        x_real = np.tile(const, (m, 1))
        y = rng.integers(0, k, m)
        x_fake = gen.forward(np.zeros((m, 2)), np.zeros((m, 2)))
        res = discriminator_loss(disc, x_real, y, x_fake, y, gp_weight=0.0,
                                 gp_eps=np.full(m, 0.5))
        assert res.parts["wasserstein_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_misaligned_batches_rejected(self):
        _, disc = tiny_models()
        rng = RngStream(10, 0)
        with pytest.raises(InvalidInputError):
            discriminator_loss(disc, rng.normal((4, 5)), np.zeros(4, dtype=int),
                               rng.normal((3, 5)), np.zeros(3, dtype=int),
                               10.0, np.full(4, 0.5))

    @pytest.mark.parametrize("extra", [False, True])
    def test_penalty_equals_fresh_forward_over_interpolates(self, extra):
        # the penalty reads the x_hat rows of the loss's stacked forward
        gen, disc = tiny_models(k_cls=4)
        rng = RngStream(12, 0)
        m = 6
        x_real, x_fake = rng.normal((m, 5)), rng.normal((m, 5))
        y = rng.integers(0, 3, m)
        eps = rng.uniform(0.0, 1.0, m)
        x_h = gen.forward(rng.normal((m, 4)), rng.normal((m, 3))) if extra else None

        def loss(w):
            return discriminator_loss(disc, x_real, y, x_fake, y, w, eps,
                                      extra_class=extra, x_h=x_h)

        x_hat = eps[:, None] * x_real + (1.0 - eps[:, None]) * x_fake
        value, grad, _ = gradient_penalty(disc, disc.net.forward_cached(x_hat)[1])
        assert abs(loss(3.0).parts["penalty"] - value) <= 1e-12
        np.testing.assert_allclose(loss(3.0).grad_disc - loss(0.0).grad_disc,
                                   3.0 * grad, rtol=0, atol=1e-12)

    def test_gradient_including_penalty_matches_finite_differences(self):
        from cizsl.gradcheck import run_gradient_contract
        report = run_gradient_contract(seed=2, n_configs=3)
        by_name = {c.name: c for c in report.checks}
        assert by_name["discriminator_loss"].passed
        assert by_name["lipschitz_penalty"].passed


class TestExtraClassAblation:
    def test_runs_and_changes_the_objective(self):
        rng = RngStream(14, 0)
        gen = build_generator(GeneratorArch(text_dim=4, noise_dim=3, output_dim=5,
                                            embed_dim=4, hidden_dims=(6,)), rng)
        # head width K + 1 for the extra hallucinated class
        disc = build_discriminator(DiscriminatorArch(input_dim=5, n_classes=4,
                                                     hidden_dims=(6,)), rng)
        m = 5
        t_h, z_h = rng.normal((m, 4)), rng.normal((m, 3))
        t_s, z_s = rng.normal((m, 4)), rng.normal((m, 3))
        y = rng.integers(0, 3, m)
        x = rng.normal((m, 5))
        x_h = gen.forward(t_h, z_h)
        res = discriminator_loss(disc, x, y, gen.forward(t_s, z_s), y, 10.0,
                                 np.full(m, 0.5), extra_class=True, x_h=x_h)
        assert "cls_extra" in res.parts
        _, logits_h = disc.forward(x_h)
        value, d_logits, grad_div, _ = creativity_loss(logits_h, 1.0, SM, extra_class=True)
        assert np.isfinite(value) and value > 0.0
        # the critic's halved cross-entropy toward the extra class on x_h
        assert res.parts["cls_extra"] == pytest.approx(0.5 * value, abs=1e-12)
        assert grad_div == (0.0, 0.0)
        # cross-entropy toward the last column: its adjoint is the only negative one
        assert np.all(d_logits[:, -1] < 0.0) and np.all(d_logits[:, :-1] > 0.0)
