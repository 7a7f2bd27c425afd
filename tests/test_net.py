import tracemalloc

import numpy as np
import pytest

import cizsl.data
from cizsl.errors import DatasetFormatError, InvalidInputError, InvalidStateError
from cizsl.net import (Discriminator, Generator, Layer, MlpNetwork, _act, _act_d,
                       build_discriminator, build_generator, gradient_penalty,
                       load_checkpoint, save_checkpoint)
from cizsl.numerics import (RngStream, adam_init, adam_step, finite_diff_gradient,
                            relative_error)
from helpers import fail_halfway_through


def leaky(z, slope=0.2):
    return np.where(z > 0, z, slope * z)


def penalty_of_rows(disc, x_hat):
    """`gradient_penalty` of a fresh critic forward over the rows `x_hat` of
    one model, given with its model axis of 1."""
    return gradient_penalty(disc, disc.net.forward_cached(x_hat)[1])


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = MlpNetwork([Layer(np.zeros((3, 2)), np.zeros(3), "relu")])
        np.testing.assert_array_equal(net.forward(np.array([1.0, -1.0])), np.zeros(3))

    def test_zero_generator_with_relu_output_emits_zero_vector(self):
        gen = Generator(
            embed=MlpNetwork([Layer(np.zeros((3, 4)), np.zeros(3), "leaky_relu", 0.2)]),
            trunk=MlpNetwork([Layer(np.zeros((5, 5)), np.zeros(5), "relu")]),
            noise_dim=2)
        out = gen.forward(np.array([1.0, -2.0, 3.0, 0.5]), np.array([4.0, -4.0]))
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_identity_generator_reproduces_descriptor(self):
        # one identity layer each, no noise dims
        gen = Generator(
            embed=MlpNetwork([Layer(np.eye(4), np.zeros(4), "identity")]),
            trunk=MlpNetwork([Layer(np.eye(4), np.zeros(4), "identity")]),
            noise_dim=0)
        t = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_array_equal(gen.forward(t, np.zeros(0)), t)

    def test_generator_matches_straight_line_recomputation(self):
        rng = RngStream(21, 0)
        gen = build_generator(rng, text_dim=5, noise_dim=3, output_dim=4,
                              embed_dim=6, hidden_dims=(7,))
        t = rng.normal(5)
        z = rng.normal(3)
        # independent recomputation of the affine/activation chain
        e = leaky(gen.embed.layers[0].weight @ t + gen.embed.layers[0].bias)
        h = np.concatenate([e, z])
        h = leaky(gen.trunk.layers[0].weight @ h + gen.trunk.layers[0].bias)
        x = np.maximum(gen.trunk.layers[1].weight @ h + gen.trunk.layers[1].bias, 0.0)
        np.testing.assert_allclose(gen.forward(t, z), x, atol=1e-12)

    def test_discriminator_zero_network(self):
        disc = Discriminator(MlpNetwork([Layer(np.zeros((4, 2)), np.zeros(4))]),
                             n_classes=3)
        real, logits = disc.forward(np.array([5.0, -1.0]))
        assert real == 0.0
        np.testing.assert_array_equal(logits, np.zeros(3))

    def test_discriminator_linear_dot_product(self):
        w = np.zeros((3, 2))
        w[0] = [1.0, 2.0]
        disc = Discriminator(MlpNetwork([Layer(w, np.zeros(3))]), n_classes=2)
        real, _ = disc.forward(np.array([3.0, 4.0]))
        assert real == pytest.approx(11.0)

    def test_discriminator_matches_recomputation(self):
        rng = RngStream(22, 0)
        disc = build_discriminator(rng, input_dim=5, n_classes=4, hidden_dims=(6,))
        x = rng.normal(5)
        h = leaky(disc.net.layers[0].weight @ x + disc.net.layers[0].bias)
        out = disc.net.layers[1].weight @ h + disc.net.layers[1].bias
        real, logits = disc.forward(x)
        assert real == pytest.approx(out[0], abs=1e-12)
        np.testing.assert_allclose(logits, out[1:], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = RngStream(1, 0)
        gen = build_generator(rng, text_dim=4, noise_dim=2, output_dim=3)
        with pytest.raises(InvalidInputError):
            gen.forward(np.zeros(5), np.zeros(2))
        with pytest.raises(InvalidInputError):
            gen.forward(np.zeros(4), np.zeros(3))

    @pytest.mark.parametrize("dims", [dict(text_dim=0), dict(noise_dim=-1),
                                      dict(output_dim=0), dict(embed_dim=0),
                                      dict(hidden_dims=(4, 0))])
    def test_generator_builder_rejects_non_positive_dims(self, dims):
        args = dict(text_dim=4, noise_dim=2, output_dim=3, embed_dim=5, hidden_dims=(6,))
        with pytest.raises(InvalidInputError, match="generator dims must be positive"):
            build_generator(RngStream(0, 0), **{**args, **dims})

    @pytest.mark.parametrize("dims", [dict(input_dim=0), dict(hidden_dims=(0,)),
                                      dict(hidden_dims=(3, -1))])
    def test_discriminator_builder_rejects_non_positive_dims(self, dims):
        with pytest.raises(InvalidInputError, match="discriminator dims must be positive"):
            build_discriminator(RngStream(0, 0), **{"input_dim": 3, "n_classes": 2, **dims})

    @pytest.mark.parametrize("n_classes", [1, 0])
    def test_discriminator_builder_needs_two_classes(self, n_classes):
        with pytest.raises(InvalidInputError,
                           match=f"need at least 2 seen classes, got {n_classes}"):
            build_discriminator(RngStream(0, 0), input_dim=3, n_classes=n_classes)


class TestParamVector:
    def test_flatten_unflatten_bijection(self):
        rng = RngStream(33, 0)
        gen = build_generator(rng, text_dim=4, noise_dim=2, output_dim=3,
                              embed_dim=5, hidden_dims=(6,))
        theta = gen.param_vector()
        gen.set_param_vector(theta)
        np.testing.assert_array_equal(gen.param_vector(), theta)

        new = rng.normal(theta.size)
        gen.set_param_vector(new)
        np.testing.assert_array_equal(gen.param_vector(), new)

    def test_layers_are_views_of_one_buffer(self):
        rng = RngStream(34, 0)
        gen = build_generator(rng, text_dim=4, noise_dim=2, output_dim=3,
                              embed_dim=5, hidden_dims=(6,))
        disc = build_discriminator(rng, input_dim=3, n_classes=2)
        layers = gen.embed.layers + gen.trunk.layers
        for l in layers:
            assert np.shares_memory(l.weight, gen.params)
            assert np.shares_memory(l.bias, gen.params)
        for l in disc.net.layers:
            assert np.shares_memory(l.weight, disc.params)
        # the buffer concatenates (weight row-major, bias) per layer, embed first
        np.testing.assert_array_equal(
            gen.params, np.concatenate([np.concatenate([l.weight.ravel(), l.bias])
                                        for l in layers]))
        new = rng.normal(gen.n_params)
        gen.set_param_vector(new)
        np.testing.assert_array_equal(gen.embed.layers[0].bias, new[20:25])
        # param_vector is a copy, not the buffer
        theta = gen.param_vector()
        theta[:] = 0.0
        np.testing.assert_array_equal(gen.params, new)

    def test_generator_update_invalidates_both_caches(self):
        rng = RngStream(35, 0)
        gen = build_generator(rng, text_dim=4, noise_dim=2, output_dim=3,
                              embed_dim=5, hidden_dims=(6,))
        _, cache = gen.forward_cached(rng.normal((2, 4)), rng.normal((2, 2)))
        gen.set_param_vector(gen.param_vector())
        with pytest.raises(InvalidStateError):
            gen.embed.backward(cache.embed, np.zeros((2, 5)))
        with pytest.raises(InvalidStateError):
            gen.trunk.backward(cache.trunk, np.zeros((2, 3)))

    def test_adam_step_invalidates_critic_cache(self):
        rng = RngStream(36, 0)
        disc = build_discriminator(rng, input_dim=3, n_classes=2)
        x = rng.normal((4, 3))
        _, cache = disc.forward_cached(x)
        adam_step(disc.params, rng.normal(disc.n_params), adam_init(disc.n_params))
        disc.net.params_changed()
        with pytest.raises(InvalidStateError):
            disc.backward(cache, np.zeros(4), np.zeros((4, 2)))
        _, fresh = disc.forward_cached(x)
        disc.backward(fresh, np.zeros(4), np.zeros((4, 2)))

    def test_wrong_length_rejected(self):
        rng = RngStream(1, 0)
        disc = build_discriminator(rng, input_dim=3, n_classes=2)
        with pytest.raises(InvalidInputError):
            disc.set_param_vector(np.zeros(disc.n_params + 1))


class TestBackward:
    def test_linear_layer_closed_form(self):
        # y = W x, scalarized by d_out: dW = d_out x^T, dx = W^T d_out
        w0 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        net = MlpNetwork([Layer(w0.copy(), np.zeros(3), "identity")])
        x = np.array([0.5, -1.5])
        d_out = np.array([1.0, -2.0, 0.5])
        _, cache = net.forward_cached(x)
        flat, d_in = net.backward(cache, d_out)
        expect_w = np.outer(d_out, x)
        np.testing.assert_allclose(flat[:6], expect_w.ravel(), atol=1e-14)
        np.testing.assert_allclose(flat[6:], d_out, atol=1e-14)
        np.testing.assert_allclose(d_in, w0.T @ d_out, atol=1e-14)

    def test_dead_relu_kills_upstream_gradients(self):
        net = MlpNetwork([Layer(-np.ones((3, 2)), -np.ones(3), "relu"),
                          Layer(np.ones((1, 3)), np.zeros(1), "identity")])
        x = np.array([1.0, 1.0])  # pre-activations all negative
        _, cache = net.forward_cached(x)
        flat, d_in = net.backward(cache, np.array([1.0]))
        n_first = 3 * 2 + 3
        np.testing.assert_array_equal(flat[:n_first], np.zeros(n_first))
        np.testing.assert_array_equal(d_in, np.zeros(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = RngStream(100 + seed, 0)
        net = MlpNetwork([
            Layer(rng.normal((6, 4)), rng.normal(6), "leaky_relu", 0.2),
            Layer(rng.normal((5, 6)), rng.normal(5), "relu"),
            Layer(rng.normal((3, 5)), rng.normal(3), "identity"),
        ])
        x = rng.normal(4)
        w = rng.normal(3)
        theta0 = net.param_vector()

        def f(theta):
            net.set_param_vector(theta)
            return float(w @ net.forward(x))

        _, cache = net.forward_cached(x)
        analytic, d_in = net.backward(cache, w)
        fd = finite_diff_gradient(f, theta0.copy(), 1e-5)
        net.set_param_vector(theta0)
        assert relative_error(analytic, fd) < 1e-4

        fd_x = finite_diff_gradient(lambda v: float(w @ net.forward(v)), x.copy(), 1e-6)
        assert relative_error(d_in, fd_x) < 1e-6

    def test_backward_is_linear_in_output_gradient(self):
        rng = RngStream(44, 0)
        net = MlpNetwork([Layer(rng.normal((4, 3)), rng.normal(4), "leaky_relu", 0.2),
                          Layer(rng.normal((2, 4)), rng.normal(2), "identity")])
        x = rng.normal((5, 3))
        _, cache = net.forward_cached(x)
        d1 = rng.normal((5, 2))
        d2 = rng.normal((5, 2))
        g1, _ = net.backward(cache, d1)
        g2, _ = net.backward(cache, d2)
        g12, _ = net.backward(cache, d1 + d2)
        np.testing.assert_allclose(g12, g1 + g2, atol=1e-12)

    def test_stale_cache_rejected(self):
        rng = RngStream(45, 0)
        net = MlpNetwork([Layer(rng.normal((2, 2)), rng.normal(2), "relu")])
        _, cache = net.forward_cached(np.zeros(2))
        net.set_param_vector(net.param_vector() * 2.0)
        with pytest.raises(InvalidStateError):
            net.backward(cache, np.zeros(2))


class TestGradientPenalty:
    def d_linear(self, w_real):
        # single identity layer; row 0 is the critic head, one class row zero
        w = np.zeros((2, len(w_real)))
        w[0] = w_real
        return Discriminator(MlpNetwork([Layer(w, np.zeros(2))]), n_classes=1)

    def test_unit_norm_critic_has_zero_penalty_and_gradient(self):
        disc = self.d_linear([0.6, 0.8])
        penalty, grad, _ = penalty_of_rows(disc, np.array([[[3.0, -1.0]]]))
        assert penalty.shape == (1,)
        assert penalty[0] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grad, np.zeros(disc.n_params), atol=1e-12)

    def test_symbolic_gradient_for_linear_critic(self):
        # ||grad|| = 5, penalty (5-1)^2 = 16, d/dw = 2*4*w/5
        disc = self.d_linear([3.0, 4.0])
        penalty, grad, _ = penalty_of_rows(disc, np.array([[[0.0, 0.0]]]))
        assert penalty[0] == pytest.approx(16.0)
        np.testing.assert_allclose(grad[:2], [4.8, 6.4], atol=1e-12)
        # bias and class-head rows receive nothing
        np.testing.assert_allclose(grad[2:], np.zeros(disc.n_params - 2), atol=1e-12)

    def test_zero_gradient_input_documented_subgradient(self):
        disc = self.d_linear([0.0, 0.0])
        penalty, grad, _ = penalty_of_rows(disc, np.array([[[1.0, 1.0]]]))
        assert penalty[0] == pytest.approx(1.0)
        np.testing.assert_array_equal(grad, np.zeros(disc.n_params))

    @pytest.mark.parametrize("seed", range(5))
    def test_one_hidden_layer_matches_finite_differences(self, seed):
        rng = RngStream(200 + seed, 0)
        disc = build_discriminator(rng, input_dim=4, n_classes=3, hidden_dims=(6,))
        x_hat = rng.normal((1, 3, 4))
        _, analytic, _ = penalty_of_rows(disc, x_hat)
        theta0 = disc.param_vector()

        def f(theta):
            disc.set_param_vector(theta)
            val, _, _ = penalty_of_rows(disc, x_hat)
            return val[0]

        fd = finite_diff_gradient(f, theta0.copy(), 1e-5)
        disc.set_param_vector(theta0)
        assert relative_error(analytic, fd) < 1e-3


    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_cache_slice_matches_fresh_forward(self, seed):
        # the critic loss's one forward stacks [fake; real; x_h; x_hat]; the
        # penalty on its x_hat rows must be the penalty of x_hat alone
        rng = RngStream(400 + seed, 0)
        disc = build_discriminator(rng, input_dim=6, n_classes=5, hidden_dims=(9,))
        disc.set_param_vector(0.5 * rng.normal(disc.n_params))
        m = 7
        fake, real = rng.normal((1, m, 6)), rng.normal((1, m, 6))
        x_h = rng.normal((1, m, 6))
        eps = rng.uniform(0.0, 1.0, (1, m, 1))
        x_hat = eps * real + (1.0 - eps) * fake
        _, cache = disc.forward_cached(np.concatenate([fake, real, x_h, x_hat], axis=1))
        value, grad, rows = gradient_penalty(disc, cache.rows(slice(3 * m, None)))
        value_1, grad_1, rows_1 = penalty_of_rows(disc, x_hat)
        assert abs(value[0] - value_1[0]) <= 1e-12
        np.testing.assert_allclose(grad, grad_1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rows, rows_1, rtol=0, atol=1e-12)
        # piecewise-linear layers: the input gradient has no bias dependence
        for b in disc.net._views(grad[None])[1]:
            np.testing.assert_array_equal(b, 0.0)


class TestStack:
    def members(self, n=3, seed=60):
        rng = RngStream(seed, 0)
        gens = [build_generator(rng, text_dim=4, noise_dim=2, output_dim=3,
                                embed_dim=5, hidden_dims=(6,))
                for _ in range(n)]
        discs = [build_discriminator(rng, input_dim=3, n_classes=2, hidden_dims=(5,))
                 for _ in range(n)]
        for model in gens + discs:
            model.set_param_vector(0.5 * rng.normal(model.n_params))
        return gens, discs, rng

    def test_members_become_views_of_their_rows(self):
        gens, discs, rng = self.members()
        before = [g.param_vector() for g in gens]
        stack = Generator.stack(gens)
        assert stack.params.shape == (3, gens[0].n_params)
        for b, g in enumerate(gens):
            np.testing.assert_array_equal(stack.params[b], before[b])
            assert np.shares_memory(g.params, stack.params[b])
            for l in g.embed.layers + g.trunk.layers:
                assert l.weight.ndim == 2 and np.shares_memory(l.weight, stack.params[b])
        gens[1].set_param_vector(np.zeros(gens[1].n_params))
        np.testing.assert_array_equal(stack.params[1], 0.0)
        np.testing.assert_array_equal(stack.params[0], before[0])

    def test_stacked_passes_are_bit_equal_per_model(self):
        gens, discs, rng = self.members()
        gen, disc = Generator.stack(gens), Discriminator.stack(discs)
        t, z = rng.normal((3, 7, 4)), rng.normal((3, 7, 2))
        x, g_cache = gen.forward_cached(t, z)
        (real, logits), d_cache = disc.forward_cached(x)
        d_real, d_logits = rng.normal((3, 7)), rng.normal((3, 7, 2))
        grad_d, d_x = disc.backward(d_cache, d_real, d_logits)
        grad_g, d_t, d_z = gen.backward(g_cache, d_x)
        pen, grad_pen, rows = gradient_penalty(disc, d_cache)
        assert grad_g.shape == (3, gen.n_params) and pen.shape == (3,)
        for b in range(3):
            x_b, gc = gens[b].forward_cached(t[b], z[b])
            (real_b, logits_b), dc = discs[b].forward_cached(x_b)
            gd_b, dx_b = discs[b].backward(dc, d_real[b], d_logits[b])
            gg_b, dt_b, dz_b = gens[b].backward(gc, dx_b)
            # the penalty answers per model: B = 1 for a model alone
            pen_b, gp_b, rows_b = gradient_penalty(discs[b], dc)
            for stacked, single in ((x[b], x_b), (real[b], real_b), (logits[b], logits_b),
                                    (grad_d[b], gd_b), (d_x[b], dx_b), (grad_g[b], gg_b),
                                    (d_t[b], dt_b), (d_z[b], dz_b), (pen[b], pen_b[0]),
                                    (grad_pen[b], gp_b), (rows[b], rows_b[0])):
                np.testing.assert_array_equal(stacked, single)

    def test_stack_update_invalidates_member_caches(self):
        gens, discs, rng = self.members()
        x = rng.normal((4, 3))
        _, early = discs[1].forward_cached(x)  # made before stacking
        disc = Discriminator.stack(discs)
        _, cache = discs[0].forward_cached(x)
        # as many updates as the member had: a stack clock starting from 0
        # would now read the early cache's version
        assert early.version >= 1
        for _ in range(early.version):
            disc.net.params_changed()
        for member, c in ((discs[0], cache), (discs[1], early)):
            with pytest.raises(InvalidStateError, match="stale"):
                member.backward(c, np.zeros(4), np.zeros((4, 2)))

    def test_stack_rows_need_the_model_axis(self):
        gens, discs, rng = self.members()
        disc = Discriminator.stack(discs)
        with pytest.raises(InvalidInputError, match="3 models"):
            disc.forward(rng.normal((4, 3)))
        with pytest.raises(InvalidInputError):
            disc.forward(rng.normal((2, 4, 3)))

    def test_architectures_must_match(self):
        rng = RngStream(61, 0)
        nets = [MlpNetwork([Layer(rng.normal((2, 3)), np.zeros(2), "relu")]),
                MlpNetwork([Layer(rng.normal((2, 3)), np.zeros(2), "identity")])]
        with pytest.raises(InvalidInputError, match="architecture"):
            MlpNetwork.stack(nets)

    def test_checkpoint_of_a_stack_rejected(self, tmp_path):
        gens, discs, _ = self.members()
        with pytest.raises(InvalidInputError, match="one model"):
            save_checkpoint(tmp_path / "c.czsl", Generator.stack(gens),
                            Discriminator.stack(discs))
        save_checkpoint(tmp_path / "c.czsl", gens[2], discs[2])
        gen, disc = load_checkpoint(tmp_path / "c.czsl")
        np.testing.assert_array_equal(gen.params, gens[2].params)
        np.testing.assert_array_equal(disc.params, discs[2].params)


class TestLeakyRelu:
    @pytest.mark.parametrize("slope", [0.0, 1e-3, 0.1, 0.2, 1 / 3, 0.49, 0.5, 0.7, 1.0])
    def test_value_and_derivative_match_the_masked_forms(self, slope):
        z = RngStream(62, 0).normal(200)
        z[:4] = [0.0, -0.0, np.nan, -np.inf]
        with np.errstate(invalid="ignore"):  # 0 * -inf at slope 0
            h = _act("leaky_relu", z.copy(), slope)
            np.testing.assert_array_equal(h, np.where(z > 0.0, z, slope * z))
        # the derivative is read from the output, positive exactly where z is
        np.testing.assert_array_equal(_act_d("leaky_relu", h, slope),
                                      np.where(z > 0.0, 1.0, slope))

    @pytest.mark.parametrize("slope", [-0.1, 1.5, np.nan])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(InvalidInputError, match="slope"):
            Layer(np.zeros((2, 2)), np.zeros(2), "leaky_relu", slope)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = RngStream(55, 0)
        gen = build_generator(rng, text_dim=6, noise_dim=3, output_dim=5,
                              embed_dim=4, hidden_dims=(7,))
        disc = build_discriminator(rng, input_dim=5, n_classes=4)
        path = tmp_path / "model.czsl"
        save_checkpoint(path, gen, disc)
        gen2, disc2 = load_checkpoint(path)
        np.testing.assert_array_equal(gen.param_vector(), gen2.param_vector())
        np.testing.assert_array_equal(disc.param_vector(), disc2.param_vector())
        assert gen2.noise_dim == 3
        assert disc2.n_classes == 4
        for a, b in zip(gen.trunk.layers, gen2.trunk.layers):
            assert a.activation == b.activation
            assert a.slope == b.slope
        # saving again reproduces the same bytes
        path2 = tmp_path / "model2.czsl"
        save_checkpoint(path2, gen2, disc2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.czsl"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DatasetFormatError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        rng = RngStream(56, 0)
        gen = build_generator(rng, text_dim=2, noise_dim=1, output_dim=2)
        disc = build_discriminator(rng, input_dim=2, n_classes=2)
        path = tmp_path / "model.czsl"
        save_checkpoint(path, gen, disc)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="version"):
            load_checkpoint(path)

    def saved(self, tmp_path):
        rng = RngStream(57, 0)
        gen = build_generator(rng, text_dim=3, noise_dim=2, output_dim=4,
                              embed_dim=3, hidden_dims=(5,))
        disc = build_discriminator(rng, input_dim=4, n_classes=2)
        path = tmp_path / "model.czsl"
        save_checkpoint(path, gen, disc)
        return path

    def test_sigmoid_tag_rejected(self, tmp_path):
        # tag 3 was a sigmoid layer; only piecewise-linear layers are supported
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        # magic, version, network count, noise dim, layer count, in, out
        assert raw[26] == 2  # the embed layer is a leaky relu
        raw[26] = 3
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="tag 3"):
            load_checkpoint(path)

    def test_failed_write_leaves_the_older_checkpoint(self, tmp_path, monkeypatch):
        # the checkpoint is written as model.czsl.tmp and moved into place
        path = self.saved(tmp_path)
        before = path.read_bytes()
        gen, disc = load_checkpoint(path)
        gen.set_param_vector(gen.param_vector() + 1.0)
        monkeypatch.setattr(cizsl.data, "open", fail_halfway_through("model.czsl.tmp"),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, gen, disc)
        monkeypatch.undo()
        assert [f.name for f in tmp_path.iterdir()] == ["model.czsl"]
        assert path.read_bytes() == before

    @pytest.mark.parametrize("edit", ["drop", "append"])
    def test_parameter_bytes_must_match_headers(self, tmp_path, edit):
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] if edit == "drop" else raw + bytes(8))
        with pytest.raises(DatasetFormatError,
                           match="truncated" if edit == "drop" else "trailing"):
            load_checkpoint(path)

    def test_oversized_headers_rejected_before_allocating(self, tmp_path):
        # 90 bytes whose headers declare three 3000 x 3000 layers (216 MB)
        header = b"CZSL" + (1).to_bytes(2, "little") + (3).to_bytes(4, "little") \
            + (0).to_bytes(4, "little")
        layer = (1).to_bytes(4, "little") + (3000).to_bytes(4, "little") \
            + (3000).to_bytes(4, "little") + bytes([0]) + bytes(8)
        path = tmp_path / "huge.czsl"
        path.write_bytes((header + 3 * layer).ljust(90, b"\0"))
        tracemalloc.start()
        try:
            with pytest.raises(DatasetFormatError, match="truncated"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
