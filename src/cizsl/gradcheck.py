"""Finite-difference contract over every analytic gradient in the package.

Each configuration builds tiny random networks and batches, then compares
analytic parameter gradients against central differences. Penalty-bearing
objectives are held to 1e-3 relative error, everything else to 1e-4.
The minmax normalization inside the creativity term treats its batch
extremes as constants, so the finite-difference closures freeze the bounds
captured at the evaluation point (the stop-gradient semantics being
differentiated).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .divergence import (MODES, DivergenceParams, entropy_loss_batch, minmax_bounds,
                         sm_divergence, sm_divergence_grads)
from .losses import creativity_loss, discriminator_loss, generator_loss, visual_pivot
from .net import build_discriminator, build_generator, gradient_penalty
from .numerics import RngStream, finite_diff_gradient, relative_error, softmax

TOL_DEFAULT = 1e-4
TOL_PENALTY = 1e-3


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


@dataclass
class GradReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [f"gradcheck {c.name}: max_rel_err={c.max_rel_err:.6g} "
                f"tol={c.tolerance:.6g} {'PASS' if c.passed else 'FAIL'}"
                for c in self.checks]


def _rand_simplex(rng: RngStream, k: int) -> np.ndarray:
    p = rng.uniform(0.05, 1.0, k)
    return p / p.sum()


def _tiny_models(rng: RngStream, k_cls: int):
    t_dim, z_dim, x_dim = 4, 3, 5
    gen = build_generator(rng, t_dim, z_dim, x_dim, embed_dim=4, hidden_dims=(6,))
    disc = build_discriminator(rng, x_dim, k_cls, hidden_dims=(6,))
    # move to a generic parameter point (random biases included): with the
    # builders' zero biases, an all-dead generated row would park every
    # hidden pre-activation exactly on the leaky-relu kink, where central
    # differences are not a valid oracle
    gen.set_param_vector(0.5 * rng.normal(gen.n_params))
    disc.set_param_vector(0.5 * rng.normal(disc.n_params))
    return gen, disc, t_dim, z_dim, x_dim


def _div_params(rng: RngStream, i: int) -> DivergenceParams:
    # rotate through the family so every mode's gradients get exercised;
    # DivergenceParams pins what the mode does not leave free
    gamma = float(rng.uniform(0.3, 2.5))
    if abs(gamma - 1.0) < 0.05:
        gamma = 1.2
    beta = float(rng.uniform(-0.5, 2.5))
    if abs(beta - 1.0) < 0.05:
        beta = 0.5
    return DivergenceParams(mode=MODES[i % len(MODES)], gamma=gamma, beta=beta)


def _entropy_bounds(logits: np.ndarray, params: DivergenceParams):
    """Min-max bounds of the batch's entropy losses, frozen by the closures."""
    return minmax_bounds(entropy_loss_batch(softmax(logits), params)[0])


def _param_fd(model, objective) -> np.ndarray:
    """Central differences of `objective()` over the parameters of `model`
    (a Generator or Discriminator), which are restored afterwards."""
    theta0 = model.param_vector()

    def f(theta):
        model.set_param_vector(theta)
        return objective()

    fd = finite_diff_gradient(f, theta0.copy(), 1e-6)
    model.set_param_vector(theta0)
    return fd


def _free_param_errors(params: DivergenceParams, objective, grads):
    """(name, relative error) of each analytic derivative in `grads`, the
    d/dgamma and d/dbeta of `objective(params)`, against a central
    difference, for the parameters the mode leaves free."""
    for name in params.free:
        grad = grads[("gamma", "beta").index(name)]
        fd = finite_diff_gradient(
            lambda v: objective(replace(params, **{name: float(v[0])})),
            np.array([getattr(params, name)]), 1e-6)
        yield name, relative_error(np.array([grad]), fd)


def run_gradient_contract(seed: int = 0, n_configs: int = 20) -> GradReport:
    """Check every loss family over `n_configs` random configurations."""
    rng = RngStream(seed, 900)
    worst: dict[str, float] = {}

    def record(name: str, err: float):
        worst[name] = max(worst.get(name, 0.0), err)

    for i in range(n_configs):
        k_cls = 3 + i % 3
        m = 4
        gen, disc, t_dim, z_dim, x_dim = _tiny_models(rng, k_cls)
        params = _div_params(rng, i)

        # divergence value gradients (d/dp and d/d(gamma, beta))
        p = _rand_simplex(rng, k_cls)
        q = _rand_simplex(rng, k_cls)
        dp, (dg, db) = sm_divergence_grads(p, q, params)

        def div_of_raw(raw, q=q, params=params):
            w = np.abs(raw) / np.abs(raw).sum()
            return sm_divergence(w, q, params)

        # differentiate through the simplex projection to stay on it
        raw0 = p.copy()
        fd_raw = finite_diff_gradient(lambda r: div_of_raw(r), raw0, 1e-6)
        s = raw0.sum()
        jac = (np.eye(k_cls) * s - np.outer(raw0, np.ones(k_cls))) / s ** 2
        record("divergence_dp", relative_error(jac.T @ dp, fd_raw))

        for name, err in _free_param_errors(
                params, lambda dp: sm_divergence(p, q, dp), (dg, db)):
            record(f"divergence_d{name}", err)

        # logits of a hallucinated batch for the creativity-term families,
        # drawn here so that every later draw keeps its place in the stream
        logits0 = rng.normal((m, k_cls))

        # penalty: value + parameter gradient
        x_hat = rng.normal((1, m, x_dim))
        _, grad_pen, _ = gradient_penalty(disc, disc.net.forward_cached(x_hat)[1])
        fd = _param_fd(disc, lambda: gradient_penalty(
            disc, disc.net.forward_cached(x_hat)[1])[0][0])
        record("lipschitz_penalty", relative_error(grad_pen, fd))

        # creativity term w.r.t. its logits and (gamma, beta), bounds frozen
        t_h = rng.normal((1, m, t_dim))
        z_h = rng.normal((1, m, z_dim))
        lam = float(rng.uniform(0.3, 2.0))
        bounds = _entropy_bounds(logits0, params)
        _, d_logits, grad_div, _ = creativity_loss(logits0, lam, params)
        fd = finite_diff_gradient(
            lambda lf: creativity_loss(lf.reshape(m, k_cls), lam, params,
                                       norm_bounds=bounds)[0],
            logits0.ravel().copy(), 1e-6)
        record("creativity_loss_dlogits", relative_error(d_logits.ravel(), fd))

        for name, err in _free_param_errors(
                params, lambda dp: creativity_loss(logits0, lam, dp, norm_bounds=bounds)[0],
                grad_div):
            record(f"creativity_loss_d{name}", err)

        # visual pivot w.r.t. the generated rows
        x_p = rng.normal((1, m + 1, x_dim))
        y_p = np.arange(m + 1)[None] % 2
        centers_p = rng.normal((2, x_dim))
        _, d_x_p = visual_pivot(x_p, y_p, centers_p)
        fd = finite_diff_gradient(
            lambda xf: visual_pivot(xf.reshape(x_p.shape), y_p, centers_p)[0][0],
            x_p.ravel().copy(), 1e-6)
        record("visual_pivot", relative_error(d_x_p.ravel(), fd))

        # full generator loss (all four terms, the chain from the creativity
        # term's logits into G included) and critic loss incl. the penalty
        # (double backprop path), at B = 1; the extra-class variants fold the
        # labels into the first k_cls - 1 classes, so they draw nothing
        x_h = gen.forward(t_h, z_h)
        bounds_c = _entropy_bounds(disc.forward(x_h)[1][0], params)
        y_s = rng.integers(0, k_cls, (1, m))
        t_s = rng.normal((1, m, t_dim))
        z_s = rng.normal((1, m, z_dim))
        centers_all = rng.normal((k_cls, x_dim))
        x_real = rng.normal((1, m, x_dim))
        y_real = rng.integers(0, k_cls, (1, m))
        eps = rng.uniform(0.0, 1.0, (1, m))
        gp_w = float(rng.uniform(0.5, 5.0))
        x_fake = gen.forward(t_s, z_s)
        for suffix, extra in (("", False), ("_extra_class", True)):
            n_seen = k_cls - 1 if extra else k_cls
            y_g, y_d = y_s % n_seen, y_real % n_seen

            def gen_loss():
                return generator_loss(gen, disc, t_s, y_g, z_s, t_h, z_h, [lam], [params],
                                      centers_all, extra_class=extra,
                                      norm_bounds=[bounds_c])

            def disc_loss():
                return discriminator_loss(disc, x_real, y_d, x_fake, y_g, gp_w, eps,
                                          extra_class=extra, x_h=x_h)

            record("generator_loss" + suffix, relative_error(
                gen_loss().grad_gen, _param_fd(gen, lambda: gen_loss().value[0])))
            record("discriminator_loss" + suffix, relative_error(
                disc_loss().grad_disc, _param_fd(disc, lambda: disc_loss().value[0])))

    tolerances = {"lipschitz_penalty": TOL_PENALTY,
                  "discriminator_loss": TOL_PENALTY,
                  "discriminator_loss_extra_class": TOL_PENALTY}
    report = GradReport()
    for name in sorted(worst):
        report.checks.append(CheckResult(name=name, max_rel_err=worst[name],
                                         tolerance=tolerances.get(name, TOL_DEFAULT)))
    return report
