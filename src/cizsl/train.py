"""Alternating adversarial training: per loop, the hallucinated batch is
built from interpolated seen-class descriptors, the critic takes `n_critic`
Adam steps, then the generator and the divergence parameters each take one.
Also hosts the balancing-weight cross-validation over a class-level
train/validation split.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import ZslDataset, class_means, split_train_val
from .divergence import DivergenceParams
from .errors import InvalidConfigError, InvalidInputError, InvalidSplitError, TrainingDivergedError
from .evaluate import ClassCenters, seen_unseen_curve, synthesize_centers
from .losses import ALPHA_MODES, discriminator_loss, generator_loss, hallucinate_batch
from .net import (DiscriminatorArch, Generator, GeneratorArch, build_discriminator,
                  build_generator, Discriminator)
from .numerics import (RngStream, STREAM_ALPHA, STREAM_EVAL, STREAM_GP, STREAM_INIT,
                       STREAM_NOISE, STREAM_SHUFFLE, _splitmix64, adam_init, adam_step)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on; fully JSON-serializable."""

    lambda_creativity: float = 1.0
    n_critic: int = 5
    n_steps: int = 3000
    batch_size: int = 64
    learning_rate: float = 0.001
    adam_beta1: float = 0.5
    adam_beta2: float = 0.9
    alpha_mode: str = "uniform-0.2-0.8"
    divergence_mode: str = "sharma-mittal"
    gamma_init: float = 2.0
    beta_init: float = 0.5
    learn_gamma: bool = True
    learn_beta: bool = True
    gp_weight: float = 10.0
    noise_dim: int = 16
    text_embed_dim: int = 64
    hidden_dim: int = 128
    creativity_enabled: bool = True
    extra_class_for_hallucinated: bool = False
    seed: int = 0
    eval_interval: int = 100

    def validate(self) -> "TrainConfig":
        if not self.lambda_creativity >= 0:
            raise InvalidConfigError(
                f"lambda_creativity must be >= 0, got {self.lambda_creativity}")
        if not self.learning_rate > 0:
            raise InvalidConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.n_critic < 1:
            raise InvalidConfigError(f"n_critic must be >= 1, got {self.n_critic}")
        if self.n_steps < 0:
            raise InvalidConfigError(f"n_steps must be >= 0, got {self.n_steps}")
        if self.batch_size < 2:
            raise InvalidConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.alpha_mode not in ALPHA_MODES:
            raise InvalidConfigError(
                f"alpha_mode {self.alpha_mode!r} not in {ALPHA_MODES}")
        if not self.gp_weight >= 0:
            raise InvalidConfigError(f"gp_weight must be >= 0, got {self.gp_weight}")
        if self.eval_interval < 1:
            raise InvalidConfigError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.noise_dim < 1 or self.text_embed_dim < 1 or self.hidden_dim < 1:
            raise InvalidConfigError("network dims must be >= 1")
        self.divergence().validate()
        return self

    def divergence(self) -> DivergenceParams:
        pinned = {"kl": (1.0, 1.0), "bhattacharyya": (0.5, 1.0)}
        gamma, beta = pinned.get(self.divergence_mode, (self.gamma_init, self.beta_init))
        if self.divergence_mode == "renyi":
            beta = 1.0
        if self.divergence_mode == "tsallis":
            beta = gamma
        return DivergenceParams(mode=self.divergence_mode, gamma=gamma, beta=beta,
                                learn_gamma=self.learn_gamma, learn_beta=self.learn_beta)


@dataclass
class TrainingHistory:
    """Per-iteration scalars; the Wasserstein gap is kept in memory only."""

    iteration: np.ndarray
    loss_g: np.ndarray
    loss_d: np.ndarray
    mean_entropy: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    w_gap: np.ndarray

    CSV_COLUMNS = ("iteration", "loss_g", "loss_d", "mean_entropy", "gamma", "beta")

    def to_csv(self) -> str:
        lines = [",".join(self.CSV_COLUMNS)]
        for i in range(self.iteration.size):
            row = [str(int(self.iteration[i]))]
            for col in self.CSV_COLUMNS[1:]:
                row.append(repr(float(getattr(self, col)[i])))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


@dataclass
class TrainedModel:
    generator: Generator
    discriminator: Discriminator
    divergence: DivergenceParams
    history: TrainingHistory


def train(dataset: ZslDataset, config: TrainConfig,
          snapshot_fn=None) -> TrainedModel:
    """Run the full training procedure; deterministic given the seed.

    `snapshot_fn(iteration, generator, discriminator, divergence)` is called
    every `eval_interval` iterations (checkpointing, validation metrics).
    """
    config.validate()
    seen_ids = np.sort(dataset.seen_class_ids)
    if seen_ids.size < 2:
        raise InvalidInputError("training needs at least 2 seen classes")
    m = config.batch_size

    seen_desc = np.array([dataset.descriptor_of(int(c)) for c in seen_ids])
    seen_rows = np.isin(dataset.labels, seen_ids)
    x_pool = dataset.features[seen_rows]
    id_to_index = {int(c): i for i, c in enumerate(seen_ids)}
    y_pool = np.array([id_to_index[int(l)] for l in dataset.labels[seen_rows]])
    centers = class_means(dataset, seen_ids)

    root = RngStream(config.seed)
    init_rng = root.substream(STREAM_INIT)
    noise_rng = root.substream(STREAM_NOISE)
    alpha_rng = root.substream(STREAM_ALPHA)
    shuffle_rng = root.substream(STREAM_SHUFFLE)
    gp_rng = root.substream(STREAM_GP)

    n_head = seen_ids.size + (1 if config.extra_class_for_hallucinated else 0)
    gen = build_generator(GeneratorArch(
        text_dim=dataset.text_dim, noise_dim=config.noise_dim,
        output_dim=dataset.feature_dim, embed_dim=config.text_embed_dim,
        hidden_dims=(config.hidden_dim,)), init_rng)
    disc = build_discriminator(DiscriminatorArch(
        input_dim=dataset.feature_dim, n_classes=n_head,
        hidden_dims=(config.hidden_dim,)), init_rng)
    div = config.divergence()

    opt = dict(lr=config.learning_rate, beta1=config.adam_beta1, beta2=config.adam_beta2)
    state_g = adam_init(gen.n_params, **opt)
    state_d = adam_init(disc.n_params, **opt)
    u = div.learnable_vector()
    state_e = adam_init(u.size, **opt)

    hist = {k: [] for k in ("iteration", "loss_g", "loss_d", "mean_entropy",
                            "gamma", "beta", "w_gap")}
    use_creativity = config.creativity_enabled
    extra = config.extra_class_for_hallucinated

    for it in range(1, config.n_steps + 1):
        try:
            t_h, _, _ = hallucinate_batch(seen_desc, shuffle_rng, alpha_rng,
                                          config.alpha_mode, m)
            z_h = noise_rng.normal((m, config.noise_dim))
            # every critic step's draws at once, in each stream's order
            idx = shuffle_rng.integers(0, x_pool.shape[0], (config.n_critic, m))
            z = noise_rng.normal((config.n_critic * m, config.noise_dim))
            eps = gp_rng.uniform(0.0, 1.0, (config.n_critic, m))
            # G is frozen in the critic loop: one pass for all its fake rows
            y = y_pool[idx]
            t = seen_desc[y.ravel()]
            if extra:
                t, z = np.concatenate([t, t_h]), np.concatenate([z, z_h])
            x_gen = gen.forward(t, z)
            x_h = x_gen[config.n_critic * m:] if extra else None

            d_losses, gaps = [], []
            for k in range(config.n_critic):
                res = discriminator_loss(disc, x_pool[idx[k]], y[k],
                                         x_gen[k * m:(k + 1) * m], y[k],
                                         config.gp_weight, eps[k], extra_class=extra,
                                         x_h=x_h)
                adam_step(disc.params, res.grad_disc, state_d)
                disc.net.params_changed()
                d_losses.append(res.value)
                gaps.append(res.parts["wasserstein_gap"])

            y_g = shuffle_rng.integers(0, seen_ids.size, m)
            t_g = seen_desc[y_g]
            z_g = noise_rng.normal((m, config.noise_dim))
            res_g = generator_loss(gen, disc, t_g, y_g, z_g, t_h, z_h,
                                   config.lambda_creativity, div, centers,
                                   creativity_enabled=use_creativity, extra_class=extra)
            adam_step(gen.params, res_g.grad_gen, state_g)
            gen.params_changed()

            if u.size and use_creativity:
                grad_u = div.learnable_gradient(*res_g.grad_divergence)
                adam_step(u, grad_u, state_e)
                div = div.with_learnable_vector(u)
        except (InvalidInputError, FloatingPointError, OverflowError) as e:
            # all loop inputs are machine-generated, so a rejected value here
            # means the optimization blew up numerically
            raise TrainingDivergedError(
                f"training diverged at iteration {it}: {e}", iteration=it) from e

        loss_d = float(np.mean(d_losses))
        if not (np.isfinite(res_g.value) and np.isfinite(loss_d)):
            raise TrainingDivergedError(
                f"training diverged at iteration {it}: "
                f"loss_g={res_g.value}, loss_d={loss_d}", iteration=it)

        hist["iteration"].append(it)
        hist["loss_g"].append(res_g.value)
        hist["loss_d"].append(loss_d)
        hist["mean_entropy"].append(res_g.parts["mean_entropy"])
        hist["gamma"].append(div.gamma)
        hist["beta"].append(div.beta)
        hist["w_gap"].append(abs(float(np.mean(gaps))))

        if snapshot_fn is not None and it % config.eval_interval == 0:
            snapshot_fn(it, gen, disc, div)

    history = TrainingHistory(**{k: np.array(v) for k, v in hist.items()})
    return TrainedModel(generator=gen, discriminator=disc, divergence=div,
                        history=history)


# --------------------------------------------------------------------------
# Balancing-weight cross-validation
# --------------------------------------------------------------------------

def validation_auc(model_gen: Generator, train_ds: ZslDataset,
                   samples_per_center: int = 30, seed: int = 0,
                   metric: str = "l2") -> float:
    """Seen/unseen AUC on a split dataset whose pseudo-unseen classes carry
    their held-out instances: real centers for seen classes, synthesized
    centers for the pseudo-unseen ones."""
    seen_ids = np.sort(train_ds.seen_class_ids)
    val_ids = np.sort(train_ds.unseen_class_ids)
    seen_centers = ClassCenters(class_ids=seen_ids,
                                centers=class_means(train_ds, seen_ids))
    descriptors = {int(c): train_ds.descriptor_of(int(c)) for c in val_ids}
    unseen_centers = synthesize_centers(
        model_gen, descriptors, samples_per_center,
        RngStream(seed, STREAM_EVAL))
    curve = seen_unseen_curve(train_ds.features, train_ds.labels, seen_centers,
                              unseen_centers, metric=metric)
    return curve.auc


def _sweep_one(args):
    train_ds, config, lam, idx = args
    cfg = replace(config, lambda_creativity=lam,
                  seed=_splitmix64(config.seed ^ _splitmix64(idx)))
    rows = []

    def snap(it, gen, disc, div):
        rows.append((lam, it, validation_auc(gen, train_ds, seed=cfg.seed)))

    train(train_ds, cfg, snapshot_fn=snap)
    return rows


def cross_validate_lambda(dataset: ZslDataset, config: TrainConfig,
                          lambda_grid, split_ratio: float = 0.8):
    """Train once per grid value on an 80/20 class split of the seen classes
    and score each checkpoint by validation seen/unseen AUC.

    Returns (best lambda, rows of (lambda, iteration, auc)). The winner is
    the grid value whose best checkpoint AUC is highest; ties break toward
    the smaller lambda. Set CIZSL_THREADS > 1 to train grid points in
    parallel worker processes (results are identical either way).
    """
    grid = list(lambda_grid)
    if not grid:
        raise InvalidInputError("lambda grid is empty")
    config.validate()
    if config.n_steps < config.eval_interval:
        raise InvalidConfigError(
            f"train.n_steps ({config.n_steps}) must be >= train.eval_interval "
            f"({config.eval_interval}): every lambda needs a scored checkpoint")
    raw = os.environ.get("CIZSL_THREADS", "") or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidConfigError(f"CIZSL_THREADS must be an integer >= 1, got {raw!r}")
    train_ds, _ = split_train_val(dataset, split_ratio, seed=config.seed)
    if train_ds.unseen_class_ids.size < 2:
        raise InvalidSplitError(
            f"cross-validation needs >= 2 validation classes, got "
            f"{train_ds.unseen_class_ids.size}")

    jobs = [(train_ds, config, float(lam), i) for i, lam in enumerate(grid)]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            per_lambda = list(pool.map(_sweep_one, jobs))
    else:
        per_lambda = [_sweep_one(j) for j in jobs]

    rows = [row for rows_ in per_lambda for row in rows_]
    scores = [max((r[2] for r in rows_), default=-np.inf) for rows_ in per_lambda]
    return select_best_lambda(grid, scores), rows


def select_best_lambda(grid, scores) -> float:
    """Highest validation score wins; exact ties break toward the smaller value."""
    best_lam, best_score = None, -np.inf
    for lam, score in zip(grid, scores):
        if score > best_score or (score == best_score
                                  and (best_lam is None or lam < best_lam)):
            best_lam, best_score = float(lam), score
    return best_lam
