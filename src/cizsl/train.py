"""Alternating adversarial training: per loop, the hallucinated batch is
built from interpolated seen-class descriptors, the critic takes `n_critic`
Adam steps, then the generator and the divergence parameters each take one.
The loop trains a stack of models in lockstep (`train_lockstep`); `train`
is its one-model case. Also hosts the balancing-weight cross-validation
over a class-level train/validation split, which trains its lambda grid as
one stack.
"""
from __future__ import annotations

import os
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
        return DivergenceParams(mode=self.divergence_mode, gamma=self.gamma_init,
                                beta=self.beta_init,
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
    This is `train_lockstep` with one model, so a model trained alone and
    the same model trained in a lockstep grid are bit-identical.
    """
    return train_lockstep(dataset, [config], [snapshot_fn])[0]


_HISTORY = ("iteration", "loss_g", "loss_d", "mean_entropy", "gamma", "beta", "w_gap")


def _draws(streams, seen_desc: np.ndarray, n_pool: int, config: TrainConfig):
    """One model's random draws for one iteration, in each stream's order:
    the hallucinated batch, every critic step's batch, the generator batch."""
    noise_rng, alpha_rng, shuffle_rng, gp_rng = streams
    m, n_critic, nz = config.batch_size, config.n_critic, config.noise_dim
    t_h, _, _ = hallucinate_batch(seen_desc, shuffle_rng, alpha_rng, config.alpha_mode, m)
    return (t_h, noise_rng.normal((m, nz)),
            shuffle_rng.integers(0, n_pool, (n_critic, m)),
            noise_rng.normal((n_critic * m, nz)),
            gp_rng.uniform(0.0, 1.0, (n_critic, m)),
            shuffle_rng.integers(0, seen_desc.shape[0], m),
            noise_rng.normal((m, nz)))


def train_lockstep(dataset: ZslDataset, configs, snapshot_fns=None) -> list[TrainedModel]:
    """Train one model per config in one loop, all B models as one stack.

    The configs may differ only in `lambda_creativity` and `seed`. Each
    model keeps its own random streams, divergence parameters, Adam moments
    and history, and every product runs once per step for all B models, so
    each model is bit-identical to its solo `train` at a fraction of B
    loops' per-call cost. `snapshot_fns[b]` (None to skip) is called as
    `train`'s `snapshot_fn` with views of model b. A model whose losses or
    divergence parameters turn non-finite stops the whole loop with a
    TrainingDivergedError naming its lambda and iteration; a non-finite
    logit, which stops the step before its losses are complete, names the
    iteration and every lambda of the grid.
    """
    configs = list(configs)
    if not configs:
        raise InvalidInputError("lockstep training needs at least one config")
    for c in configs:
        c.validate()
    config = configs[0]
    if any(replace(c, lambda_creativity=0.0, seed=0)
           != replace(config, lambda_creativity=0.0, seed=0) for c in configs):
        raise InvalidConfigError(
            "lockstep models may differ only in train.lambda_creativity and train.seed")
    snapshot_fns = [None] * len(configs) if snapshot_fns is None else list(snapshot_fns)
    if len(snapshot_fns) != len(configs):
        raise InvalidInputError("need one snapshot function (or None) per config")
    seen_ids = np.sort(dataset.seen_class_ids)
    if seen_ids.size < 2:
        raise InvalidInputError("training needs at least 2 seen classes")
    m, n_critic = config.batch_size, config.n_critic

    seen_desc = np.array([dataset.descriptor_of(int(c)) for c in seen_ids])
    # the seen rows are read in place through their indices, not copied
    pool = np.flatnonzero(np.isin(dataset.labels, seen_ids))
    id_to_index = {int(c): i for i, c in enumerate(seen_ids)}
    y_pool = np.array([id_to_index[int(l)] for l in dataset.labels[pool]])
    centers = class_means(dataset, seen_ids)

    n_head = seen_ids.size + (1 if config.extra_class_for_hallucinated else 0)
    gen_arch = GeneratorArch(text_dim=dataset.text_dim, noise_dim=config.noise_dim,
                             output_dim=dataset.feature_dim,
                             embed_dim=config.text_embed_dim,
                             hidden_dims=(config.hidden_dim,))
    disc_arch = DiscriminatorArch(input_dim=dataset.feature_dim, n_classes=n_head,
                                  hidden_dims=(config.hidden_dim,))
    streams, gens, discs = [], [], []
    for c in configs:
        root = RngStream(c.seed)
        init_rng = root.substream(STREAM_INIT)
        gens.append(build_generator(gen_arch, init_rng))
        discs.append(build_discriminator(disc_arch, init_rng))
        streams.append([root.substream(s) for s in
                        (STREAM_NOISE, STREAM_ALPHA, STREAM_SHUFFLE, STREAM_GP)])
    gen, disc = Generator.stack(gens), Discriminator.stack(discs)
    divs = [c.divergence() for c in configs]
    lams = [c.lambda_creativity for c in configs]

    opt = dict(lr=config.learning_rate, beta1=config.adam_beta1, beta2=config.adam_beta2)
    state_g = adam_init(gen.params.shape, **opt)
    state_d = adam_init(disc.params.shape, **opt)
    u = np.array([d.learnable_vector() for d in divs])
    state_e = adam_init(u.shape, **opt)

    hist = [{k: [] for k in _HISTORY} for _ in configs]
    use_creativity = config.creativity_enabled
    extra = config.extra_class_for_hallucinated
    d_values = np.empty((len(configs), n_critic))
    gaps = np.empty((len(configs), n_critic))

    for it in range(1, config.n_steps + 1):
        try:
            t_h, z_h, idx, z, eps, y_g, z_g = (
                np.stack(a) for a in zip(*(_draws(s, seen_desc, pool.size, config)
                                           for s in streams)))
            # G is frozen in the critic loop: one pass for all its fake rows
            y, x_rows = y_pool[idx], pool[idx]
            t = seen_desc[y.reshape(len(configs), -1)]
            if extra:
                t, z = np.concatenate([t, t_h], axis=1), np.concatenate([z, z_h], axis=1)
            x_gen = gen.forward(t, z)
            del t, z  # the critic loop holds only the generated rows
            x_h = x_gen[:, n_critic * m:] if extra else None

            for k in range(n_critic):
                res = discriminator_loss(disc, dataset.features[x_rows[:, k]], y[:, k],
                                         x_gen[:, k * m:(k + 1) * m], y[:, k],
                                         config.gp_weight, eps[:, k], extra_class=extra,
                                         x_h=x_h)
                adam_step(disc.params, res.grad_disc, state_d)
                disc.net.params_changed()
                d_values[:, k] = res.value
                gaps[:, k] = res.parts["wasserstein_gap"]

            res_g = generator_loss(gen, disc, seen_desc[y_g], y_g, z_g, t_h, z_h,
                                   lams, divs, centers, creativity_enabled=use_creativity,
                                   extra_class=extra)
            adam_step(gen.params, res_g.grad_gen, state_g)
            gen.params_changed()

            if u.shape[1] and use_creativity:
                grad_u = np.array([d.learnable_gradient(*g)
                                   for d, g in zip(divs, res_g.grad_divergence)])
                adam_step(u, grad_u, state_e)
                divs = [d.with_learnable_vector(row) for d, row in zip(divs, u)]
        except (InvalidInputError, FloatingPointError, OverflowError) as e:
            # all loop inputs are machine-generated, so a rejected value here
            # (a non-finite logit) means the optimization blew up numerically
            raise TrainingDivergedError(
                f"training diverged at iteration {it} (lambda_creativity "
                f"{', '.join(f'{lam:g}' for lam in lams)}): {e}", iteration=it) from e

        for b, h in enumerate(hist):
            loss_g, loss_d = float(res_g.value[b]), float(np.mean(d_values[b]))
            div = divs[b]
            if not np.isfinite([loss_g, loss_d, div.gamma, div.beta]).all():
                raise TrainingDivergedError(
                    f"training diverged at iteration {it} (lambda_creativity "
                    f"{lams[b]:g}): loss_g={loss_g}, loss_d={loss_d}, "
                    f"gamma={div.gamma}, beta={div.beta}", iteration=it)
            h["iteration"].append(it)
            h["loss_g"].append(loss_g)
            h["loss_d"].append(loss_d)
            h["mean_entropy"].append(float(res_g.parts["mean_entropy"][b]))
            h["gamma"].append(div.gamma)
            h["beta"].append(div.beta)
            h["w_gap"].append(abs(float(np.mean(gaps[b]))))

        if it % config.eval_interval == 0:
            for fn, g, d, div in zip(snapshot_fns, gen.members, disc.members, divs):
                if fn is not None:
                    fn(it, g, d, div)

    return [TrainedModel(generator=g, discriminator=d, divergence=div,
                         history=TrainingHistory(**{k: np.array(v) for k, v in h.items()}))
            for g, d, div, h in zip(gen.members, disc.members, divs, hist)]


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


def _sweep_chunk(args):
    """Validation rows (lambda, iteration, auc) of each config, trained in lockstep."""
    train_ds, configs = args
    rows = [[] for _ in configs]

    def scorer(cfg, out):
        def snap(it, gen, disc, div):
            out.append((cfg.lambda_creativity, it, validation_auc(gen, train_ds, seed=cfg.seed)))
        return snap

    train_lockstep(train_ds, configs, [scorer(c, r) for c, r in zip(configs, rows)])
    return rows


def cross_validate_lambda(dataset: ZslDataset, config: TrainConfig,
                          lambda_grid, split_ratio: float = 0.8):
    """Train once per grid value on an 80/20 class split of the seen classes
    and score each checkpoint by validation seen/unseen AUC.

    Returns (best lambda, rows of (lambda, iteration, auc)). The winner is
    the grid value whose best checkpoint AUC is highest; ties break toward
    the smaller lambda. The grid values train as one lockstep stack
    (`train_lockstep`); set CIZSL_THREADS > 1 to split the grid into that
    many lockstep chunks in worker processes (results are identical either
    way).
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

    configs = [replace(config, lambda_creativity=float(lam),
                       seed=_splitmix64(config.seed ^ _splitmix64(i)))
               for i, lam in enumerate(grid)]
    n_chunks = min(workers, len(configs))
    chunks = [(train_ds, configs[i::n_chunks]) for i in range(n_chunks)]
    if n_chunks > 1:
        # imported here: concurrent.futures.process is about a tenth of the
        # time `import cizsl.cli` takes, and only a parallel sweep uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            per_chunk = list(pool.map(_sweep_chunk, chunks))
    else:
        per_chunk = [_sweep_chunk(chunks[0])]
    # chunk i holds grid points i, i + n_chunks, ...
    per_lambda = [per_chunk[i % n_chunks][i // n_chunks] for i in range(len(configs))]

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
