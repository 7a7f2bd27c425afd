"""Training losses: the creativity term over hallucinated descriptors, the
four-term generator objective, the critic loss with the Lipschitz penalty,
and the visual-pivot regularizer. The objectives and the pivot take rows
with a leading axis of B models (B = 1 for one model) and return one value
per model, with exact analytic gradients verified against central
differences in the tests; `creativity_loss` is one model's term.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .divergence import (DivergenceParams, batch_minmax_normalize,
                         entropy_loss_batch, minmax_bounds,
                         minmax_gradient_scale)
from .errors import InvalidInputError
from .net import Discriminator, Generator, gradient_penalty
from .numerics import RngStream, log_softmax, softmax_vjp

ALPHA_MODES = ("uniform-0.2-0.8", "uniform-0-1", "fixed-0.5", "normal-0.5")


def sample_alpha(rng: RngStream, mode: str, n: int) -> np.ndarray:
    """Mixing coefficients for descriptor interpolation, one per row.

    The normal mode draws N(0.5, (0.5/3)^2) clamped to [0, 1].
    """
    if mode == "fixed-0.5":
        return np.full(n, 0.5)
    if mode == "uniform-0-1":
        return rng.uniform(0.0, 1.0, n)
    if mode == "uniform-0.2-0.8":
        return rng.uniform(0.2, 0.8, n)
    if mode == "normal-0.5":
        return np.clip(0.5 + (0.5 / 3.0) * rng.normal(n), 0.0, 1.0)
    raise InvalidInputError(f"unknown alpha mode {mode!r}; expected one of {ALPHA_MODES}")


def interpolate_texts(t_a: np.ndarray, t_b: np.ndarray, alpha) -> np.ndarray:
    """alpha * t_a + (1 - alpha) * t_b, row-wise for batches."""
    t_a = np.asarray(t_a, dtype=np.float64)
    t_b = np.asarray(t_b, dtype=np.float64)
    if t_a.shape != t_b.shape:
        raise InvalidInputError(f"descriptor shapes differ: {t_a.shape} vs {t_b.shape}")
    a = np.asarray(alpha, dtype=np.float64)
    if t_a.ndim == 2:
        a = a.reshape(-1, 1)
    return a * t_a + (1.0 - a) * t_b


def hallucinate_batch(descriptors: np.ndarray, rng_pairs: RngStream,
                      rng_alpha: RngStream, mode: str, n: int):
    """Batch of hallucinated descriptors from random distinct class pairs.

    Returns (t_h rows, pair indices (a, b), alphas). Callers own the contract
    that `descriptors` holds one row per distinct seen class.
    """
    k = descriptors.shape[0]
    if k < 2:
        raise InvalidInputError("hallucination needs at least 2 seen classes")
    a = rng_pairs.integers(0, k, n)
    b = (a + rng_pairs.integers(1, k, n)) % k
    alpha = sample_alpha(rng_alpha, mode, n)
    return interpolate_texts(descriptors[a], descriptors[b], alpha), (a, b), alpha


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    """One-hot rows for class indices in [0, k), any leading shape."""
    return (labels[..., None] == np.arange(k)).astype(np.float64)


def _check_labels(labels: np.ndarray, k: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise InvalidInputError(
            f"label outside the seen-class range [0, {k}): {labels.min()}..{labels.max()}")


@dataclass
class LossResult:
    """The loss of B models: `value` and each part hold one entry per model,
    `grad_divergence` one (d/dgamma, d/dbeta) row per model, and the
    parameter gradients are shaped like the models' `params`."""

    value: np.ndarray
    grad_gen: np.ndarray | None = None
    grad_disc: np.ndarray | None = None
    grad_divergence: np.ndarray | None = None
    parts: dict = field(default_factory=dict)


def creativity_loss(logits: np.ndarray, lam: float, div_params: DivergenceParams,
                    norm_bounds: tuple[float, float] | None = None,
                    extra_class: bool = False):
    """Creativity term on the class logits of hallucinated-descriptor rows.

    value = lam * mean min-max-normalized entropy loss of the seen-class
    softmax. Min/max of the normalization carry no gradient, and
    `norm_bounds` freezes them explicitly for finite-difference checking.
    With `extra_class`, the entropy term is replaced by cross-entropy toward
    a dedicated extra class (the last logit column), the ablation variant.

    Returns (value, d value / d logits, (d/dgamma, d/dbeta), mean entropy
    loss); the realness of the rows is the generator objective's part.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    n = logits.shape[0]
    if n == 0:
        raise InvalidInputError("creativity loss needs a non-empty batch")
    if lam == 0.0:
        return 0.0, np.zeros_like(logits), (0.0, 0.0), 0.0
    lsm = log_softmax(logits)
    probs = np.exp(lsm)
    if extra_class:
        ce = -float(lsm[:, -1].sum()) / n
        probs[:, -1] -= 1.0
        return lam * ce, (lam / n) * probs, (0.0, 0.0), ce
    e, de_dp, de_dg, de_db = entropy_loss_batch(probs, div_params)
    bounds = minmax_bounds(e) if norm_bounds is None else norm_bounds
    w = lam * minmax_gradient_scale(bounds) / n
    value = lam * (float(batch_minmax_normalize(e, bounds).sum()) / n)
    return (value, softmax_vjp(probs, w * de_dp),
            (w * float(de_dg.sum()), w * float(de_db.sum())), float(e.sum()) / n)


def visual_pivot(x: np.ndarray, labels: np.ndarray, centers: np.ndarray):
    """Mean squared distance between the per-class means of the rows of `x`
    and the real class means `centers[label]`, averaged over the classes
    present in `labels`, for each of B models.

    Takes per-model rows `x` (B, rows, D) with labels (B, rows); returns
    ((B,) values, d value / d x).
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    n_models, _, dim = x.shape
    k = centers.shape[0]
    # one key per (model, class): each model's classes form a run of keys
    keys, inv, counts = np.unique((labels + k * np.arange(n_models)[:, None]).ravel(),
                                  return_inverse=True, return_counts=True)
    model, cls = np.divmod(keys, k)
    present = np.bincount(model, minlength=n_models)
    sums = np.zeros((keys.size, dim))
    np.add.at(sums, inv, x.reshape(-1, dim))
    diff = sums / counts[:, None] - centers[cls]
    d_x = (2.0 / (present[model] * counts)[inv])[:, None] * diff[inv]
    sq = diff * diff
    # each model sums its own contiguous block, in the order a lone model would
    ends = np.cumsum(present)
    value = np.array([np.sum(sq[end - n:end]) for n, end in zip(present, ends)]) / present
    return value, d_x.reshape(x.shape)


def generator_loss(gen: Generator, disc: Discriminator, t_s: np.ndarray,
                   y_s: np.ndarray, z_s: np.ndarray, t_h: np.ndarray,
                   z_h: np.ndarray, lam, div_params,
                   centers_by_class: np.ndarray, creativity_enabled: bool = True,
                   extra_class: bool = False, norm_bounds=None) -> LossResult:
    """Full generator objective: seen-batch realism, seen-batch
    classification (log softmax of the class head) and the visual pivot,
    plus the creativity term (realness of the hallucinated rows and
    `creativity_loss` of their logits).

    The seen rows [t_s; z_s] and the hallucinated rows [t_h; z_h] go through
    G and D as one stack, with one backward pass of row-sliced adjoints.
    `centers_by_class[k]` is the real feature mean of seen class k; `y_s`
    holds 0-based class indices. With `creativity_enabled=False` the
    hallucinated rows get weight 0 (the non-creative baseline): no realness
    adjoint and lambda 0, so the creativity part, its logits adjoint, the
    (gamma, beta) gradient and the mean entropy are all 0.

    `gen` and `disc` hold B models (B = 1 for a single model): every row and
    label array carries a leading model axis of length B, and `lam`,
    `div_params` and `norm_bounds` (when given) are sequences of one entry
    per model.
    """
    k_cls = disc.n_classes - (1 if extra_class else 0)
    y_s = np.asarray(y_s)
    _check_labels(y_s, k_cls)
    if norm_bounds is None:
        norm_bounds = [None] * len(lam)
    m = y_s.shape[1]
    w_h = float(creativity_enabled)  # the hallucinated rows' weight

    x, g_cache = gen.forward_cached(np.concatenate([t_s, t_h], axis=1),
                                    np.concatenate([z_s, z_h], axis=1))
    (real, logits), d_cache = disc.forward_cached(x)
    d_real = np.full(real.shape, -1.0 / m)
    d_logits = np.empty_like(logits)

    y = _one_hot(y_s, k_cls)
    lsm = log_softmax(logits[:, :m])
    cls_term = -np.sum(y * lsm[..., :k_cls], axis=-1).sum(axis=-1) / m
    d_logits[:, :m] = np.exp(lsm) / m
    d_logits[:, :m, :k_cls] -= y / m
    realness = -real[:, :m].sum(axis=-1) / m
    pivot, d_x_pivot = visual_pivot(x[:, :m], y_s, centers_by_class)

    n_models, n_rows = real.shape
    n_h = n_rows - m
    grad_div = np.empty((n_models, 2))
    mean_entropy, term = np.empty(n_models), np.empty(n_models)
    # per model: lambda, (gamma, beta) and the batch min-max are its own
    for b in range(n_models):
        term[b], d_logits[b, m:], grad_div[b], mean_entropy[b] = creativity_loss(
            logits[b, m:], w_h * lam[b], div_params[b], norm_bounds=norm_bounds[b],
            extra_class=extra_class)
    d_real[:, m:] = -w_h / n_h
    creativity = -w_h * real[:, m:].sum(axis=-1) / n_h + term
    value = realness + cls_term + pivot + creativity
    parts = {"seen_realness": realness, "seen_classification": cls_term,
             "visual_pivot": pivot, "creativity": creativity,
             "mean_entropy": mean_entropy}

    _, d_x = disc.backward(d_cache, d_real, d_logits)
    del d_cache, real, logits  # free the critic activations before G's backward
    d_x[:, :m] += d_x_pivot
    grad_gen, _, _ = gen.backward(g_cache, d_x)
    return LossResult(value=value, grad_gen=grad_gen, grad_divergence=grad_div, parts=parts)


def discriminator_loss(disc: Discriminator, x_real: np.ndarray, y_real: np.ndarray,
                       x_fake: np.ndarray, y_fake: np.ndarray, gp_weight: float,
                       gp_eps: np.ndarray, extra_class: bool = False,
                       x_h: np.ndarray | None = None) -> LossResult:
    """Critic objective: Wasserstein terms, Lipschitz penalty at per-row
    interpolates x_hat = eps * real + (1 - eps) * fake, and the two halved
    classification terms on real and generated seen features.

    The critic runs one forward over the stacked rows [fake; real; x_hat]:
    the backward pass reads the cache's first rows and `gradient_penalty`
    its x_hat rows. With `extra_class`, the generated hallucinated features
    `x_h` join the stack before x_hat with a zero critic adjoint and a
    halved cross-entropy toward the extra (last) class. Gradients are
    w.r.t. the discriminator only; the generated rows are constants.

    `disc` holds B models (B = 1 for a single model): every row, label and
    `gp_eps` array carries a leading model axis of length B.
    """
    x_real = np.asarray(x_real, dtype=np.float64)
    x_fake = np.asarray(x_fake, dtype=np.float64)
    y_real, y_fake = np.asarray(y_real), np.asarray(y_fake)
    n_models, m = x_real.shape[:2]
    k_cls = disc.n_classes - (1 if extra_class else 0)
    if x_fake.shape != x_real.shape or not y_fake.shape == y_real.shape == (n_models, m):
        raise InvalidInputError(
            f"real batch {x_real.shape} and fake batch {x_fake.shape} misaligned")
    labels = np.concatenate([y_fake, y_real], axis=1)
    _check_labels(labels, k_cls)
    gp_eps = np.asarray(gp_eps, dtype=np.float64).reshape(n_models, m, 1)
    rows = [x_fake, x_real]
    if extra_class:
        if x_h is None:
            raise InvalidInputError("extra-class ablation needs a hallucinated batch")
        rows.append(x_h)
    rows.append(gp_eps * x_real + (1.0 - gp_eps) * x_fake)
    (critic, logits), cache = disc.forward_cached(np.concatenate(rows, axis=1))
    n = critic.shape[1] - m
    n_h = n - 2 * m
    critic, logits = critic[:, :n], logits[:, :n]

    wasserstein = critic[:, :m].sum(axis=-1) / m - critic[:, m:2 * m].sum(axis=-1) / m
    penalty, grad_penalty, _ = gradient_penalty(disc, cache.rows(slice(n, None)))

    target = np.zeros_like(logits)
    target[:, :2 * m, :k_cls] = _one_hot(labels, k_cls)
    row_scale = np.full(n, 0.5 / m)
    if extra_class:
        target[:, 2 * m:, -1] = 1.0
        row_scale[2 * m:] = 0.5 / n_h
    lsm = log_softmax(logits)
    ce = -np.sum(target * lsm, axis=-1)
    cls_fake = 0.5 * (ce[:, :m].sum(axis=-1) / m)
    cls_real = 0.5 * (ce[:, m:2 * m].sum(axis=-1) / m)
    d_logits = (np.exp(lsm) - target) * row_scale[:, None]
    d_critic = np.concatenate([np.full(m, 1.0 / m), np.full(m, -1.0 / m), np.zeros(n_h)])
    grad, _ = disc.backward(cache.rows(slice(n)), np.broadcast_to(d_critic, critic.shape),
                            d_logits)

    value = wasserstein + gp_weight * penalty + cls_real + cls_fake
    parts = {"wasserstein_gap": -wasserstein, "penalty": penalty,
             "cls_real": cls_real, "cls_fake": cls_fake}
    if extra_class:
        parts["cls_extra"] = 0.5 * (ce[:, 2 * m:].sum(axis=-1) / n_h)
        value = value + parts["cls_extra"]
    return LossResult(value=value, grad_disc=grad + gp_weight * grad_penalty, parts=parts)
