"""Zero-shot and generalized zero-shot evaluation: unseen-class feature
synthesis, nearest-center classification, the seen/unseen trade-off curve
with its AUC, harmonic mean, and per-class retrieval precision.
`generalized_curve` is the one GZSL scorer that `cizsl eval` and the
lambda cross-validation share.

Accuracies are macro (per class, then averaged). Equal computed distances go
to the smaller class id (nearest center) or instance index (retrieval);
identical centers can round an ulp apart and then do not tie.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import ZslDataset, class_means
from .errors import InvalidInputError
from .net import Generator
from .numerics import STREAM_EVAL, RngStream

METRICS = ("l2", "cosine")


@dataclass
class ClassCenters:
    """One representative feature vector per class, sorted by class id."""

    class_ids: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.class_ids, dtype=np.int64)
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[0] != ids.shape[0]:
            raise InvalidInputError(f"one center required per class id, as a (K, D) matrix: "
                                    f"got {ids.shape[0]} ids and shape {centers.shape}")
        order = np.argsort(ids)
        self.class_ids, self.centers = ids[order], centers[order]
        if not np.all(np.isfinite(self.centers)):
            raise InvalidInputError("class centers contain non-finite values")


# rows per trunk pass of `synthesize_centers`: whole classes are batched up to
# this many rows, so the pass's working set stays cache-sized at any class
# count (a class with more samples is its own block)
CENTER_BLOCK_ROWS = 256


def synthesize_centers(gen: Generator, class_ids, descriptors: np.ndarray,
                       n: int, rng: RngStream) -> ClassCenters:
    """Per-class mean of n generated features, one noise batch per class.

    `descriptors` holds one (text_dim,) row per id of `class_ids`, in any
    order. Each class draws from a stream derived from its id, so the
    result is deterministic and independent of that order. Each descriptor
    is embedded once; the trunk runs over blocks of whole classes of at
    most `CENTER_BLOCK_ROWS` rows.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1 samples per center, got {n}")
    ids = np.asarray(class_ids, dtype=np.int64)
    t = np.asarray(descriptors, dtype=np.float64)
    if t.shape != (ids.size, gen.text_dim):
        raise InvalidInputError(f"descriptors have shape {t.shape}, expected "
                                f"{(ids.size, gen.text_dim)}: one row per class id")
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    e = gen.embed.forward(t[order])
    centers = np.empty((ids.size, gen.output_dim))
    per_block = max(1, CENTER_BLOCK_ROWS // n)
    for a in range(0, ids.size, per_block):
        block = ids[a:a + per_block]
        z = np.concatenate([rng.derive(int(cid)).normal((n, gen.noise_dim))
                            for cid in block])
        x = gen.trunk.forward(gen.trunk_input(e[a:a + len(block)], z, repeats=n))
        x.reshape(len(block), n, -1).mean(axis=1, out=centers[a:a + len(block)])
    return ClassCenters(class_ids=ids, centers=centers)


def unseen_centers(gen: Generator, dataset: ZslDataset, n: int, seed: int) -> ClassCenters:
    """Centers generated from the descriptors of the dataset's unseen
    classes, n samples each, drawn from the evaluation stream of `seed`."""
    unseen = ~dataset.seen_mask
    if not unseen.any():
        raise InvalidInputError("dataset has no unseen classes to evaluate")
    return synthesize_centers(gen, dataset.class_ids[unseen], dataset.descriptors[unseen],
                              n, RngStream(seed, STREAM_EVAL))


def generalized_curve(gen: Generator, dataset: ZslDataset, n: int, seed: int,
                      metric: str = "l2") -> SeenUnseenCurve:
    """The generalized zero-shot score of `gen` on every row of `dataset`:
    generated unseen centers (`unseen_centers`), the seen classes' real
    feature means, and the seen/unseen curve between them."""
    unseen = unseen_centers(gen, dataset, n, seed)
    seen_ids = dataset.seen_class_ids
    seen = ClassCenters(class_ids=seen_ids, centers=class_means(dataset, seen_ids))
    return seen_unseen_curve(dataset.features, dataset.labels, seen, unseen, metric)


def _rows_and_norms(features, *centers: ClassCenters):
    """Features as an (N, D) float64 matrix, checked against the width of
    each of `centers`, and their squared row norms for every distance block."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    for c in centers:
        if c.centers.shape[1] != features.shape[1]:
            raise InvalidInputError(f"centers have width {c.centers.shape[1]}, "
                                    f"features have width {features.shape[1]}")
    return features, np.einsum("ij,ij->i", features, features)


def _distances(features: np.ndarray, f_sq: np.ndarray, centers: np.ndarray,
               metric: str) -> np.ndarray:
    """N x K distances from one product `features @ centers.T` updated in place,
    so memory is output-sized; `f_sq` is the features' squared row norms. l2 uses
    ||x||^2 - 2 x.c + ||c||^2: within a few eps * (||x||^2 + ||c||^2) of the direct sum."""
    if metric not in METRICS:
        raise InvalidInputError(f"unknown metric {metric!r}; expected one of {METRICS}")
    out = features @ centers.T
    c_sq = np.einsum("ij,ij->i", centers, centers)
    if metric == "l2":
        out *= -2.0
        out += f_sq[:, None]
        out += c_sq
        np.maximum(out, 0.0, out=out)
        return np.sqrt(out, out=out)
    out /= np.maximum(np.sqrt(f_sq), 1e-12)[:, None]
    out /= np.maximum(np.sqrt(c_sq), 1e-12)
    return np.subtract(1.0, out, out=out)


def _nearest(features: np.ndarray, f_sq: np.ndarray, centers: np.ndarray, metric: str):
    """Each row's nearest center (ties to the smaller index) and its distance,
    from one pass over a contiguous distance block that is freed on return."""
    d = _distances(features, f_sq, centers, metric)
    nearest = d.argmin(axis=1)
    return nearest, np.take_along_axis(d, nearest[:, None], axis=1)[:, 0]


def _class_positions(labels: np.ndarray, class_ids: np.ndarray) -> np.ndarray:
    """Each row's index in the sorted `class_ids`, or `class_ids.size` for
    rows labelled with another class."""
    return np.where(np.isin(labels, class_ids),
                    np.searchsorted(class_ids, labels), class_ids.size)


def _macro_accuracy(hit_counts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean over classes with rows of the per-class hit rate, one value per
    leading row of `hit_counts`. The rates are C-contiguous, so each row is
    averaged as a 1-D array would be: equal counts give bit-equal values."""
    present = counts > 0
    rates = np.compress(present, hit_counts, axis=-1)
    rates /= counts[present]
    return np.mean(rates, axis=-1)


def zsl_top1(features: np.ndarray, labels: np.ndarray, centers: ClassCenters,
             metric: str = "l2") -> float:
    """Macro top-1 accuracy of nearest-center prediction."""
    features, f_sq = _rows_and_norms(features, centers)
    labels = np.asarray(labels)
    if features.shape[0] == 0:
        raise InvalidInputError("empty test set")
    missing = set(int(l) for l in np.unique(labels)) - set(int(c) for c in centers.class_ids)
    if missing:
        raise InvalidInputError(f"test labels without centers: {sorted(missing)}")
    d = _distances(features, f_sq, centers.centers, metric)
    hits = centers.class_ids[np.argmin(d, axis=1)] == labels
    _, positions = np.unique(labels, return_inverse=True)
    return float(_macro_accuracy(np.bincount(positions, weights=hits), np.bincount(positions)))


@dataclass
class SeenUnseenCurve:
    """Accuracy trade-off swept by a calibration bias on seen-class scores.

    Points are the curve's vertices (calibration, seen accuracy, unseen
    accuracy) by calibration, from the -inf anchor (all rows predicted seen)
    to the +inf anchor (all unseen), so `auc`, the trapezoid of seen (y)
    over unseen (x) accuracy, is the exact area. `at_zero` is the (seen,
    unseen) pair without calibration.
    """

    calibrations: np.ndarray
    seen_acc: np.ndarray
    unseen_acc: np.ndarray
    auc: float
    at_zero: tuple[float, float]


def trapezoid_auc(x: np.ndarray, y: np.ndarray) -> float:
    """Area under the polyline after sorting by x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    return float(np.sum(np.diff(xs) * (ys[:-1] + ys[1:]) * 0.5))


def seen_unseen_curve(features: np.ndarray, labels: np.ndarray,
                      seen_centers: ClassCenters, unseen_centers: ClassCenters,
                      metric: str = "l2") -> SeenUnseenCurve:
    """The exact seen/unseen curve (Chao et al. 2016) and its area.

    One distance block per population gives each row its nearest seen
    class at distance d_s and its nearest unseen class at d_u (ties to the
    smaller id). At calibration c a row predicts its seen class iff
    c <= d_u - d_s. Each group of rows with equal thresholds moves the curve
    down (seen hits lost), right (unseen hits gained), both, or not at all;
    the vertices are the anchors and the points where that kind changes or
    a diagonal move starts or ends, each at the threshold of the move that
    leaves it. Accuracies come from integer per-class hit counts, so row
    order does not matter; memory beyond the larger distance block is
    O(N + vertices * classes). Rows of neither population are ignored.
    """
    features, f_sq = _rows_and_norms(features, seen_centers, unseen_centers)
    labels = np.asarray(labels)
    seen_ids, unseen_ids = seen_centers.class_ids, unseen_centers.class_ids
    n_seen = seen_ids.size
    if np.intersect1d(seen_ids, unseen_ids).size:
        raise InvalidInputError("seen and unseen class ids must be disjoint")
    seen_pos = _class_positions(labels, seen_ids)
    unseen_pos = _class_positions(labels, unseen_ids)
    is_seen = seen_pos < n_seen
    if not (is_seen.any() and (unseen_pos < unseen_ids.size).any()):
        raise InvalidInputError("need test instances from both populations")
    # one count column per class, seen then unseen, and a last one that no
    # accuracy reads for rows of neither population
    col = np.where(is_seen, seen_pos, n_seen + unseen_pos)
    n_cols = n_seen + unseen_ids.size + 1

    seen_nearest, d_s = _nearest(features, f_sq, seen_centers.centers, metric)
    unseen_nearest, d_u = _nearest(features, f_sq, unseen_centers.centers, metric)
    seen_hit = seen_ids[seen_nearest] == labels
    unseen_hit = unseen_ids[unseen_nearest] == labels
    thresholds, group = np.unique(d_u - d_s, return_inverse=True)
    # state j has the first j groups flipped to unseen. Ids are disjoint, so
    # a flip can only lose a seen hit (down) or gain an unseen hit (right):
    # kind 1, 2, or 3 for both
    kind = (np.bincount(group, weights=seen_hit) > 0) \
        + 2 * (np.bincount(group, weights=unseen_hit) > 0)
    moves = np.flatnonzero(kind)
    k = kind[moves]
    states = np.concatenate([[0], moves[1:][(k[1:] != k[:-1]) | (k[1:] == 3)],
                             [thresholds.size]])

    # hit counts at each vertex state and at calibration 0: the all-seen
    # counts plus the flips of the groups before it
    queries, at = np.unique(np.append(states, np.searchsorted(thresholds, 0.0)),
                            return_inverse=True)
    hits = np.bincount(np.searchsorted(queries, group + 1) * n_cols + col,
                       weights=unseen_hit.astype(np.float64) - seen_hit,
                       minlength=queries.size * n_cols).reshape(-1, n_cols)
    np.cumsum(hits, axis=0, out=hits)
    hits += np.bincount(col, weights=seen_hit, minlength=n_cols)
    counts = np.bincount(col, minlength=n_cols)
    seen_acc = _macro_accuracy(hits[:, :n_seen], counts[:n_seen])[at]
    unseen_acc = _macro_accuracy(hits[:, n_seen:-1], counts[n_seen:-1])[at]
    return SeenUnseenCurve(
        calibrations=np.concatenate([[-np.inf], thresholds[states[1:-1]], [np.inf]]),
        seen_acc=seen_acc[:-1], unseen_acc=unseen_acc[:-1],
        auc=trapezoid_auc(unseen_acc[:-1], seen_acc[:-1]),
        at_zero=(float(seen_acc[-1]), float(unseen_acc[-1])))


def harmonic_mean(seen_acc: float, unseen_acc: float) -> float:
    """2su/(s+u), defined as 0 when both accuracies vanish."""
    if seen_acc + unseen_acc == 0.0:
        return 0.0
    return 2.0 * seen_acc * unseen_acc / (seen_acc + unseen_acc)


def valid_retrieval_ratio(ratio) -> bool:
    """A retrieval ratio is a finite real number > 0."""
    return (isinstance(ratio, numbers.Real) and not isinstance(ratio, bool)
            and math.isfinite(ratio) and ratio > 0)


def retrieval_precision(features: np.ndarray, labels: np.ndarray,
                        unseen_centers: ClassCenters,
                        ratios=(0.25, 0.5, 1.0),
                        metric: str = "l2") -> dict[float, float]:
    """Mean over unseen classes of precision at ceil(ratio * class size).

    For each class, the test instances are ranked once by distance to the
    class center (equal distances to the smaller index) and the top
    ceil(ratio * n_c) are retrieved for every ratio; a k beyond the test set
    retrieves every instance and still divides by k. Only the instances at
    or below the largest k's distance are sorted.
    """
    for ratio in ratios:
        if not valid_retrieval_ratio(ratio):
            raise InvalidInputError(
                f"eval.retrieval_ratios must be finite and > 0, got {ratio!r}")
    features, f_sq = _rows_and_norms(features, unseen_centers)
    labels = np.asarray(labels)
    class_ids = unseen_centers.class_ids
    positions = _class_positions(labels, class_ids)
    counts = np.bincount(positions, minlength=class_ids.size + 1)
    d = _distances(features, f_sq, unseen_centers.centers, metric).T
    precisions = {float(ratio): [] for ratio in ratios}
    for j, cid in enumerate(class_ids):
        n_c = int(counts[j])
        if n_c == 0:
            raise InvalidInputError(f"unseen class {int(cid)} has no test instances")
        ks = [int(np.ceil(ratio * n_c)) for ratio in precisions]
        nearest = _nearest_rows(d[j], max(ks))
        hits = np.cumsum(positions[nearest] == j)
        for k, per_class in zip(ks, precisions.values()):
            per_class.append(float(hits[min(k, hits.size) - 1]) / k)
    return {ratio: float(np.mean(per_class)) for ratio, per_class in precisions.items()}


def _nearest_rows(dist: np.ndarray, k: int) -> np.ndarray:
    """The first min(k, rows) indices of the stable ascending sort of `dist`
    (equal distances to the smaller index), possibly followed by more: every
    row at or below the k-th smallest distance, ties included, found by one
    partition and ordered by a stable sort of those rows only."""
    near = np.arange(dist.size)
    if k < dist.size:
        kth = np.partition(dist, k - 1)[k - 1]
        if not np.isnan(kth):  # NaN sorts last: then every row is a candidate
            near = np.flatnonzero(dist <= kth)
    return near[np.argsort(dist[near], kind="stable")]


# --------------------------------------------------------------------------
# Curve export
# --------------------------------------------------------------------------

def curve_csv(curve: SeenUnseenCurve) -> str:
    lines = ["calibration,acc_seen,acc_unseen"]
    for c, s, u in zip(curve.calibrations, curve.seen_acc, curve.unseen_acc):
        lines.append(f"{c:.6g},{s:.6g},{u:.6g}")
    return "\n".join(lines) + "\n"


def curve_svg(curve: SeenUnseenCurve) -> str:
    """Plain-text 480 x 480 SVG plot of seen accuracy (y) over unseen accuracy (x)."""
    width = height = 480
    pad = 40.0
    w, h = width - 2 * pad, height - 2 * pad
    pts = " ".join(f"{pad + u * w:.2f},{pad + (1.0 - s) * h:.2f}"
                   for u, s in zip(curve.unseen_acc, curve.seen_acc))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'  <title>seen-unseen curve, AUC={curve.auc:.6g}</title>\n'
        f'  <rect x="{pad:.2f}" y="{pad:.2f}" width="{w:.2f}" height="{h:.2f}"'
        f' fill="white" stroke="black"/>\n'
        f'  <polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5"/>\n'
        f'  <text x="{pad:.2f}" y="{pad - 10:.2f}">AUC={curve.auc:.6g}</text>\n'
        f'  <text x="{width / 2 - 40:.2f}" y="{height - 8:.2f}">unseen accuracy</text>\n'
        f'  <text x="10" y="{height / 2:.2f}" transform="rotate(-90 12 {height / 2:.2f})">'
        f'seen accuracy</text>\n'
        f'</svg>\n'
    )
