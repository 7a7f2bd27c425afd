"""Zero-shot and generalized zero-shot evaluation: unseen-class feature
synthesis, nearest-center classification, the seen/unseen trade-off curve
with its AUC, harmonic mean, and per-class retrieval precision.

Accuracies are macro (per class, then averaged). Equal computed distances go
to the smaller class id (nearest center) or instance index (retrieval);
identical centers can round an ulp apart and then do not tie.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .net import Generator
from .numerics import RngStream

METRICS = ("l2", "cosine")


@dataclass
class ClassCenters:
    """One representative feature vector per class, sorted by class id."""

    class_ids: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.class_ids, dtype=np.int64)
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.shape[0] != ids.shape[0]:
            raise InvalidInputError(f"one center required per class id, got {ids.shape[0]} "
                                    f"ids and {centers.shape[0]} centers")
        order = np.argsort(ids)
        self.class_ids, self.centers = ids[order], centers[order]
        if not np.all(np.isfinite(self.centers)):
            raise InvalidInputError("class centers contain non-finite values")


def synthesize_centers(gen: Generator, descriptors: dict[int, np.ndarray],
                       n: int, rng: RngStream) -> ClassCenters:
    """Per-class mean of n generated features, one noise batch per class.

    Each class draws from a stream derived from its id, so the result is
    deterministic and independent of dict ordering.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1 samples per center, got {n}")
    ids = sorted(int(c) for c in descriptors)
    centers = []
    for cid in ids:
        z = rng.derive(cid).normal((n, gen.noise_dim))
        t = np.repeat(np.asarray(descriptors[cid], dtype=np.float64)[None, :], n, axis=0)
        centers.append(gen.forward(t, z).mean(axis=0))
    return ClassCenters(class_ids=np.array(ids), centers=np.array(centers))


def _distances(features: np.ndarray, centers: np.ndarray, metric: str) -> np.ndarray:
    """N x K distances from one product `features @ centers.T` updated in place,
    so memory is output-sized. l2 uses ||x||^2 - 2 x.c + ||c||^2: squared
    distances within a few eps * (||x||^2 + ||c||^2) of the direct sum."""
    if metric not in METRICS:
        raise InvalidInputError(f"unknown metric {metric!r}; expected one of {METRICS}")
    out = features @ centers.T
    f_sq = np.einsum("ij,ij->i", features, features)
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


def _nearest(features: np.ndarray, centers: np.ndarray, metric: str):
    """Each row's nearest center (ties to the smaller index) and its distance,
    from one pass over a contiguous distance block that is freed on return."""
    d = _distances(features, centers, metric)
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
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    if features.shape[0] == 0:
        raise InvalidInputError("empty test set")
    missing = set(int(l) for l in np.unique(labels)) - set(int(c) for c in centers.class_ids)
    if missing:
        raise InvalidInputError(f"test labels without centers: {sorted(missing)}")
    d = _distances(features, centers.centers, metric)
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
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
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

    seen_nearest, d_s = _nearest(features, seen_centers.centers, metric)
    unseen_nearest, d_u = _nearest(features, unseen_centers.centers, metric)
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

    For each class, all test instances are ranked once by distance to the
    class center and the top ceil(ratio * n_c) are retrieved for every ratio.
    """
    for ratio in ratios:
        if not valid_retrieval_ratio(ratio):
            raise InvalidInputError(
                f"eval.retrieval_ratios must be finite and > 0, got {ratio!r}")
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    d = _distances(features, unseen_centers.centers, metric).T
    precisions = {float(ratio): [] for ratio in ratios}
    for j, cid in enumerate(unseen_centers.class_ids):
        truth = labels == cid
        n_c = int(truth.sum())
        if n_c == 0:
            raise InvalidInputError(f"unseen class {int(cid)} has no test instances")
        ranked = truth[np.argsort(d[j], kind="stable")]
        for ratio, per_class in precisions.items():
            k = int(np.ceil(ratio * n_c))
            per_class.append(float(ranked[:k].sum()) / k)
    return {ratio: float(np.mean(per_class)) for ratio, per_class in precisions.items()}


# --------------------------------------------------------------------------
# Curve export
# --------------------------------------------------------------------------

def curve_csv(curve: SeenUnseenCurve) -> str:
    lines = ["calibration,acc_seen,acc_unseen"]
    for c, s, u in zip(curve.calibrations, curve.seen_acc, curve.unseen_acc):
        lines.append(f"{c:.6g},{s:.6g},{u:.6g}")
    return "\n".join(lines) + "\n"


def curve_svg(curve: SeenUnseenCurve, width: int = 480, height: int = 480) -> str:
    """Plain-text SVG line plot of seen accuracy (y) over unseen accuracy (x)."""
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
