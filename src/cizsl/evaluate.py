"""Zero-shot and generalized zero-shot evaluation: unseen-class feature
synthesis, nearest-center classification, the seen/unseen trade-off curve
with its AUC, harmonic mean, and per-class retrieval precision.

Accuracies are macro (per class, then averaged). Ties in nearest-center
decisions go to the smaller class id; ties in retrieval distances go to the
smaller instance index.
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
    source: str = "real"

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
    return ClassCenters(class_ids=np.array(ids), centers=np.array(centers),
                        source=f"generated({n})")


# Byte budget of one row block of the l2 difference tensor (rows x K x D
# float64); squaring it takes as much again.
_L2_BLOCK_BYTES = 32 * 2**20


def _distances(features: np.ndarray, centers: np.ndarray, metric: str) -> np.ndarray:
    if metric == "l2":
        out = np.empty((features.shape[0], centers.shape[0]))
        rows = max(1, _L2_BLOCK_BYTES // max(1, 8 * centers.size))
        for start in range(0, features.shape[0], rows):
            diff = features[start:start + rows, None, :] - centers[None, :, :]
            out[start:start + rows] = np.sqrt(np.sum(diff * diff, axis=2))
        return out
    if metric == "cosine":
        fn = features / np.maximum(np.linalg.norm(features, axis=1, keepdims=True), 1e-12)
        cn = centers / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
        return 1.0 - fn @ cn.T
    raise InvalidInputError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _class_positions(labels: np.ndarray, class_ids: np.ndarray) -> np.ndarray:
    """Each row's index in the sorted `class_ids`, or `class_ids.size` for
    rows labelled with another class."""
    return np.where(np.isin(labels, class_ids),
                    np.searchsorted(class_ids, labels), class_ids.size)


def _macro_accuracy(hits: np.ndarray, positions: np.ndarray, n_classes: int) -> float:
    """Mean over classes of the per-class hit rate; classes without rows are
    skipped and rows at position `n_classes` count for no class."""
    counts = np.bincount(positions, minlength=n_classes + 1)[:n_classes]
    hit_counts = np.bincount(positions, weights=hits, minlength=n_classes + 1)[:n_classes]
    present = counts > 0
    return float(np.mean(hit_counts[present] / counts[present]))


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
    class_ids = np.unique(labels)
    return _macro_accuracy(hits, _class_positions(labels, class_ids), class_ids.size)


@dataclass
class SeenUnseenCurve:
    """Accuracy trade-off swept by a calibration bias on seen-class scores.

    Points are (calibration, seen accuracy, unseen accuracy) sorted by
    calibration, including the two infinite anchors; `auc` integrates seen
    accuracy (y) over unseen accuracy (x) by trapezoid. `at_zero` is the
    (seen, unseen) pair without calibration.
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
                      metric: str = "l2", n_points: int = 201) -> SeenUnseenCurve:
    """Sweep the calibration bias and record the (seen, unseen) accuracy pair.

    One distance matrix over all centers gives each row its nearest seen
    class at distance d_s and its nearest unseen class at d_u. At
    calibration c a row predicts its seen class iff d_s + c <= d_u, which is
    subtracting c from the seen classes' negated-distance scores with the
    seen side winning an exact tie. The grid of `n_points` spans the largest
    per-row |d_u - d_s|, so it covers every decision flip; the -inf
    (everything seen) and +inf (everything unseen) anchors are the same
    decision. Rows labelled with neither population are ignored.
    """
    if n_points < 3:
        raise InvalidInputError(f"eval.calibration_points must be >= 3, got {n_points}")
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    seen_ids = seen_centers.class_ids
    unseen_ids = unseen_centers.class_ids
    n_seen, n_unseen = seen_ids.size, unseen_ids.size
    seen_pos = _class_positions(labels, seen_ids)
    unseen_pos = _class_positions(labels, unseen_ids)
    if np.all(seen_pos == n_seen) or np.all(unseen_pos == n_unseen):
        raise InvalidInputError("need test instances from both populations")

    d = _distances(features, np.concatenate([seen_centers.centers,
                                             unseen_centers.centers]), metric)
    d_s, d_u = d[:, :n_seen].min(axis=1), d[:, n_seen:].min(axis=1)
    seen_hit = seen_ids[d[:, :n_seen].argmin(axis=1)] == labels
    unseen_hit = unseen_ids[d[:, n_seen:].argmin(axis=1)] == labels

    def accuracy_pair(c: float) -> tuple[float, float]:
        hits = np.where(d_s + c <= d_u, seen_hit, unseen_hit)
        return (_macro_accuracy(hits, seen_pos, n_seen),
                _macro_accuracy(hits, unseen_pos, n_unseen))

    d_max = float(np.max(np.abs(d_u - d_s)))
    span = (d_max if d_max > 0 else 1.0) * (1.0 + 1e-9)
    cals = np.concatenate([[-np.inf], np.linspace(-span, span, n_points), [np.inf]])
    seen_acc, unseen_acc = (np.array(a) for a in zip(*map(accuracy_pair, cals)))
    return SeenUnseenCurve(calibrations=cals, seen_acc=seen_acc, unseen_acc=unseen_acc,
                           auc=trapezoid_auc(unseen_acc, seen_acc),
                           at_zero=accuracy_pair(0.0))


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

    For each class, all test instances are ranked by distance to the class
    center and the top ceil(ratio * n_c) are retrieved.
    """
    for ratio in ratios:
        if not valid_retrieval_ratio(ratio):
            raise InvalidInputError(
                f"eval.retrieval_ratios must be finite and > 0, got {ratio!r}")
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    d = _distances(features, unseen_centers.centers, metric)
    out = {}
    for ratio in ratios:
        precisions = []
        for j, cid in enumerate(unseen_centers.class_ids):
            truth = labels == cid
            n_c = int(truth.sum())
            if n_c == 0:
                raise InvalidInputError(f"unseen class {int(cid)} has no test instances")
            k = int(np.ceil(ratio * n_c))
            top = np.argsort(d[:, j], kind="stable")[:k]
            precisions.append(float(truth[top].sum()) / k)
        out[float(ratio)] = float(np.mean(precisions))
    return out


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

    def px(u, s):
        return pad + u * w, pad + (1.0 - s) * h

    order = np.argsort(curve.unseen_acc, kind="stable")
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                   (px(curve.unseen_acc[i], curve.seen_acc[i]) for i in order))
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
