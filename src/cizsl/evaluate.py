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
        order = np.argsort(self.class_ids)
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)[order]
        self.centers = np.asarray(self.centers, dtype=np.float64)[order]
        if self.centers.shape[0] != self.class_ids.shape[0]:
            raise InvalidInputError("one center required per class id")
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


def _distances(features: np.ndarray, centers: np.ndarray, metric: str) -> np.ndarray:
    if metric == "l2":
        diff = features[:, None, :] - centers[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=2))
    if metric == "cosine":
        fn = features / np.maximum(np.linalg.norm(features, axis=1, keepdims=True), 1e-12)
        cn = centers / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
        return 1.0 - fn @ cn.T
    raise InvalidInputError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _macro_accuracy(pred: np.ndarray, true: np.ndarray,
                    class_ids: np.ndarray) -> float:
    accs = []
    for cid in class_ids:
        sel = true == cid
        if np.any(sel):
            accs.append(float(np.mean(pred[sel] == cid)))
    if not accs:
        raise InvalidInputError("no test instances for the requested classes")
    return float(np.mean(accs))


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
    pred = centers.class_ids[np.argmin(d, axis=1)]
    return _macro_accuracy(pred, labels, np.unique(labels))


@dataclass
class SeenUnseenCurve:
    """Accuracy trade-off swept by a calibration bias on seen-class scores.

    Points are (calibration, seen accuracy, unseen accuracy) sorted by
    calibration, including the two infinite anchors; `auc` integrates seen
    accuracy (y) over unseen accuracy (x) by trapezoid.
    """

    calibrations: np.ndarray
    seen_acc: np.ndarray
    unseen_acc: np.ndarray
    auc: float


def trapezoid_auc(x: np.ndarray, y: np.ndarray) -> float:
    """Area under the polyline after sorting by x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    return float(np.sum(np.diff(xs) * (ys[:-1] + ys[1:]) * 0.5))


def seen_unseen_curve(features: np.ndarray, labels: np.ndarray,
                      seen_centers: ClassCenters, unseen_centers: ClassCenters,
                      calibrations: np.ndarray | None = None,
                      metric: str = "l2", n_points: int = 201,
                      class_filter: tuple[int, int] | None = None) -> SeenUnseenCurve:
    """Sweep the calibration bias and record the (seen, unseen) accuracy pair.

    Scores are negated distances; each calibration value is subtracted from
    all seen-class scores before the argmax. The default grid spans the
    largest observed per-instance gap between best seen and best unseen
    score, so the sweep covers every decision flip; the +/- infinity anchors
    (everything seen / everything unseen) are always appended.

    `class_filter` = (seen id, unseen id) restricts the reported accuracy
    pair to one class on each side while prediction stays over the full
    label space.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    seen_ids = seen_centers.class_ids
    unseen_ids = unseen_centers.class_ids
    seen_rows = np.isin(labels, seen_ids)
    unseen_rows = np.isin(labels, unseen_ids)
    if not np.any(seen_rows) or not np.any(unseen_rows):
        raise InvalidInputError("need test instances from both populations")

    acc_seen_ids = seen_ids if class_filter is None else np.array([class_filter[0]])
    acc_unseen_ids = unseen_ids if class_filter is None else np.array([class_filter[1]])

    all_ids = np.concatenate([seen_ids, unseen_ids])
    all_centers = np.concatenate([seen_centers.centers, unseen_centers.centers])
    scores = -_distances(features, all_centers, metric)
    n_seen = seen_ids.size
    s_best = scores[:, :n_seen].max(axis=1)
    u_best = scores[:, n_seen:].max(axis=1)

    if calibrations is None:
        if n_points < 1:
            raise InvalidInputError("calibration grid needs at least one point")
        d_max = float(np.max(np.abs(s_best - u_best)))
        span = d_max if d_max > 0 else 1.0
        span *= 1.0 + 1e-9
        calibrations = np.linspace(-span, span, n_points)
    else:
        calibrations = np.asarray(calibrations, dtype=np.float64)
        if calibrations.size == 0:
            raise InvalidInputError("empty calibration grid")
        if np.any(np.diff(calibrations) < 0):
            raise InvalidInputError("calibration grid must be sorted ascending")

    # anchor accuracies: prediction restricted to one side
    pred_seen_only = seen_ids[np.argmax(scores[:, :n_seen], axis=1)]
    pred_unseen_only = unseen_ids[np.argmax(scores[:, n_seen:], axis=1)]
    a_seen = _macro_accuracy(pred_seen_only[seen_rows], labels[seen_rows], acc_seen_ids) \
        if (class_filter is None or np.any(labels == class_filter[0])) else 0.0
    a_unseen = _macro_accuracy(pred_unseen_only[unseen_rows], labels[unseen_rows],
                               acc_unseen_ids) \
        if (class_filter is None or np.any(labels == class_filter[1])) else 0.0

    cals = [-np.inf]
    s_accs = [a_seen]
    u_accs = [0.0]
    for c in calibrations:
        adjusted = scores.copy()
        adjusted[:, :n_seen] -= c
        pred = all_ids[np.argmax(adjusted, axis=1)]
        s_accs.append(_macro_accuracy(pred[seen_rows], labels[seen_rows], acc_seen_ids))
        u_accs.append(_macro_accuracy(pred[unseen_rows], labels[unseen_rows],
                                      acc_unseen_ids))
        cals.append(float(c))
    cals.append(np.inf)
    s_accs.append(0.0)
    u_accs.append(a_unseen)

    auc = trapezoid_auc(np.array(u_accs), np.array(s_accs))
    return SeenUnseenCurve(calibrations=np.array(cals), seen_acc=np.array(s_accs),
                           unseen_acc=np.array(u_accs), auc=auc)


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
