"""Two-parameter Sharma-Mittal divergence family with learnable (gamma, beta),
the entropy loss against the uniform distribution, and batch min-max
normalization.

The family is

    SM(gamma, beta)(p || q) = ((sum_i p_i^gamma q_i^(1-gamma))^((1-beta)/(1-gamma)) - 1) / (beta - 1)

for gamma > 0, gamma != 1, beta != 1. The whole power sum S is raised to the
exponent; this is the form under which the family's limit identities hold
(Nielsen & Nock 2011):

    beta -> 1                : Renyi_gamma   = ln(S) / (gamma - 1)
    beta = gamma             : Tsallis_gamma = (S - 1) / (gamma - 1)
    gamma -> 1, beta -> 1    : KL(p || q)
    gamma -> 0.5, beta -> 1  : 2 * Bhattacharyya = -2 ln sum_i sqrt(p_i q_i)

The named modes are this one formula at pinned parameters, and only
`DivergenceParams` knows them: it pins kl at (1, 1), bhattacharyya at
(0.5, 1) and renyi's beta at 1, and ties tsallis's beta to gamma,
overwriting whatever a caller passes. The partial of a pinned parameter is
0, tsallis's gamma partial is taken along beta = gamma, and bhattacharyya
is half the family's (0.5, 1) limit, -ln sum_i sqrt(p_i q_i).

Within `GUARD_EPS` of the removable singularities at gamma = 1 or beta = 1
the values and gradients are those of the analytic limit, so learnable
parameters can cross the strip without blowing up.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceUndefinedError, InvalidConfigError, InvalidInputError

# which of (gamma, beta) each mode leaves free; DivergenceParams pins the rest
_FREE = {
    "sharma-mittal": ("gamma", "beta"),
    "renyi": ("gamma",),
    "tsallis": ("gamma",),
    "kl": (),
    "bhattacharyya": (),
}
MODES = tuple(_FREE)

_TINY = np.finfo(np.float64).tiny

# half-width of the strips around gamma = 1 and beta = 1 evaluated by limits
GUARD_EPS = 1e-3


@dataclass(frozen=True)
class DivergenceParams:
    """A member of the family: a mode and a point (gamma, beta).

    Construction pins what the mode does not leave free (see the module
    docstring), and `dataclasses.replace` re-runs it, so every copy keeps
    the pins. Which parameters training learns is the training config's
    choice (`TrainConfig.learn_gamma`, `learn_beta`).
    """

    mode: str = "sharma-mittal"
    gamma: float = 2.0
    beta: float = 0.5

    def __post_init__(self):
        gamma, beta = {"kl": (1.0, 1.0), "bhattacharyya": (0.5, 1.0),
                       "renyi": (self.gamma, 1.0),
                       "tsallis": (self.gamma, self.gamma)}.get(
                           self.mode, (self.gamma, self.beta))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "beta", beta)

    @property
    def free(self) -> tuple[str, ...]:
        """The parameters, of "gamma" and "beta", that the mode leaves free."""
        return _FREE[self.mode]

    def validate(self) -> "DivergenceParams":
        if self.mode not in _FREE:
            raise InvalidConfigError(
                f"unknown divergence mode {self.mode!r}; expected one of {MODES}")
        if not self.gamma > 0:
            raise InvalidConfigError(f"gamma must be positive, got {self.gamma}")
        return self


def _sm_batch(p: np.ndarray, q: np.ndarray, params: DivergenceParams):
    """Per-row divergence and its partials for 2-D inputs (rows are
    distributions): (values, d/dp rows, d/dgamma rows, d/dbeta rows).

    Within the guard strip the values and gradients are those of the limit
    formula, including the exact cross-terms
        d SM/d beta |_{beta->1}  = ln^2(S) / (2 (1-gamma)^2)
        d SM/d gamma|_{gamma->1} = e^{(beta-1) KL} (M - KL^2) / 2
    with M = sum p ln^2(p/q), so training can traverse the strip smoothly.
    Terms with p_i = 0 contribute nothing (0 ln 0 := 0).
    """
    gamma, beta = params.gamma, params.beta
    pos = p > 0.0
    log_p = np.log(np.maximum(p, _TINY))
    log_q = np.log(np.maximum(q, _TINY))
    ratio = log_p - log_q
    near_b = abs(beta - 1.0) < GUARD_EPS

    if abs(gamma - 1.0) < GUARD_EPS:
        # KL limit of the family
        p_ratio = p * ratio
        k = np.sum(np.where(pos, p_ratio, 0.0), axis=-1)
        m2 = np.sum(np.where(pos, p_ratio * ratio, 0.0), axis=-1)
        value, dp = k, ratio + 1.0
        dg = 0.5 * (m2 - k * k)
        db = 0.5 * k * k
        if not near_b:
            expk = np.exp((beta - 1.0) * k)
            em1 = np.expm1((beta - 1.0) * k)
            value, dp = em1 / (beta - 1.0), expk[:, None] * dp
            dg = 0.5 * expk * (m2 - k * k)
            db = (k * expk * (beta - 1.0) - em1) / (beta - 1.0) ** 2
    else:
        # power sum S = sum_i p_i^gamma q_i^(1-gamma) by a stable log-sum-exp
        lt = np.where(pos, gamma * log_p + (1.0 - gamma) * log_q, -np.inf)
        top = np.max(lt, axis=-1, keepdims=True)
        ln_s = (top + np.log(np.sum(np.exp(lt - top), axis=-1, keepdims=True)))[:, 0]
        s = np.exp(ln_s)
        # dS/dp_i = gamma p_i^(gamma-1) q_i^(1-gamma) is infinite at p_i = 0
        # when gamma < 1; the gradient contract covers interior points only
        ds_dp = gamma * np.exp(lt - log_p)
        ds_dg = np.sum(np.exp(lt) * ratio, axis=-1)
        if near_b:
            # Renyi limit of the family
            value = ln_s / (gamma - 1.0)
            dp = ds_dp / (s[:, None] * (gamma - 1.0))
            dg = -ln_s / (gamma - 1.0) ** 2 + ds_dg / (s * (gamma - 1.0))
            db = ln_s * ln_s / (2.0 * (1.0 - gamma) ** 2)
        else:
            exponent = (1.0 - beta) / (1.0 - gamma)
            a = np.exp(exponent * ln_s)
            value = np.expm1(exponent * ln_s) / (beta - 1.0)
            dp = a[:, None] * exponent * ds_dp / s[:, None] / (beta - 1.0)
            dg = a * (exponent / (1.0 - gamma) * ln_s + exponent * ds_dg / s) / (beta - 1.0)
            db = (a * (-ln_s / (1.0 - gamma)) * (beta - 1.0) - (a - 1.0)) / (beta - 1.0) ** 2

    # the modes' semantics on top of the family's value and partials
    if params.mode == "tsallis":
        dg = dg + db  # gamma's partial along the tied line beta = gamma
    if "gamma" not in params.free:
        dg = np.zeros_like(value)
    if "beta" not in params.free:
        db = np.zeros_like(value)
    if params.mode == "bhattacharyya":
        value, dp = 0.5 * value, 0.5 * dp
    return value, dp, dg, db


def _checked_pair(p, q, params: DivergenceParams):
    """`p` and `q` as one-row batches, after checking they are distributions
    over the same support on which the divergence is defined."""
    params.validate()
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or q.ndim != 1:
        raise InvalidInputError(
            f"p and q must be 1-D distributions, got shapes {p.shape} and {q.shape}")
    if p.shape != q.shape:
        raise InvalidInputError(f"p and q length mismatch: {p.shape} vs {q.shape}")
    if p.size < 2:
        raise InvalidInputError("distributions need at least 2 entries")
    if np.any(p < -1e-12):
        raise InvalidInputError("p has negative entries")
    if np.any(np.abs(np.sum(p, axis=-1) - 1.0) > 1e-9):
        raise InvalidInputError("p does not sum to 1")
    if np.any(np.abs(np.sum(q, axis=-1) - 1.0) > 1e-9):
        raise InvalidInputError("q does not sum to 1")
    if np.any((q <= 0.0) & (p > 0.0)):
        raise DivergenceUndefinedError(
            f"q vanishes where p has mass (gamma={params.gamma}); divergence undefined")
    return p[None, :], q[None, :]


def sm_divergence(p, q, params: DivergenceParams) -> float:
    """Divergence of the selected family member between two distributions."""
    values, _, _, _ = _sm_batch(*_checked_pair(p, q, params), params)
    return float(values[0])


def sm_divergence_grads(p, q, params: DivergenceParams):
    """Analytic partials of the divergence: (d/dp vector, (d/dgamma, d/dbeta))."""
    _, dp, dg, db = _sm_batch(*_checked_pair(p, q, params), params)
    return dp[0], (float(dg[0]), float(db[0]))


def entropy_loss_batch(probs: np.ndarray, params: DivergenceParams):
    """Divergence of each softmax row from the uniform distribution: zero
    exactly when the row is uniform, strictly positive otherwise.

    Returns (values (n,), d/dprobs (n, K), d/dgamma (n,), d/dbeta (n,)).
    """
    params.validate()
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise InvalidInputError("expected a batch of distributions over >= 2 classes")
    q = np.full_like(probs, 1.0 / probs.shape[1])
    return _sm_batch(probs, q, params)


_DEGENERATE_RTOL = 1e-12


def minmax_bounds(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InvalidInputError("empty batch has no min-max bounds")
    return float(np.min(values)), float(np.max(values))


def batch_minmax_normalize(values, bounds: tuple[float, float] | None = None) -> np.ndarray:
    """(v - min) / (max - min) per element, extremes treated as constants.

    Degenerate batches (all equal, or a singleton) map to 0.5 everywhere.
    `bounds` lets a caller freeze (min, max) captured at an earlier point,
    the stop-gradient semantics under which the analytic gradients hold.
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = minmax_bounds(values) if bounds is None else bounds
    if hi - lo <= _DEGENERATE_RTOL * max(1.0, abs(hi)):
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


def minmax_gradient_scale(bounds: tuple[float, float]) -> float:
    """d(normalized)/d(value) with min/max frozen; 0 for degenerate batches."""
    lo, hi = bounds
    if hi - lo <= _DEGENERATE_RTOL * max(1.0, abs(hi)):
        return 0.0
    return 1.0 / (hi - lo)
