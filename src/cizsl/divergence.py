"""Two-parameter Sharma-Mittal divergence family with learnable (gamma, beta),
its named limit cases, the entropy loss against the uniform distribution,
and batch min-max normalization.

The general member is

    SM(gamma, beta)(p || q) = ((sum_i p_i^gamma q_i^(1-gamma))^((1-beta)/(1-gamma)) - 1) / (beta - 1)

for gamma > 0, gamma != 1, beta != 1. The whole power sum is raised to the
exponent; this is the form under which the family's limit identities hold:

    beta -> 1                : Renyi_gamma  = ln(S) / (gamma - 1)
    beta = gamma             : Tsallis_gamma = (S - 1) / (gamma - 1)
    gamma -> 1, beta -> 1    : KL(p || q)
    gamma -> 0.5, beta -> 1  : 2 * Bhattacharyya = -2 ln sum_i sqrt(p_i q_i)

Evaluation within `GUARD_EPS` of the removable singularities at gamma = 1 or
beta = 1 dispatches to the analytic limit (values and gradients), so learnable
parameters can cross the strip without blowing up.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceUndefinedError, InvalidConfigError, InvalidInputError

MODES = ("sharma-mittal", "kl", "renyi", "tsallis", "bhattacharyya")

_TINY = np.finfo(np.float64).tiny

# half-width of the strips around gamma = 1 and beta = 1 evaluated by limits
GUARD_EPS = 1e-3


@dataclass(frozen=True)
class DivergenceParams:
    """Selects a member of the family and which parameters are learnable.

    `kl` and `bhattacharyya` have no free parameters; `renyi` frees gamma
    with beta pinned at its limit; `tsallis` ties beta = gamma. Requesting a
    pinned parameter as learnable is a configuration error.
    """

    mode: str = "sharma-mittal"
    gamma: float = 2.0
    beta: float = 0.5
    learn_gamma: bool = False
    learn_beta: bool = False

    def validate(self) -> "DivergenceParams":
        if self.mode not in MODES:
            raise InvalidConfigError(
                f"unknown divergence mode {self.mode!r}; expected one of {MODES}")
        if not self.gamma > 0:
            raise InvalidConfigError(f"gamma must be positive, got {self.gamma}")
        if self.mode in ("kl", "bhattacharyya") and (self.learn_gamma or self.learn_beta):
            raise InvalidConfigError(f"mode {self.mode!r} has no learnable parameters")
        if self.mode in ("renyi", "tsallis") and self.learn_beta:
            raise InvalidConfigError(f"mode {self.mode!r} pins beta; it cannot be learnable")
        return self

    # -- unconstrained parameterization used by the optimizer ---------------
    # gamma is stored as exp(u) so gradient steps cannot leave gamma > 0.

    def learnable_vector(self) -> np.ndarray:
        u = []
        if self.learn_gamma:
            u.append(np.log(self.gamma))
        if self.learn_beta:
            u.append(self.beta)
        return np.array(u, dtype=np.float64)

    def with_learnable_vector(self, u: np.ndarray) -> "DivergenceParams":
        """Copy with the learnable parameters read from `u`; `tsallis` keeps
        beta tied to gamma."""
        u = np.asarray(u, dtype=np.float64)
        out = self
        i = 0
        if self.learn_gamma:
            out = replace(out, gamma=float(np.exp(u[i])))
            i += 1
        if self.learn_beta:
            out = replace(out, beta=float(u[i]))
        if self.mode == "tsallis":
            out = replace(out, beta=out.gamma)
        return out

    def learnable_gradient(self, d_gamma: float, d_beta: float) -> np.ndarray:
        """Chain (d/dgamma, d/dbeta) through the unconstrained storage."""
        g = []
        if self.learn_gamma:
            g.append(d_gamma * self.gamma)
        if self.learn_beta:
            g.append(d_beta)
        return np.array(g, dtype=np.float64)


def _check_pair(p: np.ndarray, q: np.ndarray, gamma: float) -> None:
    if p.shape != q.shape:
        raise InvalidInputError(f"p and q length mismatch: {p.shape} vs {q.shape}")
    if p.shape[-1] < 2:
        raise InvalidInputError("distributions need at least 2 entries")
    if np.any(p < -1e-12):
        raise InvalidInputError("p has negative entries")
    if np.any(np.abs(np.sum(p, axis=-1) - 1.0) > 1e-9):
        raise InvalidInputError("p does not sum to 1")
    if np.any(np.abs(np.sum(q, axis=-1) - 1.0) > 1e-9):
        raise InvalidInputError("q does not sum to 1")
    bad = (q <= 0.0) & (p > 0.0)
    if np.any(bad):
        raise DivergenceUndefinedError(
            f"q vanishes where p has mass (gamma={gamma}); divergence undefined")


def _log_terms(p: np.ndarray, q: np.ndarray, gamma: float) -> np.ndarray:
    """log(p_i^gamma q_i^(1-gamma)) with p_i = 0 terms mapped to -inf."""
    safe_p = np.maximum(p, _TINY)
    safe_q = np.maximum(q, _TINY)
    lt = gamma * np.log(safe_p) + (1.0 - gamma) * np.log(safe_q)
    return np.where(p > 0.0, lt, -np.inf)


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p_i ln(p_i/q_i) with the 0 ln 0 := 0 convention."""
    safe_p = np.maximum(p, _TINY)
    ratio = np.log(safe_p) - np.log(np.maximum(q, _TINY))
    return np.where(p > 0.0, p * ratio, 0.0)


def _kl_value(p, q):
    return np.sum(_kl_terms(p, q), axis=-1)


def _kl_second_moment(p, q):
    """sum_i p_i ln^2(p_i/q_i); appears in limit expansions at gamma -> 1."""
    safe_p = np.maximum(p, _TINY)
    ratio = np.log(safe_p) - np.log(np.maximum(q, _TINY))
    return np.sum(np.where(p > 0.0, p * ratio * ratio, 0.0), axis=-1)


def _sm_batch(p: np.ndarray, q: np.ndarray, params: DivergenceParams):
    """Per-row divergence and its partials for 2-D inputs (rows are
    distributions): (values, d/dp rows, d/dgamma rows, d/dbeta rows).

    Within the guard strip the values and gradients are those of the
    dispatched limit formula, including the exact cross-terms
        d SM/d beta |_{beta->1}  = ln^2(S) / (2 (1-gamma)^2)
        d SM/d gamma|_{gamma->1} = e^{(beta-1) KL} (M - KL^2) / 2
    with M = sum p ln^2(p/q), so training can traverse the strip smoothly.
    """
    gamma, beta = params.gamma, params.beta
    mode = params.mode
    zeros = np.zeros(p.shape[0])

    if mode == "kl":
        return _kl_value(p, q), _kl_grad_p(p, q), zeros, zeros
    if mode == "bhattacharyya":
        bc = np.sum(np.sqrt(p * q), axis=-1, keepdims=True)
        dp = -0.5 * np.sqrt(np.maximum(q, _TINY) / np.maximum(p, _TINY)) / bc
        return -np.log(bc[:, 0]), dp, zeros, zeros

    near_b = abs(beta - 1.0) < GUARD_EPS
    if abs(gamma - 1.0) < GUARD_EPS:
        # KL limit of the family
        k = _kl_value(p, q)
        m2 = _kl_second_moment(p, q)
        dp = _kl_grad_p(p, q)
        dg = 0.5 * (m2 - k * k)
        db = 0.5 * k * k
        if mode == "renyi":
            return k, dp, dg, zeros
        if mode == "tsallis":
            # along the constrained beta = gamma line both partials advance
            return k, dp, dg + db, zeros
        if near_b:
            return k, dp, dg, db
        expk = np.exp((beta - 1.0) * k)
        em1 = np.expm1((beta - 1.0) * k)
        dg = 0.5 * expk * (m2 - k * k)
        db = (k * expk * (beta - 1.0) - em1) / (beta - 1.0) ** 2
        return em1 / (beta - 1.0), expk[:, None] * dp, dg, db

    s, ds_dp, ds_dg, ln_s = _power_sum_pieces(p, q, gamma)
    if mode == "tsallis":
        dp = ds_dp / (gamma - 1.0)
        dg = (ds_dg * (gamma - 1.0) - (s - 1.0)) / (gamma - 1.0) ** 2
        return (s - 1.0) / (gamma - 1.0), dp, dg, zeros
    if mode == "renyi" or near_b:
        dp = ds_dp / (s[:, None] * (gamma - 1.0))
        dg = -ln_s / (gamma - 1.0) ** 2 + ds_dg / (s * (gamma - 1.0))
        db = zeros if mode == "renyi" else ln_s * ln_s / (2.0 * (1.0 - gamma) ** 2)
        return ln_s / (gamma - 1.0), dp, dg, db
    # sharma-mittal
    exponent = (1.0 - beta) / (1.0 - gamma)
    a = np.exp(exponent * ln_s)
    dp = a[:, None] * exponent * ds_dp / s[:, None] / (beta - 1.0)
    da_dg = a * (exponent / (1.0 - gamma) * ln_s + exponent * ds_dg / s)
    dg = da_dg / (beta - 1.0)
    da_db = a * (-ln_s / (1.0 - gamma))
    db = (da_db * (beta - 1.0) - (a - 1.0)) / (beta - 1.0) ** 2
    return np.expm1(exponent * ln_s) / (beta - 1.0), dp, dg, db


def _power_sum_pieces(p, q, gamma):
    """S, dS/dp, dS/dgamma and ln S for rows, with stable exponentials."""
    lt = _log_terms(p, q, gamma)
    m = np.max(lt, axis=-1, keepdims=True)
    e = np.exp(lt - m)
    s_scaled = np.sum(e, axis=-1, keepdims=True)
    ln_s = (m + np.log(s_scaled))[..., 0]
    s = np.exp(ln_s)
    # dS/dp_i = gamma * p_i^(gamma-1) q_i^(1-gamma); infinite at p_i = 0 when
    # gamma < 1, which the gradient contract excludes (interior points only).
    safe_p = np.maximum(p, _TINY)
    ds_dp = gamma * np.exp(lt - np.log(safe_p))
    log_ratio = np.where(p > 0.0,
                         np.log(safe_p) - np.log(np.maximum(q, _TINY)), 0.0)
    ds_dgamma = np.sum(np.where(p > 0.0, np.exp(lt), 0.0) * log_ratio, axis=-1)
    return s, ds_dp, ds_dgamma, ln_s


def _kl_grad_p(p, q):
    safe_p = np.maximum(p, _TINY)
    return np.log(safe_p) - np.log(np.maximum(q, _TINY)) + 1.0


def _checked_pair(p, q, params: DivergenceParams):
    params.validate()
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    _check_pair(p, q, params.gamma)
    return p[None, :], q[None, :]


def sm_divergence(p, q, params: DivergenceParams) -> float:
    """Divergence of the selected family member between two distributions."""
    values, _, _, _ = _sm_batch(*_checked_pair(p, q, params), params)
    return float(values[0])


def sm_divergence_grads(p, q, params: DivergenceParams):
    """Analytic partials of the divergence: (d/dp vector, (d/dgamma, d/dbeta))."""
    _, dp, dg, db = _sm_batch(*_checked_pair(p, q, params), params)
    return dp[0], (float(dg[0]), float(db[0]))


def entropy_loss_le(class_probs, params: DivergenceParams) -> float:
    """Divergence between a class distribution and the uniform distribution.

    Zero exactly when the input is uniform; strictly positive otherwise.
    """
    p = np.asarray(class_probs, dtype=np.float64)
    if p.shape[-1] < 2:
        raise InvalidInputError("entropy loss needs at least 2 classes")
    q = np.full_like(p, 1.0 / p.shape[-1])
    return sm_divergence(p, q, params)


def entropy_loss_batch(probs: np.ndarray, params: DivergenceParams):
    """Entropy loss values + gradients for a batch of softmax rows.

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
