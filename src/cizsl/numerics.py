"""Deterministic numerical kernels: stable probability transforms, the Adam
update rule, seeded counter-based randomness, and a central-difference
gradient oracle used by the test suite.

Everything here is 64-bit and purely functional: identical inputs give
bit-identical outputs, on any thread.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, OracleFailureError

# Stream ids used by the training loop so that changing one consumer of
# randomness does not perturb the draw sequences of the others.
STREAM_INIT = 0
STREAM_NOISE = 1
STREAM_ALPHA = 2
STREAM_SHUFFLE = 3
STREAM_GP = 4
STREAM_EVAL = 5

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of splitmix64; used to derive decorrelated stream ids."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Backed by the counter-based Philox generator, so streams with distinct
    ids are statistically independent and a stream rebuilt from the same
    key reproduces its draw sequence bit for bit.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = np.array([self.seed, self.stream_id], dtype=_U64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, stream_id: int) -> "RngStream":
        """Fresh stream with the same seed and the given purpose id."""
        return RngStream(self.seed, stream_id)

    def derive(self, salt: int) -> "RngStream":
        """Fresh stream whose id is a hash of this stream's id and `salt`."""
        mixed = _splitmix64(self.stream_id ^ _splitmix64(salt & _MASK64))
        return RngStream(self.seed, mixed)

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws."""
        return self._gen.standard_normal(shape, dtype=np.float64)

    def uniform(self, lo: float, hi: float, shape=None):
        """Uniform draws on [lo, hi)."""
        if not lo < hi:
            raise InvalidInputError(f"uniform bounds require lo < hi, got [{lo}, {hi})")
        u = self._gen.random(shape, dtype=np.float64)
        return lo + (hi - lo) * u

    def integers(self, lo: int, hi: int, shape=None):
        """Integer draws on [lo, hi)."""
        if not lo < hi:
            raise InvalidInputError(f"integer bounds require lo < hi, got [{lo}, {hi})")
        return self._gen.integers(lo, hi, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction.

    Accepts a vector or a matrix of row vectors; output rows sum to 1.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise InvalidInputError("softmax of an empty vector")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("softmax input contains non-finite entries")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax via the log-sum-exp identity."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise InvalidInputError("log_softmax of an empty vector")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("log_softmax input contains non-finite entries")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def softmax_vjp(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the logits.

    d_logits = p * (d_probs - <d_probs, p>), row-wise.
    """
    inner = np.sum(d_probs * probs, axis=-1, keepdims=True)
    return probs * (d_probs - inner)


@dataclass
class AdamState:
    """Adam moments plus hyperparameters (defaults lr 0.001, betas 0.5/0.9)."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float = 0.001
    beta1: float = 0.5
    beta2: float = 0.9
    eps: float = 1e-8


def adam_init(shape, lr: float = 0.001, beta1: float = 0.5,
              beta2: float = 0.9, eps: float = 1e-8) -> AdamState:
    """Zero moments of the given shape: a parameter count, or (B, n) for a
    stack of B models, which then share the step count."""
    return AdamState(m=np.zeros(shape), v=np.zeros(shape), step=0,
                     lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on the float64 array `params`
    and on the moments and step count in `state`."""
    grad = np.asarray(grad, dtype=np.float64)
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64):
        raise InvalidInputError("adam_step updates a float64 array in place")
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise InvalidInputError(
            f"adam_step length mismatch: params {params.shape}, grad {grad.shape}, "
            f"moments {state.m.shape}")
    state.step += 1
    # params -= lr * m_hat / (sqrt(v_hat) + eps), operation by operation in
    # two work arrays, so stacks of models allocate no further temporaries
    work = np.multiply(grad, 1.0 - state.beta1)
    state.m *= state.beta1
    state.m += work
    np.multiply(grad, 1.0 - state.beta2, out=work)
    work *= grad
    state.v *= state.beta2
    state.v += work
    np.divide(state.v, 1.0 - state.beta2 ** state.step, out=work)
    np.sqrt(work, out=work)
    work += state.eps
    update = np.divide(state.m, 1.0 - state.beta1 ** state.step)
    update *= state.lr
    update /= work
    params -= update


def finite_diff_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                         h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle: (f(x+h e_i) - f(x-h e_i)) / 2h."""
    if h <= 0:
        raise InvalidInputError(f"finite difference step must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        dn = f(x)
        flat[i] = orig
        if not (np.isfinite(up) and np.isfinite(dn)):
            raise OracleFailureError(
                f"objective returned a non-finite value at coordinate {i}")
        gflat[i] = (up - dn) / (2.0 * h)
    return grad


def relative_error(approx: np.ndarray, exact: np.ndarray,
                   floor: float = 1e-6) -> float:
    """Symmetric relative error between two gradient vectors."""
    a = np.asarray(approx, dtype=np.float64).ravel()
    b = np.asarray(exact, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(a) + np.linalg.norm(b)), floor)
    return float(np.linalg.norm(a - b) / denom)
