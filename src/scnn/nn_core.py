"""Numerical primitives: init, layer forward/backward, dropout, loss, Adam.

All functions are pure in their inputs plus an explicit Rng; randomness never
comes from hidden global state. Parameters and activations are float32 by
default; passing float64 arrays flows float64 end to end (used by the
gradient checker). Reductions keep a fixed order so repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .rng import Rng


def xavier_init(fan_in: int, fan_out: int, shape, rng: Rng, dtype=np.float32) -> np.ndarray:
    """Uniform init on [-b, b] with b = sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be >= 1, got {fan_in}, {fan_out}")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape).astype(dtype)


# --------------------------------------------------------------------------
# dense layers
# --------------------------------------------------------------------------

def dense_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray, activation: str = "identity"):
    """y = act(x @ W + b) with act in {relu, identity}; x is (B, n)."""
    if activation not in ("relu", "identity"):
        raise ValueError(f"unknown activation {activation!r}")
    if x.shape[-1] != W.shape[0] or b.shape != (W.shape[1],):
        raise ValueError(f"shape mismatch: x {x.shape}, W {W.shape}, b {b.shape}")
    z = x @ W + b
    y = np.maximum(z, 0) if activation == "relu" else z
    return y, (x, z, W, activation)


def dense_backward(cache, dy: np.ndarray):
    """Returns (dx, dW, db) for the cached dense forward."""
    x, z, W, activation = cache
    dz = dy * (z > 0) if activation == "relu" else dy
    dW = x.T @ dz
    db = dz.sum(axis=0)
    dx = dz @ W.T
    return dx, dW.astype(x.dtype, copy=False), db.astype(x.dtype, copy=False)


# --------------------------------------------------------------------------
# softmax / cross-entropy
# --------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis; rejects NaN input."""
    if np.isnan(logits).any():
        raise NumericError("softmax input contains NaN")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, gold) -> float:
    """Mean negative log-probability of the gold class over a (B, 3) batch
    (labels in 1..3).

    p_gold is clamped at 1e-12 so a zero probability yields a large finite
    loss instead of -inf.
    """
    labels = np.asarray(gold, dtype=np.int64)
    picked = probs[np.arange(len(labels)), labels - 1]
    return float(-np.log(np.maximum(picked, 1e-12)).mean())


def softmax_cross_entropy_backward(probs: np.ndarray, gold) -> np.ndarray:
    """d(mean cross-entropy)/d(logits) = (p - onehot) / batch_size."""
    labels = np.asarray(gold, dtype=np.int64)
    grad = probs.copy()
    grad[np.arange(len(labels)), labels - 1] -= 1
    grad /= len(labels)
    return grad


# --------------------------------------------------------------------------
# dropout
# --------------------------------------------------------------------------

def dropout(x: np.ndarray, keep_prob: float, rng: Rng):
    """Inverted dropout for training: kept entries are scaled by 1/keep_prob.

    Returns (y, mask) where mask already includes the scaling (entries are 0
    or 1/keep_prob); backward is a multiply by the same mask. Inference
    applies no dropout and never calls this.
    """
    if not 0 < keep_prob <= 1:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return x, np.ones_like(x)
    mask = (rng.random(x.shape) < keep_prob).astype(x.dtype)
    mask /= np.asarray(keep_prob, dtype=x.dtype)
    return x * mask, mask


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------

# Elements per pass of an Adam update: a pass's slices of p, g, m, v and its
# two scratch buffers stay in cache, so each tensor is read and written once.
ADAM_CHUNK = 1 << 15


@dataclass
class AdamState:
    """First/second moment estimates per parameter tensor plus step count.

    ``scratch`` holds two ADAM_CHUNK-long buffers that every step reuses for
    its intermediates instead of allocating parameter-sized temporaries.
    """

    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    scratch: tuple = field(default=None, repr=False)

    @classmethod
    def for_params(cls, params: dict, beta2: float, beta1: float = 0.9,
                   epsilon: float = 1e-8) -> "AdamState":
        if not (0 < beta1 < 1 and 0 < beta2 < 1):
            raise ValueError("beta1 and beta2 must be in (0, 1)")
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


def _adam_slices(p, g, m, v, scratch):
    """(p, g, m, v, s, t) per ADAM_CHUNK slice; s and t are scratch views.
    A tensor that fits in one slice keeps its shape."""
    s_buf, t_buf = scratch
    n = p.size
    if n <= ADAM_CHUNK:
        yield p, g, m, v, s_buf[:n].reshape(p.shape), t_buf[:n].reshape(p.shape)
        return
    p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    for lo in range(0, n, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, n)
        yield p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], s_buf[:hi - lo], t_buf[:hi - lo]


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place on params and state.

    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
    p -= (lr/bc1)*m / (sqrt(v/bc2) + eps). Each tensor is updated one
    ADAM_CHUNK slice at a time with the operations in this order, so the
    result has the same bits as the formula evaluated with temporaries.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    step = lr / (1.0 - b1 ** state.t)
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape or g.dtype != p.dtype:
            raise ValueError(f"gradient {g.shape} {g.dtype} does not match param "
                             f"{p.shape} {p.dtype} for {name}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for tensor {name!r}")
        m, v = state.m[name], state.v[name]
        if not (p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError(f"parameter {name!r} and its moments must be C-contiguous")
        if state.scratch is None or state.scratch[0].dtype != p.dtype:
            state.scratch = (np.empty(ADAM_CHUNK, p.dtype), np.empty(ADAM_CHUNK, p.dtype))
        for pc, gc, mc, vc, s, t in _adam_slices(p, g, m, v, state.scratch):
            mc *= b1
            np.multiply(1 - b1, gc, out=s)
            mc += s
            vc *= b2
            np.square(gc, out=s)
            np.multiply(1 - b2, s, out=s)
            vc += s
            np.divide(vc, bc2, out=s)
            np.sqrt(s, out=s)
            s += eps
            np.multiply(step, mc, out=t)
            t /= s
            pc -= t
