"""Numerical primitives: init, layer forward/backward, dropout, loss, Adam.

Randomness comes from an explicit Rng, never hidden global state; functions
write only to buffers passed in (``out=``, Adam's flat buffers). Parameters
and activations are float32 by default; passing float64 arrays flows float64
end to end (used by the gradient checker). Reductions keep a fixed order so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .rng import Rng


def xavier_init(fan_in: int, fan_out: int, shape, rng: Rng) -> np.ndarray:
    """Uniform float64 draws on [-b, b] with b = sqrt(6 / (fan_in + fan_out));
    the caller casts them on assignment into its parameter buffer."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be >= 1, got {fan_in}, {fan_out}")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


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


def dense_backward(cache, dy: np.ndarray, out=None):
    """Returns (dx, dW, db) for the cached dense forward. With ``out`` a
    (dW, db) pair of buffers, the weight gradients are written into them."""
    x, z, W, activation = cache
    dz = dy * (z > 0) if activation == "relu" else dy
    dW, db = out if out is not None else (np.empty(W.shape, x.dtype),
                                          np.empty(W.shape[1], x.dtype))
    np.matmul(x.T, dz, out=dW)
    np.sum(dz, axis=0, out=db)
    return dz @ W.T, dW, db


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
# two scratch buffers stay in cache, so each element is read and written once.
ADAM_CHUNK = 1 << 15
ADAM_BETA1 = 0.9  # Adam's first-moment decay and epsilon; beta2 is a hyperparameter
ADAM_EPSILON = 1e-8


def tensor_at(layout, index: int) -> str:
    """The name of the tensor of ``layout`` (``param_shapes``) holding flat element ``index``."""
    ends = np.cumsum([math.prod(shape) for _, shape in layout])
    return layout[int(np.searchsorted(ends, index, side="right"))][0]


def check_finite(grads: np.ndarray, layout, offset: int = 0) -> None:
    """NumericError naming the tensor of ``layout`` that holds the first
    non-finite element of ``grads``, the flat gradients of the span of the
    layout that starts at element ``offset``."""
    finite = np.isfinite(grads)
    if not finite.all():
        name = tensor_at(layout, offset + int(np.argmin(finite)))
        raise NumericError(f"non-finite gradient for tensor {name!r}")


@dataclass
class AdamState:
    """Adam's moment estimates of a flat parameter buffer and its step count.

    ``layout`` is the buffer's (name, shape) table, which names the tensor of
    a non-finite gradient; ``scratch`` holds two buffers of up to ADAM_CHUNK
    elements that every step reuses for its intermediates. The moments stay
    zero until a step advances ``t``, so fresh moments are untouched zero
    pages until the first step, and ``reset`` writes them only after one.
    """

    m: np.ndarray
    v: np.ndarray
    layout: list
    scratch: tuple = field(repr=False)
    t: int = 0
    beta2: float = 0.999

    @classmethod
    def for_arena(cls, params: np.ndarray, layout, beta2: float) -> "AdamState":
        """Zero moments for the flat buffer ``params`` laid out as ``layout``."""
        if not 0 < beta2 < 1:
            raise ValueError("beta2 must be in (0, 1)")
        n = min(ADAM_CHUNK, params.size)
        return cls(m=np.zeros(params.shape, params.dtype),
                   v=np.zeros(params.shape, params.dtype), layout=list(layout),
                   scratch=(np.empty(n, params.dtype), np.empty(n, params.dtype)),
                   beta2=beta2)

    def reset(self) -> None:
        """Zero the moments and the step count, as at an annealing restart."""
        if self.t:
            self.m.fill(0)
            self.v.fill(0)
        self.t = 0


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float,
              offset: int = 0, advance: bool = True) -> None:
    """One bias-corrected Adam update of the span of the flat ``params`` that
    starts at element ``offset`` and holds ``grads.size`` elements, in place
    on that span of params and of the state's moments.

    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
    p -= (lr/bc1)*m / (sqrt(v/bc2) + eps). The span is updated one
    ADAM_CHUNK slice at a time with the operations in this order, so the
    result has the same bits as the formula evaluated with temporaries.
    A step may update the buffer in several spans, one call each: the first
    advances the step count, and each further one passes ``advance=False``
    to update its span at that count (ValueError before any step has
    advanced it). Non-finite gradients raise NumericError (check_finite)
    before anything is updated.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if not (advance or state.t):
        raise ValueError("the first step must advance the step count")
    m, v = state.m, state.v
    for what, a in (("first moment", m), ("second moment", v)):
        if a.shape != params.shape or a.dtype != params.dtype:
            raise ValueError(f"{what} {a.shape} {a.dtype} does not match parameters "
                             f"{params.shape} {params.dtype}")
    n = grads.size
    if grads.ndim != 1 or grads.dtype != params.dtype or not 0 <= offset <= params.size - n:
        raise ValueError(f"gradient {grads.shape} {grads.dtype} at offset {offset} does not "
                         f"fit parameters {params.shape} {params.dtype}")
    if not all(a.ndim == 1 and a.flags.c_contiguous for a in (params, grads, m, v)):
        raise ValueError("parameters, gradients and moments must be flat C-contiguous buffers")
    check_finite(grads, state.layout, offset)
    if advance:
        state.t += 1
    b1, b2, eps = ADAM_BETA1, state.beta2, ADAM_EPSILON
    step = lr / (1.0 - b1 ** state.t)
    bc2 = 1.0 - b2 ** state.t
    s_buf, t_buf = state.scratch
    for lo in range(0, n, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, n)
        pc, mc, vc = (a[offset + lo:offset + hi] for a in (params, m, v))
        gc, s, t = grads[lo:hi], s_buf[:hi - lo], t_buf[:hi - lo]
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
