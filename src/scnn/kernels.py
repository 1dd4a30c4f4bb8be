"""Convolution + max-over-time pooling kernels, the hot inner loops.

Both kernels are plain numpy over BLAS, in the im2col formulation of
Chellapilla et al. (2006), *High Performance Convolutional Neural Networks
for Document Processing*. The forward is one GEMM of windows against the
filter bank. At small per-window cost (every desk shape) that GEMM takes
every window. From ``RAGGED_MIN_WINDOW_COST`` up (every 400-dim shape) it
takes only the windows that touch a document's words, and every later
window, all pad, gets the value ``relu(b)`` without a product. The backward
is a GEMM over only the windows some filter selected. Both are
deterministic run to run and keep the input dtype (float32 in training,
float64 in the gradient checker).

``benchmarks/bench_kernels.py`` times them on desk and paper shapes.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only backend; benchmark results report it

# Per-window GEMM cost h*dim*f from which the forward computes only the
# windows that touch a document's words. Below it the extra gather, scatter
# and pooling cost more than the products they save: on a 2-core VM,
# benchmarks/bench_kernels.py times the two paths equal between 2,048 and
# 8,192, by document lengths (batches of 50). Desk shapes cost at most 640,
# and 400-dim shapes at least 40,000.
RAGGED_MIN_WINDOW_COST = 2 ** 14
# OpenBLAS computes a one-row product as a GEMV, and a product of at most
# this many multiply-adds with its small-matrix kernel. Their last bits
# differ from those of the GEMM a whole batch takes, so a ragged product
# that small runs the full path instead.
SMALL_GEMM_MAX = 100 ** 3


def conv_pool_forward(docs: np.ndarray, W: np.ndarray, b: np.ndarray):
    """ReLU-activated valid 1-D convolution followed by max-over-time.

    docs: (B, L, dim), W: (h, dim, f), b: (f,).
    Returns (pooled (B, f), argmax (B, f) int64). Ties in the max go to the
    lowest window position. The ragged path gives the full path's bits
    wherever BLAS computes a GEMM row's value independently of the other
    rows in the product, as OpenBLAS does at 400-dim float32 shapes. At
    some float64 shapes on two BLAS threads the last bits differ.
    """
    B, L, dim = docs.shape
    h, _, f = W.shape
    P = L - h + 1
    wins = np.lib.stride_tricks.sliding_window_view(docs, (h, dim), axis=(1, 2))
    W2 = W.reshape(h * dim, f)
    live = None
    if h * dim * f >= RAGGED_MIN_WINDOW_COST:
        # Window p is live when a nonzero row sits at or after p; every
        # window after a document's last word is all pad.
        real = docs.any(axis=2)
        live = np.logical_or.accumulate(real[:, ::-1], axis=1)[:, ::-1][:, :P]
        n_live = np.count_nonzero(live)
        if n_live < 2 or n_live * h * dim * f <= SMALL_GEMM_MAX:
            live = None  # another BLAS kernel, whose last bits differ
    if live is None:
        z = wins.reshape(B * P, h * dim) @ W2
        z += b
        act = np.maximum(z, 0, out=z).reshape(B, P, f)
        argmax = act.argmax(axis=1)
    else:
        z = wins[live].reshape(-1, h * dim) @ W2
        z += b
        act = np.empty((B, P, f), dtype=z.dtype)
        # an all-pad window's value: relu(b), or NaN where W holds inf or NaN
        act[...] = np.maximum(np.zeros(h * dim, dtype=z.dtype) @ W2 + b, 0)
        act[live] = np.maximum(z, 0, out=z)
        argmax = _first_max(act)
    pooled = np.take_along_axis(act, argmax[:, None, :], axis=1)[:, 0, :]
    return pooled, argmax


def _first_max(act: np.ndarray) -> np.ndarray:
    """``act.argmax(axis=1)`` of a (B, P, f) array, in two reductions along
    the contiguous f axis instead of one strided pass per (B, f) column."""
    top = act.max(axis=1)
    if np.isnan(top).any():  # argmax takes the first NaN, which equals nothing
        return act.argmax(axis=1)
    P = act.shape[1]
    # P for the first position down to 1 for the last: the largest rank among
    # the positions equal to the max is the first of them
    rank = np.arange(P, 0, -1, dtype=np.min_scalar_type(P))
    key = np.multiply(act == top[:, None, :], rank[:, None], dtype=rank.dtype)
    return np.subtract(P, key.max(axis=1), dtype=np.intp)


def conv_pool_backward(docs, argmax, pooled, d_pooled, h: int):
    """Gradients of the pooled outputs w.r.t. W and b.

    Gradient flows only through each filter's argmax window, and only where
    the pooled value is positive (the ReLU gate at the selected position).
    Only the U distinct (document, position) windows that carry gradient
    are gathered; dW is their rows' transpose times the (U, f) gradient
    those windows receive.
    """
    B, L, dim = docs.shape
    f = argmax.shape[1]
    gate = np.where(pooled > 0, d_pooled, 0).astype(docs.dtype, copy=False)
    n_idx, j_idx = np.nonzero(gate)
    windows, row = np.unique(n_idx * L + argmax[n_idx, j_idx], return_inverse=True)
    # A window lies in one document, so each (window, filter) cell receives
    # at most one gradient and plain assignment scatters without collisions.
    G = np.zeros((len(windows), f), dtype=docs.dtype)
    G[row, j_idx] = gate[n_idx, j_idx]
    n_sel, p_sel = np.divmod(windows, L)
    # One (dim, U) @ (U, f) product per window offset: the same sums as a
    # single (h*dim, U) product, without holding all h*dim window columns.
    dW = np.empty((h, dim, f), dtype=docs.dtype)
    for r in range(h):
        np.matmul(docs[n_sel, p_sel + r].T, G, out=dW[r])
    return dW, gate.sum(axis=0)
