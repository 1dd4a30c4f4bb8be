"""Convolution + max-over-time pooling kernels, the hot inner loops.

Both kernels are plain numpy over BLAS, in the im2col formulation of
Chellapilla et al. (2006), *High Performance Convolutional Neural Networks
for Document Processing*: the forward is one GEMM of every window against
the filter bank, and the backward is a GEMM over only the windows some
filter selected. Both are deterministic run to run and keep the input dtype
(float32 in training, float64 in the gradient checker).

``benchmarks/bench_kernels.py`` times them on desk and paper shapes.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only backend; benchmark results report it


def conv_pool_forward(docs: np.ndarray, W: np.ndarray, b: np.ndarray):
    """ReLU-activated valid 1-D convolution followed by max-over-time.

    docs: (B, L, dim), W: (h, dim, f), b: (f,).
    Returns (pooled (B, f), argmax (B, f) int64). Ties in the max go to the
    lowest window position.
    """
    B, L, dim = docs.shape
    h, _, f = W.shape
    P = L - h + 1
    wins = np.lib.stride_tricks.sliding_window_view(docs, (h, dim), axis=(1, 2))
    z = wins.reshape(B * P, h * dim) @ W.reshape(h * dim, f)
    z += b
    act = np.maximum(z, 0, out=z).reshape(B, P, f)
    argmax = act.argmax(axis=1)
    pooled = np.take_along_axis(act, argmax[:, None, :], axis=1)[:, 0, :]
    return pooled, argmax


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
