"""Convolution + max-over-time pooling kernels, the hot inner loops.

Both kernels are plain numpy over BLAS. From ``DISTINCT_ROWS_MIN_COST`` up
(every 400-dim shape) both go through the batch's distinct rows whenever
``_distinct_rows`` finds them. Below it (every desk shape), or where the
rows cannot be used (two unequal rows share a key, or a row holds NaN or
inf), both take their window GEMM.

The forward has two paths:

- **full**: one GEMM of every window against the filter bank, in the
  im2col formulation of Chellapilla et al. (2006), *High Performance
  Convolutional Neural Networks for Document Processing*.
- **projection**: a width-h conv is linear in its window, so each distinct
  row of the batch goes through each offset's filters once, and a window
  sums h of those projected rows. Every window after a document's last
  word, all pad, gets ``relu(b)`` from the pad row's projections.

Both lay out the window values window-major, as a (P, B, f) array, and
pool it with one ``_first_max`` over axis 0.

The backward has two paths:

- **window**: a GEMM over only the windows some filter selected.
- **distinct rows**: the transpose of the projection. Each distinct row's
  gradient at each offset is summed first, and a GEMM then runs over the
  distinct rows.

Both kernels are deterministic run to run and keep the input dtype
(float32 in training, float64 in the gradient checker).

``benchmarks/bench_kernels.py`` times them on desk and paper shapes.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only backend; benchmark results report it

# Per-window GEMM cost h*dim*f from which both kernels go through the
# batch's distinct rows: the forward sums each window from the projected
# rows instead of running the full GEMM. Below it, finding the distinct rows
# costs more than the products it saves: on a 2-core VM, in
# benchmarks/bench_kernels.py's batches of 50, the projection takes ~3x the
# full GEMM's time at desk shapes and is level with it at 2^14 on
# all-distinct rows. Desk shapes cost at most 640 and 400-dim shapes at
# least 40,000, so any value between picks the same paths.
DISTINCT_ROWS_MIN_COST = 2 ** 14


def conv_pool_forward(docs: np.ndarray, W: np.ndarray, b: np.ndarray):
    """ReLU-activated valid 1-D convolution followed by max-over-time.

    docs: (B, L, dim), W: (h, dim, f), b: (f,).
    Returns (pooled (B, f), argmax (B, f) int64). Ties in the max go to the
    lowest window position. The projection sums each window in another
    order than the full GEMM, so their last bits differ.
    """
    B, L, dim = docs.shape
    h, _, f = W.shape
    P = L - h + 1
    rows = _distinct_rows(docs) if h * dim * f >= DISTINCT_ROWS_MIN_COST else None
    if rows is None:
        wins = np.lib.stride_tricks.sliding_window_view(docs, (h, dim), axis=(1, 2))
        z = wins.transpose(1, 0, 2, 3, 4).reshape(P * B, h * dim) @ W.reshape(h * dim, f)
        z += b
        return _first_max(np.maximum(z, 0, out=z).reshape(P, B, f))
    distinct, ids = rows
    projected = np.matmul(distinct, W)  # (h, V, f)
    # (P, B): window p of document n is live when a nonzero row sits at or
    # after p; every later window is all pad
    nonzero = distinct.any(axis=1)
    live = np.logical_or.accumulate(nonzero[ids][:, ::-1], axis=1)[:, ::-1][:, :P].T
    # window (p, n) sums row ids[n, p + r] of the projection through offset
    # r, for r = 0 .. h - 1
    p_idx, n_idx = np.nonzero(live)
    flat, start = ids.ravel(), n_idx * L + p_idx
    z = projected[0].take(flat[start], axis=0)
    for r in range(1, h):
        z += projected[r].take(flat[start + r], axis=0)
    z += b
    act = np.empty((P, B, f), dtype=z.dtype)
    if not nonzero.all():  # the pad row's projections: relu(b), or NaN where W holds inf or NaN
        act[...] = np.maximum(projected[:, nonzero.argmin()].sum(axis=0) + b, 0)
    act[live] = np.maximum(z, 0, out=z)
    return _first_max(act)


def _row_keys(docs: np.ndarray) -> np.ndarray:
    """(B, L) keys, one per row: the dot product of its first 32 entries with
    fixed weights in [1, 2). A row of zeros has key 0. Unequal rows rarely
    share a key, unless they differ only after their first 32 entries; the
    row check then sends their batch to the window GEMM. Reading one or two
    cache lines of a row makes the key ~5x cheaper than reading all of it."""
    head = docs[..., :32]
    return head @ (1 + np.arange(head.shape[2]) * 0.6180339887498949 % 1).astype(docs.dtype)


def _distinct_rows(docs: np.ndarray):
    """(distinct (V, dim), ids (B, L)) such that docs[n, i] equals
    distinct[ids[n, i]], found from the row keys; or None where two unequal
    rows share a key or a row holds NaN or inf (an embeddings file may hold
    them)."""
    keys = _row_keys(docs)
    _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
    ids = ids.reshape(keys.shape)
    distinct = docs[np.divmod(first, keys.shape[1])]
    if np.isfinite(distinct).all() and _rows_equal(docs, distinct, ids):
        return distinct, ids
    return None


def _rows_equal(docs: np.ndarray, distinct: np.ndarray, ids: np.ndarray) -> bool:
    """Whether every row docs[n, i] equals distinct[ids[n, i]], compared
    eight documents at a time so that each block stays in cache."""
    return all(np.array_equal(distinct[ids[s:s + 8]], docs[s:s + 8])
               for s in range(0, len(docs), 8))


def _first_max(act: np.ndarray) -> tuple:
    """(max, argmax) over axis 0 of a window-major (P, B, f) array, the
    argmax as ``act.argmax(axis=0)`` gives it: the first position of the
    max, or of the first NaN. Both reductions run elementwise over whole
    (B, f) planes. The max is the value at its first position, so it is
    returned as it is."""
    top = act.max(axis=0)
    hit = act == top
    if np.isnan(top).any():  # argmax takes the first NaN, which equals nothing
        hit |= np.isnan(act)
    P = len(act)
    # P for the first position down to 1 for the last: the largest rank among
    # the positions that hit is the first of them
    rank = np.arange(P, 0, -1, dtype=np.min_scalar_type(P))
    key = np.multiply(hit, rank[:, None, None], dtype=rank.dtype)
    del hit  # kept through the reduction, it raised a paper-shape search's peak RSS 0.7 MB
    return top, np.subtract(P, key.max(axis=0), dtype=np.intp)


def conv_pool_backward(docs, argmax, pooled, d_pooled, h: int):
    """Gradients of the pooled outputs w.r.t. W and b.

    Gradient flows only through each filter's argmax window, and only where
    the pooled value is positive (the ReLU gate at the selected position).
    Only the U distinct (document, position) windows that carry gradient
    are gathered; dW is their rows' transpose times the (U, f) gradient
    those windows receive. From ``DISTINCT_ROWS_MIN_COST`` up, a batch whose
    V distinct rows are found goes through them instead: offset r of a
    window holds one of them, so dW[r] is their transpose times the (V, f)
    gradient each receives at offset r. Those sums run in the input dtype
    in (document, filter) order, so the last bits differ from the window
    GEMM's.
    """
    B, L, dim = docs.shape
    f = argmax.shape[1]
    gate = np.where(pooled > 0, d_pooled, 0).astype(docs.dtype, copy=False)
    pairs = np.flatnonzero(gate)  # the gated (document, filter) pairs, as np.nonzero orders them
    n_idx, j_idx = np.divmod(pairs, f)
    g = gate.ravel().take(pairs)
    start = n_idx * L + argmax.ravel().take(pairs)  # a gated pair's window, by its first row
    dW = np.empty((h, dim, f), dtype=docs.dtype)
    rows = _distinct_rows(docs) if h * dim * f >= DISTINCT_ROWS_MIN_COST else None
    if rows is not None:
        distinct, ids = rows
        flat = ids.ravel()
        for r in range(h):
            # (V, f): cell (v, j) sums the gradient of every pair of filter j
            # whose window holds distinct row v at offset r
            S = np.zeros((len(distinct), f), dtype=docs.dtype)
            np.add.at(S.ravel(), flat[start + r] * f + j_idx, g)
            np.matmul(distinct.T, S, out=dW[r])
        return dW, gate.sum(axis=0)
    selected = np.zeros(B * L, dtype=bool)
    selected[start] = True
    windows = np.flatnonzero(selected)
    # A window lies in one document, so each (window, filter) cell receives
    # at most one gradient and plain assignment scatters without collisions.
    G = np.zeros((len(windows), f), dtype=docs.dtype)
    G[np.cumsum(selected)[start] - 1, j_idx] = g
    n_sel, p_sel = np.divmod(windows, L)
    # One (dim, U) @ (U, f) product per window offset: the same sums as a
    # single (h*dim, U) product, without holding all h*dim window columns.
    for r in range(h):
        np.matmul(docs[n_sel, p_sel + r].T, G, out=dW[r])
    return dW, gate.sum(axis=0)
