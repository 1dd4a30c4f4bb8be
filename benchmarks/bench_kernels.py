#!/usr/bin/env python3
"""Benchmark the conv + max-over-time kernels.

Runs the forward and backward kernels on desk-scale (16-dim) and paper
(400-dim) shapes, and on shapes around ``kernels.DISTINCT_ROWS_MIN_COST``.
Documents have drawn lengths, as in a real batch: synth-like (6-12 words)
or tweet-like (around 18, clipped to 3-47), zero-padded to 47 rows. Their
words come from synth's 33 words, a Zipf draw from 30,000 words
(tweet-like), 1,500 words drawn uniformly, or a fresh row for every word
("distinct"). Each batch is cut after its longest document plus h rows, as
``Documents.gather`` cuts a training batch.

For each case it prints the batch's distinct rows V (pad included) against
its live windows (those that touch a word) and their share of all windows,
the path the forward takes there, the forward time of each of its two
paths forced (every window, and the projection of the distinct rows), the
U windows some filter selected, the path the backward takes there, and the
backward time of each of its two paths forced (the GEMM over the selected
windows, and the one over the distinct rows).

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--iters 20]
"""

import argparse
import time

import numpy as np

from scnn import kernels
from scnn.rng import Rng

L = 47
VOCAB = {"synth": 33, "1.5k": 1_500, "zipf": 30_000}
CASES = [
    # name,        lengths, vocab,     B,  dim, h, f
    ("desk",      "synth", "synth",    50,  16, 2, 8),
    ("desk",      "synth", "synth",    50,  16, 5, 8),
    ("crossover", "tweet", "distinct", 50,  16, 4, 32),
    ("crossover", "tweet", "distinct", 50,  16, 4, 64),
    ("crossover", "tweet", "distinct", 50,  32, 4, 64),
    ("crossover", "tweet", "distinct", 50,  64, 4, 64),
    ("paper",     "synth", "synth",    50, 400, 3, 100),
    ("paper",     "synth", "synth",    50, 400, 7, 400),
    ("paper",     "synth", "synth",     3, 400, 5, 400),
    ("paper",     "synth", "distinct", 50, 400, 3, 100),
    ("paper",     "tweet", "zipf",     50, 400, 3, 100),
    ("paper",     "tweet", "zipf",     50, 400, 5, 400),
    ("paper",     "tweet", "zipf",     50, 400, 7, 400),
    ("paper",     "tweet", "zipf",    512, 400, 5, 400),
    ("paper",     "tweet", "1.5k",     50, 400, 3, 100),
    ("paper",     "tweet", "1.5k",     50, 400, 5, 400),
    ("paper",     "tweet", "1.5k",     50, 400, 7, 400),
    ("paper",     "tweet", "distinct", 50, 400, 3, 100),
    ("paper",     "tweet", "distinct", 50, 400, 5, 400),
    ("paper",     "tweet", "distinct", 50, 400, 7, 400),
]


def doc_lengths(kind, B, rng):
    """Words per document: synth's 6-12, or a tweet's ~18 clipped to 3-47."""
    if kind == "synth":
        return rng.integers(6, 13, B)
    return rng.gen.normal(18, 8, B).round().clip(3, L).astype(int)


def word_rows(vocab, n_words, dim, rng):
    """(n_words, dim) rows: words drawn from ``vocab``, each word one fixed
    random row, or with "distinct" a fresh row for every word."""
    if vocab == "distinct":
        return rng.uniform(-1, 1, (n_words, dim))
    size = VOCAB[vocab]
    if vocab == "zipf":  # the word of rank r with probability ~ 1/r
        p = 1.0 / np.arange(1, size + 1)
        words = rng.gen.choice(size, n_words, p=p / p.sum())
    else:
        words = rng.integers(0, size, n_words)
    used, inverse = np.unique(words, return_inverse=True)
    return rng.uniform(-1, 1, (len(used), dim))[inverse]


def make_case(lengths, vocab, B, dim, h, f):
    rng = Rng(0)
    docs = np.zeros((B, L, dim), dtype="float32")
    lens = doc_lengths(lengths, B, rng)
    rows = word_rows(vocab, int(lens.sum()), dim, rng)
    for n, start in enumerate(np.cumsum(lens) - lens):
        docs[n, :lens[n]] = rows[start:start + lens[n]]
    W = rng.uniform(-0.3, 0.3, (h, dim, f)).astype("float32")
    b = rng.uniform(-0.1, 0.1, f).astype("float32")
    d_pooled = rng.uniform(-1, 1, (B, f)).astype("float32")
    return docs[:, :min(L, lens.max() + h)], W, b, d_pooled


def time_fn(fn, iters):
    fn()  # warm caches and BLAS buffers
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - start) / iters


# the cost gate that forces each path at any shape: below it both kernels
# take their window GEMMs, past it their distinct rows
FORCED = {"full": float("inf"), "window": float("inf"), "projection": 0, "distinct": 0}


def forced(path, kernel, *args):
    """``kernel`` forced onto one path at any shape. Forward: "full" computes
    every window, and "projection" sums each document's windows up to its
    last word from the projected distinct rows. Backward: "window" GEMMs the
    selected windows, and "distinct" the distinct rows."""
    saved = kernels.DISTINCT_ROWS_MIN_COST
    kernels.DISTINCT_ROWS_MIN_COST = FORCED[path]
    try:
        return kernel(*args)
    finally:
        kernels.DISTINCT_ROWS_MIN_COST = saved


def chosen_paths(W):
    """The forward's and the backward's path for filter bank ``W``, where
    the batch's distinct rows are found."""
    h, dim, f = W.shape
    if h * dim * f < kernels.DISTINCT_ROWS_MIN_COST:
        return "full", "window"
    return "projection", "distinct"


def bench_case(name, lengths, vocab, B, dim, h, f, iters):
    docs, W, b, d_pooled = make_case(lengths, vocab, B, dim, h, f)
    P = docs.shape[1] - h + 1
    live = docs.any(axis=2)[:, ::-1].cumsum(axis=1)[:, ::-1][:, :P] > 0
    n_live = int(live.sum())
    n_distinct = len({row.tobytes() for row in docs.reshape(-1, dim)})
    pooled, argmax = kernels.conv_pool_forward(docs, W, b)
    gated = (pooled > 0) & (d_pooled != 0)
    n_selected = len(np.unique(np.nonzero(gated)[0] * docs.shape[1] + argmax[gated]))
    fwd = {path: time_fn(lambda: forced(path, kernels.conv_pool_forward, docs, W, b), iters)
           for path in ("full", "projection")}
    bwd = {path: time_fn(lambda: forced(path, kernels.conv_pool_backward, docs, argmax, pooled,
                                        d_pooled, h), iters)
           for path in ("window", "distinct")}
    forward, backward = chosen_paths(W)
    print(f"{name:9s} {lengths:5s} {vocab:8s} B={B:3d} L={docs.shape[1]:2d} dim={dim:3d}"
          f" h={h} f={f:3d}  h*dim*f={h * dim * f:7d}  V={n_distinct:5d}"
          f" live={n_live:5d} (computed {live.mean():5.1%}, {forward:10s})"
          f"  forward full {fwd['full'] * 1e3:7.3f} ms"
          f"  projection {fwd['projection'] * 1e3:7.3f} ms"
          f"  U={n_selected:5d} ({backward:8s})"
          f"  backward window {bwd['window'] * 1e3:7.3f} ms"
          f"  distinct rows {bwd['distinct'] * 1e3:7.3f} ms")


POOLING_CASES = [
    # name,    lengths, vocab,     B,  dim, h, f
    ("desk",  "synth", "synth",  512,  16, 2, 4),
    ("desk",  "synth", "synth",  512,  16, 2, 8),
    ("paper", "tweet", "zipf",    50, 400, 5, 400),
    ("paper", "tweet", "zipf",   100, 400, 5, 400),
]


def pool_batch_major(act, path):
    """The pooling each forward path ran before window-major pooling, over
    axis 1 of a (B, P, f) array: the full path's argmax and gather, and the
    projection's rank reduction."""
    if path == "full":
        argmax = act.argmax(axis=1)
        return np.take_along_axis(act, argmax[:, None, :], axis=1)[:, 0, :], argmax
    top = act.max(axis=1)
    P = act.shape[1]
    rank = np.arange(P, 0, -1, dtype=np.min_scalar_type(P))
    key = np.multiply(act == top[:, None, :], rank[:, None], dtype=rank.dtype)
    return top, np.subtract(P, key.max(axis=1), dtype=np.intp)


def bench_pooling(name, lengths, vocab, B, dim, h, f, iters):
    """Max-over-time pooling alone, on a case's ReLU'd window values laid out
    batch-major (B, P, f) as before and window-major (P, B, f) as now."""
    docs, W, b, _ = make_case(lengths, vocab, B, dim, h, f)
    P = docs.shape[1] - h + 1
    wins = np.lib.stride_tricks.sliding_window_view(docs, (h, dim), axis=(1, 2))
    act = np.maximum(wins.transpose(1, 0, 2, 3, 4).reshape(P * B, h * dim)
                     @ W.reshape(h * dim, f) + b, 0).reshape(P, B, f)
    old_layout = np.ascontiguousarray(act.transpose(1, 0, 2))
    path = chosen_paths(W)[0]
    old, new = pool_batch_major(old_layout, path), kernels._first_max(act)
    assert all(np.array_equal(o, n) for o, n in zip(old, new))
    t_old = time_fn(lambda: pool_batch_major(old_layout, path), iters)
    t_new = time_fn(lambda: kernels._first_max(act), iters)
    print(f"pooling {name:5s} {lengths:5s} {vocab:5s} B={B:3d} P={P:2d} f={f:3d} ({path:10s})"
          f"  old (B, P, f) {t_old * 1e3:7.3f} ms  new (P, B, f) {t_new * 1e3:7.3f} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=20)
    args = parser.parse_args()
    for case in CASES:
        bench_case(*case, iters=args.iters)
    for case in POOLING_CASES:
        bench_pooling(*case, iters=args.iters)


if __name__ == "__main__":
    main()
