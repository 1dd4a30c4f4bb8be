#!/usr/bin/env python3
"""Benchmark the conv + max-over-time kernels.

Runs the forward and backward kernels on desk-scale (16-dim) and paper
(400-dim) shapes, and on shapes around ``kernels.RAGGED_MIN_WINDOW_COST``.
Documents have drawn lengths, as in a real batch: synth-like (6-12 words)
or tweet-like (around 18, clipped to 3-47), zero-padded to 47 rows. Their
words come from synth's 33 words, a Zipf draw from 30,000 words
(tweet-like), 1,500 words drawn uniformly (near the crossover between the
projection and the ragged GEMM), or a fresh row for every word
("distinct").
Each batch first goes through ``model.trim_pad_windows``, as in training.

For each case it prints the batch's distinct rows V (pad included) against
its live windows (those that touch a word) and their share of all windows,
the path the forward takes there, the forward time of each of the three
paths forced (every window, the ragged GEMM over the live windows, and the
projection of the distinct rows), the U windows some filter selected, the
path the backward takes there, and the backward time of each of its two
paths forced (the GEMM over the selected windows, and the one over the
distinct rows).

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--iters 20]
"""

import argparse
import time

import numpy as np

from scnn import kernels
from scnn.model import trim_pad_windows
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
    return trim_pad_windows(docs, h), W, b, d_pooled


def time_fn(fn, iters):
    fn()  # warm caches and BLAS buffers
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - start) / iters


FORCED = {  # the kernels' settings that force each path at any shape
    "full": {"RAGGED_MIN_WINDOW_COST": float("inf")},
    "ragged": {"RAGGED_MIN_WINDOW_COST": 0, "SMALL_GEMM_MAX": 0,
               "PROJECTION_MIN_WINDOWS_PER_ROW": float("inf")},
    "projection": {"RAGGED_MIN_WINDOW_COST": 0, "SMALL_GEMM_MAX": 0,
                   "PROJECTION_MIN_WINDOWS_PER_ROW": 0},
    "window": {"BACKWARD_MIN_WINDOWS_PER_ROW": float("inf")},
    "distinct": {"RAGGED_MIN_WINDOW_COST": 0, "BACKWARD_MIN_WINDOWS_PER_ROW": 0},
}


def forced(path, kernel, *args):
    """``kernel`` forced onto one path at any shape. Forward: "full" computes
    every window, "ragged" GEMMs each document's windows up to its last word,
    and "projection" sums those windows from the projected distinct rows.
    Backward: "window" GEMMs the selected windows, and "distinct" the
    distinct rows."""
    saved = {name: getattr(kernels, name) for name in FORCED[path]}
    for name, value in FORCED[path].items():
        setattr(kernels, name, value)
    try:
        return kernel(*args)
    finally:
        for name, value in saved.items():
            setattr(kernels, name, value)


def chosen_path(docs, W, n_distinct, n_live):
    h, dim, f = W.shape
    if h * dim * f < kernels.RAGGED_MIN_WINDOW_COST:
        return "full"
    if n_live >= kernels.PROJECTION_MIN_WINDOWS_PER_ROW * n_distinct:
        return "projection"
    return "ragged"


def chosen_backward(W, n_distinct, n_selected):
    h, dim, f = W.shape
    if (h * dim * f >= kernels.RAGGED_MIN_WINDOW_COST
            and n_selected >= kernels.BACKWARD_MIN_WINDOWS_PER_ROW * n_distinct):
        return "distinct"
    return "window"


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
           for path in ("full", "ragged", "projection")}
    bwd = {path: time_fn(lambda: forced(path, kernels.conv_pool_backward, docs, argmax, pooled,
                                        d_pooled, h), iters)
           for path in ("window", "distinct")}
    print(f"{name:9s} {lengths:5s} {vocab:8s} B={B:3d} L={docs.shape[1]:2d} dim={dim:3d}"
          f" h={h} f={f:3d}  h*dim*f={h * dim * f:7d}  V={n_distinct:5d}"
          f" live={n_live:5d} (computed {live.mean():5.1%},"
          f" {chosen_path(docs, W, n_distinct, n_live):10s})"
          f"  forward full {fwd['full'] * 1e3:7.3f} ms"
          f"  ragged {fwd['ragged'] * 1e3:7.3f} ms"
          f"  projection {fwd['projection'] * 1e3:7.3f} ms"
          f"  U={n_selected:5d} ({chosen_backward(W, n_distinct, n_selected):8s})"
          f"  backward window {bwd['window'] * 1e3:7.3f} ms"
          f"  distinct rows {bwd['distinct'] * 1e3:7.3f} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=20)
    args = parser.parse_args()
    for case in CASES:
        bench_case(*case, iters=args.iters)


if __name__ == "__main__":
    main()
