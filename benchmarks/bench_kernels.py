#!/usr/bin/env python3
"""Benchmark the conv + max-over-time kernels.

Runs the forward and backward kernels on desk-scale (16-dim) and paper
(400-dim) shapes, and on shapes around ``kernels.RAGGED_MIN_WINDOW_COST``.
Documents have drawn lengths, as in a real batch: synth-like (6-12 words)
or tweet-like (around 18, clipped to 3-47), zero-padded to 47 rows. Each
batch first goes through ``model.trim_pad_windows``, as in training. For
each case it prints the share of windows the ragged forward computes, the
forward time of both paths (every window, and only the windows that touch
a word), and the backward time.

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--iters 20]
"""

import argparse
import time

from scnn import kernels
from scnn.model import trim_pad_windows
from scnn.rng import Rng

L = 47
CASES = [
    # name,         lengths,  B, dim, h, f
    ("desk",        "synth", 50, 16, 2, 8),
    ("desk",        "synth", 50, 16, 5, 8),
    ("crossover",   "tweet", 50, 16, 4, 32),
    ("crossover",   "tweet", 50, 16, 4, 64),
    ("crossover",   "tweet", 50, 32, 4, 64),
    ("crossover",   "tweet", 50, 64, 4, 64),
    ("paper",       "synth", 50, 400, 3, 100),
    ("paper",       "tweet", 50, 400, 3, 100),
    ("paper",       "tweet", 50, 400, 5, 400),
    ("paper",       "tweet", 50, 400, 7, 400),
]


def doc_lengths(kind, B, rng):
    """Words per document: synth's 6-12, or a tweet's ~18 clipped to 3-47."""
    if kind == "synth":
        return rng.integers(6, 13, B)
    return rng.gen.normal(18, 8, B).round().clip(3, L).astype(int)


def make_case(lengths, B, dim, h, f):
    rng = Rng(0)
    docs = rng.uniform(-1, 1, (B, L, dim)).astype("float32")
    for n, length in enumerate(doc_lengths(lengths, B, rng)):
        docs[n, length:] = 0.0
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


def forward_on(path, docs, W, b):
    """The forward forced onto one path at any shape: "full" computes every
    window, "ragged" only each document's windows up to its last word."""
    saved = kernels.RAGGED_MIN_WINDOW_COST, kernels.SMALL_GEMM_MAX
    if path == "full":
        kernels.RAGGED_MIN_WINDOW_COST = float("inf")
    else:
        kernels.RAGGED_MIN_WINDOW_COST = kernels.SMALL_GEMM_MAX = 0
    try:
        return kernels.conv_pool_forward(docs, W, b)
    finally:
        kernels.RAGGED_MIN_WINDOW_COST, kernels.SMALL_GEMM_MAX = saved


def bench_case(name, lengths, B, dim, h, f, iters):
    docs, W, b, d_pooled = make_case(lengths, B, dim, h, f)
    P = docs.shape[1] - h + 1
    live = docs.any(axis=2)[:, ::-1].cumsum(axis=1)[:, ::-1][:, :P] > 0
    pooled, argmax = kernels.conv_pool_forward(docs, W, b)
    full = time_fn(lambda: forward_on("full", docs, W, b), iters)
    ragged = time_fn(lambda: forward_on("ragged", docs, W, b), iters)
    bwd = time_fn(lambda: kernels.conv_pool_backward(docs, argmax, pooled, d_pooled, h), iters)
    path = "ragged" if h * dim * f >= kernels.RAGGED_MIN_WINDOW_COST else "full"
    print(f"{name:9s} {lengths:5s} B={B} L={docs.shape[1]:2d} dim={dim:3d} h={h} f={f:3d}"
          f"  h*dim*f={h * dim * f:7d} ({path:6s})  computed {live.mean():5.1%}"
          f"  forward full {full * 1e3:7.3f} ms  ragged {ragged * 1e3:7.3f} ms"
          f"  backward {bwd * 1e3:7.3f} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=20)
    args = parser.parse_args()
    for case in CASES:
        bench_case(*case, iters=args.iters)


if __name__ == "__main__":
    main()
