#!/usr/bin/env python3
"""Benchmark the conv + max-over-time kernels.

Runs the forward and backward kernels on production-sized shapes (400-dim
embeddings, 47-token documents) and on the desk-scale synthetic shapes, and
reports per-call times on the full padded batch and on the batch after
``model.trim_pad_windows`` drops its trailing all-pad windows.

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--iters 20]
"""

import argparse
import time

from scnn import kernels
from scnn.model import trim_pad_windows
from scnn.rng import Rng

CASES = [
    # name,              B,   L,  dim, h, f
    ("desk  h=2 f=8", 50, 47, 16, 2, 8),
    ("full  h=3 f=100", 50, 47, 400, 3, 100),
    ("full  h=5 f=400", 50, 47, 400, 5, 400),
]
REAL_ROWS = 27  # the last 20 of 47 rows are pad


def make_case(B, L, dim, h, f):
    rng = Rng(0)
    docs = rng.uniform(-1, 1, (B, L, dim)).astype("float32")
    docs[:, REAL_ROWS:, :] = 0.0
    W = rng.uniform(-0.3, 0.3, (h, dim, f)).astype("float32")
    b = rng.uniform(-0.1, 0.1, f).astype("float32")
    d_pooled = rng.uniform(-1, 1, (B, f)).astype("float32")
    return docs, W, b, d_pooled


def time_fn(fn, iters):
    fn()  # warm caches and BLAS buffers
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - start) / iters


def bench_case(name, B, L, dim, h, f, iters):
    docs, W, b, d_pooled = make_case(B, L, dim, h, f)
    print(name)
    for label, batch in (("full", docs), ("trimmed", trim_pad_windows(docs, h))):
        pooled, argmax = kernels.conv_pool_forward(batch, W, b)
        fwd = time_fn(lambda: kernels.conv_pool_forward(batch, W, b), iters)
        bwd = time_fn(
            lambda: kernels.conv_pool_backward(batch, argmax, pooled, d_pooled, h), iters
        )
        print(f"  {label:7s} L={batch.shape[1]:2d}  forward {fwd * 1e3:8.3f} ms"
              f"   backward {bwd * 1e3:8.3f} ms")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=20)
    args = parser.parse_args()
    for case in CASES:
        bench_case(*case, iters=args.iters)


if __name__ == "__main__":
    main()
