"""Kernel tests against brute-force loop references for the forward and
the backward."""

import contextlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnn import kernels, synth
from scnn.cli import _build_parser
from scnn.model import DEFAULT_SEARCH_DOMAINS
from scnn.rng import Rng


def conv_pool_bruteforce(doc, W, b):
    """Position-by-position reference implementation (float64)."""
    L, dim = doc.shape
    h, _, f = W.shape
    P = L - h + 1
    act = np.zeros((P, f), dtype=np.float64)
    for p in range(P):
        for j in range(f):
            s = float(b[j])
            for r in range(h):
                for c in range(dim):
                    s += float(doc[p + r, c]) * float(W[r, c, j])
            act[p, j] = max(s, 0.0)
    argmax = act.argmax(axis=0)
    return act[argmax, np.arange(f)], argmax


def conv_pool_backward_bruteforce(docs, argmax, pooled, d_pooled, h):
    """Loop-by-loop reference backward (float64): each (doc, filter) pair
    with a positive pooled value adds its gradient times its argmax window."""
    B, L, dim = docs.shape
    f = argmax.shape[1]
    dW = np.zeros((h, dim, f), dtype=np.float64)
    db = np.zeros(f, dtype=np.float64)
    for n in range(B):
        for j in range(f):
            if pooled[n, j] > 0:
                g = float(d_pooled[n, j])
                for r in range(h):
                    for c in range(dim):
                        dW[r, c, j] += g * float(docs[n, argmax[n, j] + r, c])
                db[j] += g
    return dW, db


def _random_case(seed, B=3, L=9, dim=4, h=2, f=5, dtype=np.float32, pad_rows=2):
    rng = Rng(seed)
    docs = rng.uniform(-1, 1, (B, L, dim)).astype(dtype)
    if pad_rows:
        docs[:, L - pad_rows:, :] = 0
    W = rng.uniform(-1, 1, (h, dim, f)).astype(dtype)
    b = rng.uniform(-0.5, 0.5, f).astype(dtype)
    return docs, W, b


# A single backend, still passed as a parameter so the test ids stay stable.
BACKENDS = [("numpy", kernels.conv_pool_forward, kernels.conv_pool_backward)]


@pytest.mark.parametrize("name,fwd,bwd", BACKENDS, ids=lambda v: v if isinstance(v, str) else "")
class TestForward:
    def test_spec_example_window_sums(self, name, fwd, bwd):
        doc = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
        W = np.ones((2, 2, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        pooled, argmax = fwd(doc[None], W, b)
        assert pooled[0, 0] == 3.0 and argmax[0, 0] == 1

    def test_zero_weights(self, name, fwd, bwd):
        docs, W, b = _random_case(0)
        pooled, _ = fwd(docs, np.zeros_like(W), np.zeros_like(b))
        assert np.abs(pooled).max() == 0

    def test_relu_clamps_negative(self, name, fwd, bwd):
        doc = np.array([[1.0], [1.0]], dtype=np.float32)
        W = np.full((1, 1, 1), -1.0, dtype=np.float32)
        pooled, argmax = fwd(doc[None], W, np.zeros(1, np.float32))
        assert pooled[0, 0] == 0.0 and argmax[0, 0] == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce(self, name, fwd, bwd, seed):
        docs, W, b = _random_case(seed, dtype=np.float64)
        pooled, argmax = fwd(docs, W, b)
        for n in range(len(docs)):
            exp_pool, exp_arg = conv_pool_bruteforce(docs[n], W, b)
            np.testing.assert_allclose(pooled[n], exp_pool, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(argmax[n], exp_arg)

    def test_tie_takes_first_position(self, name, fwd, bwd):
        # identical rows -> every window identical -> argmax 0
        doc = np.ones((6, 3), dtype=np.float32)
        W = np.ones((2, 3, 2), dtype=np.float32)
        _, argmax = fwd(doc[None], W, np.zeros(2, np.float32))
        assert (argmax == 0).all()

    def test_full_width_window(self, name, fwd, bwd):
        docs, W, b = _random_case(1, L=4, h=4, pad_rows=0)
        pooled, argmax = fwd(docs, W, b)
        assert (argmax == 0).all()
        assert pooled.shape == (3, 5)

    def test_ragged_path_matches_bruteforce(self, name, fwd, bwd):
        docs, W, b = _random_case(4, B=13, dim=64, h=4, f=64, dtype=np.float64, pad_rows=0)
        for n, length in enumerate([0, 2, 6]):  # an empty document and two short ones
            docs[n, length:] = 0
        assert takes_ragged_path(docs, W)
        pooled, argmax = fwd(docs, W, b)
        for n in range(len(docs)):
            exp_pool, exp_arg = conv_pool_bruteforce(docs[n], W, b)
            np.testing.assert_allclose(pooled[n], exp_pool, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(argmax[n], exp_arg)


@pytest.mark.parametrize("name,fwd,bwd", BACKENDS, ids=lambda v: v if isinstance(v, str) else "")
class TestBackward:
    def test_gradient_only_at_argmax(self, name, fwd, bwd):
        docs, W, b = _random_case(2, dtype=np.float64)
        pooled, argmax = fwd(docs, W, b)
        n, j = np.argwhere(pooled > 0)[0]  # an active (doc, filter) pair
        d_pooled = np.zeros_like(pooled)
        d_pooled[n, j] = 1.0
        dW, db = bwd(docs, argmax, pooled, d_pooled, W.shape[0])
        p = argmax[n, j]
        np.testing.assert_allclose(dW[:, :, j], docs[n, p:p + W.shape[0], :])
        others = [jj for jj in range(pooled.shape[1]) if jj != j]
        assert np.abs(dW[:, :, others]).max() == 0
        assert db[j] == 1.0 and np.abs(db[others]).max() == 0

    def test_relu_gate_blocks_zero_pooled(self, name, fwd, bwd):
        doc = np.ones((4, 2), dtype=np.float64)
        W = np.full((1, 2, 1), -1.0, dtype=np.float64)
        pooled, argmax = fwd(doc[None], W, np.zeros(1))
        assert pooled[0, 0] == 0.0
        dW, db = bwd(doc[None], argmax, pooled, np.ones_like(pooled), 1)
        assert np.abs(dW).max() == 0 and np.abs(db).max() == 0

    def test_accumulates_over_batch(self, name, fwd, bwd):
        docs, W, b = _random_case(3, B=4, dtype=np.float64)
        pooled, argmax = fwd(docs, W, b)
        d_pooled = Rng(9).uniform(-1, 1, pooled.shape)
        dW, db = bwd(docs, argmax, pooled, d_pooled, W.shape[0])
        dW_sum = np.zeros_like(dW)
        db_sum = np.zeros_like(db)
        for n in range(4):
            w1, b1 = bwd(docs[n:n + 1], argmax[n:n + 1], pooled[n:n + 1],
                         d_pooled[n:n + 1], W.shape[0])
            dW_sum += w1
            db_sum += b1
        np.testing.assert_allclose(dW, dW_sum, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(db, db_sum, rtol=1e-12, atol=1e-15)


@st.composite
def backward_cases(draw):
    """Random small kernels, plus the corner cases the backward must keep
    exact: all-zero docs, an empty ReLU gate, filters that all select the
    same window, and a filter as wide as the document."""
    kind = draw(st.sampled_from(["random", "zero_docs", "gate_empty", "shared_window"]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    B, L = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    dim, f = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    h = L if draw(st.booleans()) else draw(st.integers(1, L))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    docs = rng.uniform(-1, 1, (B, L, dim)).astype(dtype)
    docs[:, L - draw(st.integers(0, L)):] = 0  # pad tail
    W = rng.uniform(-1, 1, (h, dim, f)).astype(dtype)
    b = rng.uniform(-0.5, 0.5, f).astype(dtype)
    if kind == "zero_docs":
        docs[:] = 0
    elif kind == "gate_empty":
        b[:] = -2.0 * h * dim  # below any window sum of |x|, |w| <= 1
    elif kind == "shared_window":
        W[:], b[:] = W[:, :, :1], b[0]
    d_pooled = rng.uniform(-1, 1, (B, f)).astype(dtype)
    return kind, docs, W, b, d_pooled


@settings(max_examples=200, deadline=None, derandomize=True)
@given(backward_cases())
def test_backward_matches_bruteforce(case):
    kind, docs, W, b, d_pooled = case
    h = W.shape[0]
    pooled, argmax = kernels.conv_pool_forward(docs, W, b)
    dW, db = kernels.conv_pool_backward(docs, argmax, pooled, d_pooled, h)
    assert dW.shape == W.shape and db.shape == b.shape
    assert dW.dtype == docs.dtype and db.dtype == docs.dtype
    exp_dW, exp_db = conv_pool_backward_bruteforce(docs, argmax, pooled, d_pooled, h)
    tol = 1e-5 if docs.dtype == np.float32 else 1e-12
    np.testing.assert_allclose(dW, exp_dW, rtol=tol, atol=tol)
    np.testing.assert_allclose(db, exp_db, rtol=tol, atol=tol)
    if kind == "gate_empty":
        assert not pooled.any() and not dW.any() and not db.any()
    if kind == "zero_docs":
        assert not dW.any()
    if kind == "shared_window":
        assert (argmax == argmax[:, :1]).all()


def test_backend_selection_matches_env():
    assert kernels.BACKEND == "numpy"


def takes_ragged_path(docs, W):
    """Whether conv_pool_forward computes only the live windows: each
    document's windows up to its last word."""
    h, dim, f = W.shape
    P = docs.shape[1] - h + 1
    real = [np.flatnonzero(doc.any(axis=1)) for doc in docs]
    rows = sum(min(int(r[-1]) + 1, P) for r in real if len(r))
    return (h * dim * f >= kernels.RAGGED_MIN_WINDOW_COST and rows >= 2
            and rows * h * dim * f > kernels.SMALL_GEMM_MAX)


@contextlib.contextmanager
def ragged_threshold(value):
    """Run the forward with RAGGED_MIN_WINDOW_COST set to ``value``: 0 takes
    the ragged path at every shape, infinity the full one."""
    saved = kernels.RAGGED_MIN_WINDOW_COST
    kernels.RAGGED_MIN_WINDOW_COST = value
    try:
        yield
    finally:
        kernels.RAGGED_MIN_WINDOW_COST = saved


def both_paths(docs, W, b):
    with ragged_threshold(float("inf")):
        full = kernels.conv_pool_forward(docs, W, b)
    with ragged_threshold(0):
        ragged = kernels.conv_pool_forward(docs, W, b)
    return full, ragged


@st.composite
def ragged_cases(draw, dtypes=(np.float32,), dims=(400,), filters=(100, 200, 300, 400)):
    """A padded (B, 47, dim) batch with drawn document lengths 0-47, some
    interior all-zero rows (unknown tokens), and a filter bank."""
    L = 47
    dtype = draw(st.sampled_from(dtypes))
    dim, f = draw(st.sampled_from(dims)), draw(st.sampled_from(filters))
    h = draw(st.integers(1, 7))
    lengths = draw(st.lists(st.integers(0, L), min_size=1, max_size=6))
    kind = draw(st.sampled_from(["random", "empty_doc", "no_pad_window", "one_doc"]))
    if kind == "empty_doc":
        lengths[0] = 0
    elif kind == "no_pad_window":
        lengths[0] = L
    elif kind == "one_doc":
        lengths = lengths[:1]
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    docs = rng.uniform(-1, 1, (len(lengths), L, dim)).astype(dtype)
    for n, length in enumerate(lengths):
        docs[n, length:] = 0
        if length and draw(st.booleans()):
            docs[n, draw(st.integers(0, length - 1))] = 0  # an unknown token
    W = rng.uniform(-0.3, 0.3, (h, dim, f)).astype(dtype)
    b = rng.uniform(-0.1, 0.1, f).astype(dtype)
    return docs, W, b


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ragged_cases())
def test_ragged_path_matches_full_bits(case):
    """At 400-dim float32 shapes the ragged forward gives the full forward's
    bits, at the default BLAS threading here and (below) at one thread."""
    docs, W, b = case
    (full_pool, full_arg), (ragged_pool, ragged_arg) = both_paths(docs, W, b)
    assert ragged_pool.dtype == full_pool.dtype and ragged_arg.dtype == full_arg.dtype
    assert ragged_pool.tobytes() == full_pool.tobytes()
    np.testing.assert_array_equal(ragged_arg, full_arg)


def test_ragged_path_matches_full_bits_at_one_blas_thread():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    test = f"{__file__}::test_ragged_path_matches_full_bits"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ragged_cases(dtypes=(np.float32, np.float64), dims=(16, 64, 400), filters=(100, 256, 400)))
def test_ragged_path_matches_full_within_tolerance(case):
    """At other shapes a GEMM row's last bits can depend on the rows beside
    it (float64 (3, 47, 400), h = 6, f = 100 is one), so the two paths agree
    to the brute-force forward test's tolerance."""
    docs, W, b = case
    (full_pool, full_arg), (ragged_pool, ragged_arg) = both_paths(docs, W, b)
    tol = 1e-5 if docs.dtype == np.float32 else 1e-12
    np.testing.assert_allclose(ragged_pool, full_pool, rtol=tol, atol=tol)
    np.testing.assert_array_equal(ragged_arg, full_arg)


def test_one_live_window_keeps_the_full_bits():
    # numpy computes a one-row product as a GEMV, which rounds differently
    docs, W, b = _random_case(6, B=1, L=47, dim=400, h=7, f=400, pad_rows=46)
    assert 7 * 400 * 400 > kernels.SMALL_GEMM_MAX and not takes_ragged_path(docs, W)
    (full_pool, full_arg), (ragged_pool, ragged_arg) = both_paths(docs, W, b)
    assert ragged_pool.tobytes() == full_pool.tobytes()
    np.testing.assert_array_equal(ragged_arg, full_arg)


def test_ragged_path_takes_the_first_nan_like_argmax():
    # an embeddings file may hold "nan"; argmax takes a column's first NaN
    docs, W, b = _random_case(5, L=12, dim=400, h=2, f=100, pad_rows=3)
    docs[1, 4, 0] = np.nan  # in windows 3 and 4 of document 1
    assert takes_ragged_path(docs, W)
    (full_pool, full_arg), (ragged_pool, ragged_arg) = both_paths(docs, W, b)
    assert (ragged_arg[1] == 3).all() and np.isnan(ragged_pool[1]).all()
    np.testing.assert_array_equal(ragged_arg, full_arg)
    assert ragged_pool.tobytes() == full_pool.tobytes()


def test_threshold_splits_desk_and_paper_shapes():
    """Every conv of the synth desk space takes the full path, and every conv
    of the default search domains at 400 dims the ragged one."""
    desk_dim = _build_parser().parse_args(["synth", "--out", "x", "--seed", "1"]).dim
    desk = [h * desk_dim * f for f in synth.TOY_SPACE["n_filters"]
            for sizes in synth.TOY_SPACE["filter_sizes"] for h in sizes]
    paper = [h * 400 * f for f in DEFAULT_SEARCH_DOMAINS["n_filters"]
             for sizes in DEFAULT_SEARCH_DOMAINS["filter_sizes"] for h in sizes]
    assert max(desk) < kernels.RAGGED_MIN_WINDOW_COST <= min(paper)


def test_bench_kernels_smoke():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run([sys.executable, os.path.join(root, "benchmarks", "bench_kernels.py"),
                           "--iters", "1"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert lines and all("computed" in line and "ragged" in line for line in lines)
