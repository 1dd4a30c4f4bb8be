"""Kernel tests against brute-force loop references for the forward and
the backward."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnn import kernels
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
