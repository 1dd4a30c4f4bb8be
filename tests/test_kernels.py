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
from scnn.gradcheck import TINY_ARCH, TOLERANCE, check_model
from scnn.model import DEFAULT_SEARCH_DOMAINS, HyperParams, build_model
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

    def test_distinct_rows_past_the_cost_gate_match_bruteforce(self, name, fwd, bwd):
        # every row of the batch is distinct but the pad row, and the conv
        # costs 4 * 64 * 64 = 2^14: the projection of the distinct rows
        docs, W, b = _random_case(4, B=13, dim=64, h=4, f=64, dtype=np.float64, pad_rows=0)
        for n, length in enumerate([0, 2, 6]):  # an empty document and two short ones
            docs[n, length:] = 0
        assert W.size >= kernels.DISTINCT_ROWS_MIN_COST
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
def backward_cases(draw, repeated=False):
    """Random small kernels, plus the corner cases the backward must keep
    exact: all-zero docs, an empty ReLU gate, filters that all select the
    same window, and a filter as wide as the document. With ``repeated``,
    each document's words come from a table of one to four rows, so rows
    repeat, and a tie case makes every window of every document equal."""
    kinds = ["random", "zero_docs", "gate_empty", "shared_window"] + ["tie"] * repeated
    kind = draw(st.sampled_from(kinds))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    B, L = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    dim, f = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    h = L if draw(st.booleans()) else draw(st.integers(1, L))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    if repeated:
        table = rng.uniform(-1, 1, (draw(st.integers(1, 4)), dim))
        docs = word_batch(rng, [draw(st.integers(0, L)) for _ in range(B)], table, dtype, L=L)
    else:
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
    elif kind == "tie":
        docs[:] = table[0]
    d_pooled = rng.uniform(-1, 1, (B, f)).astype(dtype)
    return kind, docs, W, b, d_pooled


def assert_backward_matches_bruteforce(case, path=None):
    """The backward of ``case`` (on one forced backward path, if given) against
    the loop reference; returns whether each call of the distinct-row helper
    found the rows."""
    kind, docs, W, b, d_pooled = case
    h = W.shape[0]
    pooled, argmax = kernels.conv_pool_forward(docs, W, b)
    with forced_path(path) if path else contextlib.nullcontext(), \
            distinct_rows_found() as found:
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
    if kind == "tie":
        assert (argmax == 0).all()
    return found


@settings(max_examples=200, deadline=None, derandomize=True)
@given(backward_cases())
def test_backward_matches_bruteforce(case):
    assert_backward_matches_bruteforce(case)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(backward_cases(repeated=True))
def test_distinct_row_backward_matches_bruteforce(case):
    assert assert_backward_matches_bruteforce(case, "distinct") == [True]


def fallback_case(kind):
    """A float64 batch of repeated words, 40 dims wide so that a row has
    entries past its key's first 32, whose distinct rows the backward cannot
    use ("nan", "inf", and "shared_key": two unequal rows with one key), or
    ("all_distinct") whose rows are all distinct, so fewer selected windows
    than rows share one."""
    rng = Rng(8)
    table = rng.uniform(-1, 1, (3, 40))
    docs = word_batch(rng, [7, 5, 9], table, np.float64, L=10)
    W = rng.uniform(-1, 1, (2, 40, 5))
    b = rng.uniform(-0.5, 0.5, 5)
    d_pooled = rng.uniform(-1, 1, (3, 5))
    if kind == "nan":
        docs[1, 2, 35] = np.nan
    elif kind == "inf":
        # every window that holds it has the value relu(-inf) = 0, so no
        # gradient reaches an inf, which a GEMM would multiply by zeros
        docs[1, 2, 35] = -np.inf
        W[:, 35] = np.abs(W[:, 35])
    elif kind == "shared_key":
        docs[2, 0] = docs[0, 0]
        docs[2, 0, 32:] += 0.5
    else:
        docs[:, :9] = rng.uniform(-1, 1, (3, 9, 40))
    return docs, W, b, d_pooled


@pytest.mark.parametrize("kind", ["nan", "inf", "shared_key", "all_distinct"])
def test_backward_falls_back_to_the_window_gemm(kind):
    docs, W, b, d_pooled = fallback_case(kind)
    with np.errstate(invalid="ignore"):  # BLAS may multiply the -inf by a padding zero
        pooled, argmax = kernels.conv_pool_forward(docs, W, b)
    args = (docs, argmax, pooled, d_pooled, W.shape[0])
    with forced_path("window"):
        window = kernels.conv_pool_backward(*args)
    # past the cost gate the backward takes the distinct rows wherever they
    # are found, however few selected windows share one
    with forced_path("distinct"), distinct_rows_found() as found:
        dW, db = kernels.conv_pool_backward(*args)
    assert found == [kind == "all_distinct"]
    if kind != "all_distinct":
        assert dW.tobytes() == window[0].tobytes() and db.tobytes() == window[1].tobytes()
    exp_dW, exp_db = conv_pool_backward_bruteforce(*args)
    np.testing.assert_allclose(dW, exp_dW, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(db, exp_db, rtol=1e-12, atol=1e-12)


def test_backend_selection_matches_env():
    assert kernels.BACKEND == "numpy"


# The cost gate that forces each path at every shape: below it the forward's
# "full" GEMM and the backward's "window" GEMM, past it the forward's
# "projection" and the backward's "distinct" rows.
FORCED = {"full": float("inf"), "window": float("inf"), "projection": 0, "distinct": 0}


@contextlib.contextmanager
def forced_path(path):
    """Run the kernels on one path: "full" computes every window, and
    "projection" sums each document's windows up to its last word from the
    projected distinct rows (where every row checks out against its distinct
    row and is finite); "window" GEMMs the selected windows in the backward,
    and "distinct" the distinct rows (where they check out)."""
    saved = kernels.DISTINCT_ROWS_MIN_COST
    kernels.DISTINCT_ROWS_MIN_COST = FORCED[path]
    try:
        yield
    finally:
        kernels.DISTINCT_ROWS_MIN_COST = saved


@contextlib.contextmanager
def distinct_rows_found():
    """Record, per call of the kernels' distinct-row helper, whether it found
    the rows."""
    found, helper = [], kernels._distinct_rows

    def spy(docs):
        rows = helper(docs)
        found.append(rows is not None)
        return rows

    kernels._distinct_rows = spy
    try:
        yield found
    finally:
        kernels._distinct_rows = helper


def forward_on(path, docs, W, b):
    with forced_path(path):
        return kernels.conv_pool_forward(docs, W, b)


def conv_pool_reference(doc, W, b):
    """Every window of one (L, dim) document as its own float64 product:
    (act (P, f), pooled (f,)). Fast enough at 400 dims, unlike the loops."""
    h, dim, f = W.shape
    wins = np.lib.stride_tricks.sliding_window_view(doc.astype(np.float64), (h, dim))
    act = np.maximum(wins.reshape(-1, h * dim) @ W.reshape(h * dim, f).astype(np.float64)
                     + b.astype(np.float64), 0)
    return act, act.max(axis=0)


def word_batch(rng, lengths, table, dtype=np.float32, L=47):
    """A (B, L, dim) batch whose documents draw their words from the rows of
    ``table``; a zero row of the table is an unknown token."""
    docs = np.zeros((len(lengths), L, table.shape[1]), dtype=dtype)
    for n, length in enumerate(lengths):
        docs[n, :length] = table[rng.integers(0, len(table), length)]
    return docs


@st.composite
def projection_cases(draw):
    """A padded (B, 47, 400) batch of words from a small table (so words
    repeat), with drawn lengths 0-47, and a filter bank. A "distinct" batch
    holds at most three documents whose every word is a row of its own, the
    fewest windows per distinct row a batch can have."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    f, h = draw(st.sampled_from([100, 400])), draw(st.integers(1, 7))
    lengths = draw(st.lists(st.integers(0, 47), min_size=1, max_size=6))
    kind = draw(st.sampled_from(["random", "empty_doc", "no_pad_window", "one_doc",
                                 "distinct"]))
    if kind == "empty_doc":
        lengths[0] = 0
    elif kind == "no_pad_window":
        lengths[0] = 47
    elif kind == "one_doc":
        lengths = lengths[:1]
    elif kind == "distinct":
        lengths = lengths[:3]
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "distinct":
        table = rng.uniform(-1, 1, (sum(lengths), 400))
        docs = np.zeros((len(lengths), 47, 400), dtype=dtype)
        for n, start in enumerate(np.cumsum(lengths) - lengths):
            docs[n, :lengths[n]] = table[start:start + lengths[n]]
    else:
        table = rng.uniform(-1, 1, (draw(st.integers(1, 40)), 400))
        if draw(st.booleans()):
            table[0] = 0  # an unknown token, inside documents
        docs = word_batch(rng, lengths, table, dtype)
    W = rng.uniform(-0.3, 0.3, (h, 400, f)).astype(dtype)
    b = rng.uniform(-0.1, 0.1, f).astype(dtype)
    return docs, W, b


@settings(max_examples=100, deadline=None, derandomize=True)
@given(projection_cases())
def test_projection_matches_bruteforce(case):
    docs, W, b = case
    pooled, argmax = forward_on("projection", docs, W, b)
    assert pooled.dtype == docs.dtype and argmax.shape == pooled.shape
    tol = 1e-5 if docs.dtype == np.float32 else 1e-12
    cols = np.arange(W.shape[2])
    for n, doc in enumerate(docs):
        act, exp_pool = conv_pool_reference(doc, W, b)
        np.testing.assert_allclose(pooled[n], exp_pool, rtol=tol, atol=tol)
        # the chosen window attains the max (exact ties are tested below)
        np.testing.assert_allclose(act[argmax[n], cols], exp_pool, rtol=tol, atol=tol)


def paper_word_case(B=6):
    """A 400-dim float32 batch of 8-12 words each from 12 words, which takes
    the projection."""
    rng = Rng(0)
    table = rng.uniform(-1, 1, (12, 400))
    docs = word_batch(rng, rng.integers(8, 13, B), table)
    W = rng.uniform(-0.3, 0.3, (5, 400, 100)).astype(np.float32)
    b = rng.uniform(-0.1, 0.1, 100).astype(np.float32)
    return docs, W, b


@contextlib.contextmanager
def rows_checked(monkeypatch):
    """Record what each call of the kernel's row check returned."""
    results = []
    check = kernels._rows_equal

    def spy(docs, distinct, ids):
        results.append((len(distinct), check(docs, distinct, ids)))
        return results[-1][1]

    monkeypatch.setattr(kernels, "_rows_equal", spy)
    yield results


def key_of_first_row(keys, docs):
    """``keys`` with docs[0, 0]'s key given to a row of the last document
    that differs from docs[0, 0]."""
    keys = keys.copy()
    i = np.flatnonzero((docs[-1] != docs[0, 0]).any(axis=1))[0]
    keys[-1, i] = keys[0, 0]
    return keys


@pytest.mark.parametrize("collide", ["every_row", "last_word_with_pad", "one_row_late"])
def test_forced_key_collision_gives_the_full_bits(monkeypatch, collide):
    docs, W, b = paper_word_case(B=12)
    last = docs[0, docs[0].any(axis=1).nonzero()[0][-1]].copy()
    for n, length in enumerate(docs.any(axis=2).sum(axis=1)):
        docs[n, length - 1] = last  # every document ends with one word
    full_pool, full_arg = forward_on("full", docs, W, b)
    keys = kernels._row_keys
    if collide == "every_row":
        monkeypatch.setattr(kernels, "_row_keys", lambda d: np.ones(d.shape[:2], d.dtype))
    elif collide == "last_word_with_pad":  # only the rows tell them apart
        monkeypatch.setattr(kernels, "_row_keys",
                            lambda d: np.where((d == last).all(axis=2), 0, keys(d)))
    else:  # in the last block of documents the row check compares
        monkeypatch.setattr(kernels, "_row_keys", lambda d: key_of_first_row(keys(d), d))
    with rows_checked(monkeypatch) as checks:
        pooled, argmax = kernels.conv_pool_forward(docs, W, b)
    assert [ok for _, ok in checks] == [False]  # the check caught the collision
    assert pooled.tobytes() == full_pool.tobytes()
    np.testing.assert_array_equal(argmax, full_arg)


@pytest.mark.parametrize("column", [7, 300])  # inside and past the key's entries
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_row_takes_the_full_path(monkeypatch, value, column):
    # an embeddings file may hold "nan" or "inf"
    docs, W, b = paper_word_case()
    docs[1, 3, column] = value
    full_pool, full_arg = forward_on("full", docs, W, b)
    with rows_checked(monkeypatch) as checks:
        pooled, argmax = kernels.conv_pool_forward(docs, W, b)
    assert checks == []
    assert pooled.tobytes() == full_pool.tobytes()
    np.testing.assert_array_equal(argmax, full_arg)
    if value is np.nan:  # argmax takes a column's first NaN, and window 0 holds row 3
        assert (argmax[1] == 0).all() and np.isnan(pooled[1]).all()


def test_words_sharing_a_vector_are_one_distinct_row(monkeypatch):
    _, W, b = paper_word_case()
    rng = Rng(4)
    table = rng.uniform(-1, 1, (3, 400))
    table[2] = table[1]  # two words with one vector
    docs = word_batch(rng, [9, 12, 10, 8, 11, 9], table)
    with rows_checked(monkeypatch) as checks:
        pooled, argmax = kernels.conv_pool_forward(docs, W, b)
    assert checks == [(3, True)]  # the pad row and two vectors
    for n, doc in enumerate(docs):
        np.testing.assert_allclose(pooled[n], conv_pool_reference(doc, W, b)[1],
                                   rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("pad", [True, False])
def test_word_with_a_zero_key(monkeypatch, pad):
    """A word whose first 32 entries are zero has a pad row's key. Beside
    pad rows the check fails; in a batch without pad it is one distinct row."""
    rng = Rng(6)
    table = rng.uniform(-1, 1, (4, 400))
    table[0, :32] = 0
    docs = word_batch(rng, [12, 12], table, L=12 + pad)
    docs[:, 9:12] = table[0]  # every document's last window of words holds only it
    W = rng.uniform(-0.3, 0.3, (3, 400, 100)).astype(np.float32)
    b = rng.uniform(-0.1, 0.1, 100).astype(np.float32)
    with rows_checked(monkeypatch) as checks:
        pooled, _ = kernels.conv_pool_forward(docs, W, b)
    assert [ok for _, ok in checks] == [not pad]
    for n, doc in enumerate(docs):
        np.testing.assert_allclose(pooled[n], conv_pool_reference(doc, W, b)[1],
                                   rtol=1e-5, atol=1e-5)


def test_projection_ties_take_the_first_position():
    rng = Rng(3)
    a, c = rng.uniform(-1, 1, (2, 400))
    docs = np.zeros((3, 12, 400), dtype=np.float32)
    docs[0] = a  # every window equal
    docs[1] = [a, c] * 6  # windows 0, 2, 4, ... equal, and 1, 3, 5, ...
    docs[2, :4] = c
    W = rng.uniform(-0.3, 0.3, (2, 400, 100)).astype(np.float32)
    b = rng.uniform(-0.1, 0.1, 100).astype(np.float32)
    _, argmax = forward_on("projection", docs, W, b)
    assert (argmax[0] == 0).all()
    act, _ = conv_pool_reference(docs[1], W, b)
    np.testing.assert_array_equal(argmax[1], np.where(act[1] > act[0], 1, 0))


@st.composite
def window_major_cases(draw):
    """A window-major (P, B, f) array of ReLU'd window values, as both
    forward paths pool it. Each document's windows after its drawn count of
    live ones hold one filter's pad value relu(b), so they tie with each
    other (and all of an empty document's windows tie); NaN may sit at any
    drawn windows."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    P = draw(st.one_of(st.sampled_from([1, 47]), st.integers(2, 46)))  # 47: uint8 ranks
    B, f = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 5]))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    act = np.maximum(rng.uniform(-1, 1, (P, B, f)), 0).astype(dtype)
    pad = np.maximum(rng.uniform(-0.5, 0.5, f), 0).astype(dtype)
    for n in range(B):
        act[draw(st.integers(0, P)):, n] = pad
    for _ in range(draw(st.integers(0, 3))):
        act[draw(st.integers(0, P - 1)), draw(st.integers(0, B - 1)),
            draw(st.integers(0, f - 1))] = np.nan
    return act


@settings(max_examples=200, deadline=None, derandomize=True)
@given(window_major_cases())
def test_first_max_is_the_first_argmax(act):
    top, argmax = kernels._first_max(act)
    want = act.argmax(axis=0)  # the first max, or the first NaN
    assert argmax.dtype == want.dtype and top.dtype == act.dtype
    np.testing.assert_array_equal(argmax, want)
    np.testing.assert_array_equal(top, np.take_along_axis(act, want[None], axis=0)[0])


RERUN = """
import hashlib, numpy as np
from scnn import kernels
from scnn.rng import Rng
rng = Rng(11)
table = rng.uniform(-1, 1, (30, 400))
docs = np.zeros((100, 19, 400), dtype=np.float32)
for n, length in enumerate(rng.integers(6, 13, 100)):
    docs[n, :length] = table[rng.integers(0, 30, length)]
digest = hashlib.sha256()
for h, f in ((3, 100), (5, 400), (7, 400)):
    W = rng.uniform(-0.3, 0.3, (h, 400, f)).astype(np.float32)
    b = rng.uniform(-0.1, 0.1, f).astype(np.float32)
    for out in kernels.conv_pool_forward(docs, W, b):
        digest.update(out.tobytes())
print(digest.hexdigest())
"""


def test_projection_reruns_give_the_same_bits():
    """A predict-sized batch of repeated words, run twice in fresh processes
    at the default BLAS threading and twice at one thread."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    one = {**env, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

    def run(env):
        proc = subprocess.run([sys.executable, "-c", RERUN], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for env in (env, one):
        assert run(env) == run(env)


def finite_difference_error(path):
    """check_model's error on a tiny float64 model and a batch of words from
    a three-row table, with the kernels on ``path``."""
    rng = Rng(5)
    net = build_model(HyperParams(adam_b2=0.999, keep_prob=0.7, **TINY_ARCH), 8, seed=3,
                      dtype=np.float64)
    for name, p in net.params.items():
        if name.endswith("_b"):  # keep ReLU kinks off the pad windows
            p[:] = rng.uniform(0.05, 0.3, p.shape) * np.where(rng.random(p.shape) < 0.5, -1, 1)
    docs = word_batch(rng, [9, 4, 7], rng.uniform(-1, 1, (3, 8)), np.float64, L=12)
    labels = np.array([1, 3, 2])
    with forced_path(path):
        return check_model(net, docs, labels, rng.substream("dropout"))


def test_projection_gradients_match_finite_differences():
    assert finite_difference_error("projection") <= TOLERANCE


def test_distinct_row_gradients_match_finite_differences():
    with distinct_rows_found() as found:
        assert finite_difference_error("distinct") <= TOLERANCE
    assert found and all(found)


def test_threshold_splits_desk_and_paper_shapes():
    """Every conv of the synth desk space takes the full path, and every conv
    of the default search domains at 400 dims the projection."""
    desk_dim = _build_parser().parse_args(["synth", "--out", "x", "--seed", "1"]).dim
    desk = [h * desk_dim * f for f in synth.TOY_SPACE["n_filters"]
            for sizes in synth.TOY_SPACE["filter_sizes"] for h in sizes]
    paper = [h * 400 * f for f in DEFAULT_SEARCH_DOMAINS["n_filters"]
             for sizes in DEFAULT_SEARCH_DOMAINS["filter_sizes"] for h in sizes]
    assert max(desk) < kernels.DISTINCT_ROWS_MIN_COST <= min(paper)


def test_bench_kernels_smoke():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run([sys.executable, os.path.join(root, "benchmarks", "bench_kernels.py"),
                           "--iters", "1"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    cases = proc.stdout.strip().split("\n")
    assert cases and all("computed" in line and "ragged" not in line and "projection" in line
                         and "backward window" in line and "distinct rows" in line
                         for line in cases)
