"""Finite-difference oracles for the analytic backward pass.

The oracle only evaluates forward losses (central differences); it never
touches the backward code it is checking.
"""

import numpy as np

from scnn import model as M
from scnn import nn_core as nn
from scnn.gradcheck import (
    TOLERANCE,
    check_model,
    finite_difference_gradients,
    relative_errors,
    replay_forward,
    run_gradcheck,
    _tiny_case,
)
from scnn.rng import Rng


def test_single_linear_layer_softmax():
    # a batch of one x=[1], one weight, identity activation, 2-way softmax:
    # analytic gradient matches central differences to 1e-6 in float64.
    x = np.array([[1.0]])
    W = np.array([[0.3, -0.2]])
    b = np.array([0.1, 0.0])
    gold = [1]

    def loss(Wv, bv):
        y, _ = nn.dense_forward(x, Wv, bv)
        return nn.cross_entropy(nn.softmax(y), gold)

    y, cache = nn.dense_forward(x, W, b)
    p = nn.softmax(y)
    dlogits = nn.softmax_cross_entropy_backward(p, gold)
    _, dW, db = nn.dense_backward(cache, dlogits)

    step = 1e-5
    for grad, arr, make in ((dW, W, lambda a: loss(a, b)), (db, b, lambda a: loss(W, a))):
        flat = arr.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = make(arr)
            flat[i] = saved - step
            lo = make(arr)
            flat[i] = saved
            fd = (hi - lo) / (2 * step)
            assert abs(fd - grad.reshape(-1)[i]) / max(abs(fd), abs(grad.reshape(-1)[i]), 1e-3) < 1e-6


def test_zero_learning_signal_zero_gradients():
    # p == one-hot gold exactly -> dlogits == 0 -> all grads 0
    hp = M.HyperParams(0.999, 6, 1.0, 3, 0.001, "godin", 4, (1, 2, 2, 2, 3))
    net = M.build_model(hp, 8, seed=0, dtype=np.float64)
    docs = Rng(0).uniform(-1, 1, (2, 12, 8))
    probs, caches = M.forward_batch(net, docs, training=False)
    labels = np.argmax(probs, axis=1) + 1
    caches["probs"] = np.eye(3)[labels - 1].astype(np.float64)
    grads = M.backward_batch(net, caches, labels)
    for name in ("out_w", "out_b"):
        assert np.abs(grads[name]).max() == 0


def test_full_model_gradients_one_case():
    net, docs, labels, dropout = _tiny_case(Rng(5).substream("case", 0))
    assert check_model(net, docs, labels, dropout) < TOLERANCE


def test_full_model_gradients_inference_mode():
    # no dropout path: no stream exercises the plain pipeline
    net, docs, labels, _ = _tiny_case(Rng(6).substream("case", 1))
    assert check_model(net, docs, labels, None) < TOLERANCE


def test_single_doc_toy_case():
    net, docs, labels, dropout = _tiny_case(Rng(8).substream("case", 2))
    assert check_model(net, docs[:1], labels[:1], dropout) < TOLERANCE


def test_replayed_stream_draws_the_same_masks():
    net, docs, _, dropout = _tiny_case(Rng(12).substream("case", 6))
    first, second = (replay_forward(net, docs, dropout)[1]["masks"] for _ in range(2))
    for a, b in zip(first, second):
        assert a is not None and np.any(a == 0)
        np.testing.assert_array_equal(a, b)


def test_dropout_backward_uses_stored_mask():
    net, docs, labels, dropout = _tiny_case(Rng(9).substream("case", 3))
    probs, caches = M.forward_batch(net, docs, training=True, rng=dropout.substream())
    grads = M.backward_batch(net, caches, labels)
    numeric = finite_difference_gradients(net, docs, labels, dropout)
    errs = relative_errors(grads, numeric)
    assert max(float(e.max()) for e in errs.values()) < TOLERANCE


def test_inactive_filters_get_zero_gradient():
    # a filter with no positive pooled output anywhere gets no gradient
    net, docs, labels, dropout = _tiny_case(Rng(10).substream("case", 4))
    _, caches = M.forward_batch(net, docs, training=True, rng=dropout)
    grads = M.backward_batch(net, caches, labels)
    docs3, argmax, pooled, h = caches["conv"][4]  # width-3 group
    dW = grads["conv4_w"]
    # build the set of rows used by any selected window, per filter
    for j in range(pooled.shape[1]):
        used = np.zeros(docs.shape[1], dtype=bool)
        for n in range(len(docs)):
            if pooled[n, j] > 0:
                used[argmax[n, j]:argmax[n, j] + h] = True
        if not used.any():
            assert np.abs(dW[:, :, j]).max() == 0


def test_backward_requires_caches():
    net, docs, labels, _ = _tiny_case(Rng(11).substream("case", 5))
    import pytest

    with pytest.raises(ValueError, match="cache"):
        M.backward_batch(net, {}, labels)


def test_run_gradcheck_many_cases():
    assert run_gradcheck(2024, cases=10) < TOLERANCE
