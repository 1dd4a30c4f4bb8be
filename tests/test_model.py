import hashlib
import itertools
import json
import math
import os
import struct
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_documents, rewrite_model_header, save_net, synth_arrays, toy_hp
from scnn import model as M
from scnn import kernels, nn_core
from scnn.errors import DataError, NumericError
from scnn.fileio import file_sha256
from scnn.model import HyperParams, TrainSchedule, build_model, load_model, save_model
from scnn.rng import Rng


class TestHyperParams:
    def test_restricted_domain_accepts_standard_point(self):
        hp = HyperParams(0.9, 200, 0.5, 100, 0.001, "shin", 300, (2, 3, 4, 5, 6))
        assert M.validate_hyperparams(hp) == []

    def test_restricted_domain_rejects_and_names_fields(self):
        hp = toy_hp()  # toy values are outside the standard domains
        problems = M.validate_hyperparams(hp)
        assert any(p.startswith("n_filters=") for p in problems)
        assert any(p.startswith("n_dense_output=") for p in problems)

    def test_unrestricted_accepts_toy(self):
        assert M.validate_hyperparams(toy_hp(), restricted=False) == []

    def test_unrestricted_still_requires_five_groups(self):
        hp = toy_hp(filter_sizes=(1, 2, 3))
        problems = M.validate_hyperparams(hp, restricted=False)
        assert any("filter_sizes" in p for p in problems)

    @pytest.mark.parametrize("width,ok", [(47, True), (48, False)])
    def test_filter_widths_up_to_the_document_length(self, width, ok):
        # a wider filter has no window in a 47-token document
        problems = M.validate_hyperparams(toy_hp(filter_sizes=(1, 2, 2, 2, width)),
                                          restricted=False)
        assert problems == ([] if ok else [
            f"filter_sizes=(1, 2, 2, 2, {width}) must be exactly 5 positive integers "
            f"of at most 47, the document length"])

    def test_dict_round_trip(self):
        hp = toy_hp()
        assert HyperParams.from_dict(hp.to_dict()) == hp

    def test_from_dict_rejects_bad_keys(self):
        with pytest.raises(DataError, match="unknown keys"):
            HyperParams.from_dict({**toy_hp().to_dict(), "oops": 1})
        with pytest.raises(DataError, match="missing keys"):
            HyperParams.from_dict({"adam_b2": 0.9})


class TestBuildModel:
    def test_architecture_arithmetic(self):
        hp = toy_hp(n_filters=100, n_dense_output=300, filter_sizes=(1, 2, 3, 4, 5))
        net = build_model(hp, 16, seed=0)
        assert net.params["dense_w"].shape == (500, 300)
        assert net.params["out_w"].shape == (300, 3)
        for g, h in enumerate(hp.filter_sizes):
            assert net.params[f"conv{g}_w"].shape == (h, 16, 100)
            assert net.params[f"conv{g}_b"].shape == (100,)

    def test_allocated_from_param_shapes(self, monkeypatch):
        hp = toy_hp(filter_sizes=(3, 4, 5, 6, 7))
        # the default block holds each toy tensor whole; 1 draws row by row,
        # 100 takes several rows of dense_w (40, 16) per block
        for block in (M._INIT_BLOCK, 1, 100):
            monkeypatch.setattr(M, "_INIT_BLOCK", block)
            net = build_model(hp, 16, seed=5)
            assert [(n, p.shape) for n, p in net.params.items()] == M.param_shapes(hp, 16)
            # weights draw in declared order from one stream, fan-in = all but
            # the last dim, with the doubles of one draw of the whole tensor
            rng = Rng(5).substream("init")
            for name, shape in M.param_shapes(hp, 16):
                if name.endswith("_w"):
                    fan_in = int(np.prod(shape[:-1]))
                    want = nn_core.xavier_init(fan_in, shape[-1], shape, rng).astype(np.float32)
                    np.testing.assert_array_equal(net.params[name], want, err_msg=name)

    def test_param_count_closed_form(self):
        hp = toy_hp()
        f, nd = hp.n_filters, hp.n_dense_output
        closed = (sum(h * 16 * f + f for h in hp.filter_sizes)
                  + M.N_GROUPS * f * nd + nd + nd * M.N_CLASSES + M.N_CLASSES)
        assert sum(math.prod(shape) for _, shape in M.param_shapes(hp, 16)) == closed
        assert build_model(hp, 16, seed=1).arena.size == closed

    def test_deterministic_in_seed(self):
        a = build_model(toy_hp(), 8, seed=42)
        b = build_model(toy_hp(), 8, seed=42)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        c = build_model(toy_hp(), 8, seed=43)
        assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)

    def test_equal_width_groups_independent(self):
        net = build_model(toy_hp(filter_sizes=(1, 2, 2, 2, 3)), 8, seed=0)
        w1, w2, w3 = net.params["conv1_w"], net.params["conv2_w"], net.params["conv3_w"]
        assert not np.array_equal(w1, w2)
        assert not np.array_equal(w2, w3)
        assert not np.array_equal(w1, w3)

    def test_biases_zero(self):
        net = build_model(toy_hp(), 8, seed=0)
        for name, p in net.params.items():
            if name.endswith("_b"):
                assert np.abs(p).max() == 0

    def test_invalid_hp_lists_fields(self):
        with pytest.raises(ValueError, match="keep_prob"):
            build_model(toy_hp(keep_prob=0.0), 8, seed=0)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            build_model(toy_hp(), 0, seed=0)


class TestForward:
    def _net_and_docs(self, seed=0, n=4):
        net = build_model(toy_hp(), 8, seed=seed)
        docs = Rng(seed).uniform(-1, 1, (n, 12, 8)).astype(np.float32)
        return net, docs

    def test_probs_valid(self):
        net, docs = self._net_and_docs()
        probs, _ = M.forward_batch(net, docs)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert (probs >= 0).all()

    def test_zero_doc_fresh_model_uniform(self):
        net, _ = self._net_and_docs()
        probs, _ = M.forward_batch(net, np.zeros((1, 12, 8), np.float32))
        np.testing.assert_allclose(probs[0], [1 / 3] * 3, atol=1e-6)

    def test_inference_deterministic(self):
        net, docs = self._net_and_docs()
        a, _ = M.forward_batch(net, docs)
        b, _ = M.forward_batch(net, docs)
        np.testing.assert_array_equal(a, b)

    def test_dim_mismatch(self):
        net, _ = self._net_and_docs()
        with pytest.raises(ValueError):
            M.forward_batch(net, np.zeros((1, 12, 9), np.float32))

    def test_single_doc_wrapper(self):
        net, docs = self._net_and_docs()
        probs, _ = M.forward_batch(net, docs[:1])
        batch, _ = M.forward_batch(net, docs)
        np.testing.assert_array_equal(probs[0], batch[0])


@pytest.mark.parametrize("dim,hp", [
    (16, toy_hp()),  # desk shape
    (64, toy_hp(n_filters=48, n_dense_output=32, batch_size=50, filter_sizes=(3, 4, 5, 6, 7))),
])
def test_pad_trim_is_bitwise_exact(dim, hp):
    """A batch that Documents.gather cuts after its last word column plus
    h_max rows gives the probabilities and gradients of the full 47-row
    floats, bit for bit."""
    rng = Rng(4)
    docs = rng.uniform(0, 1, (50, 47, dim)).astype(np.float32)
    for n, length in enumerate(rng.integers(1, 13, 50)):  # 1..12 real rows, then pad
        docs[n, length:] = 0
    net = build_model(hp, dim, seed=3)
    for g in range(M.N_GROUPS):
        W, b = net.params[f"conv{g}_w"], net.params[f"conv{g}_b"]
        b[:] = Rng(g).uniform(-0.5, 0.5, hp.n_filters)
        # docs are >= 0, so filter 0 is negative on every real window and its
        # max is the pad windows' relu(b) = 0.5: a trim one row short breaks it
        W[:, :, 0], b[0] = -np.abs(W[:, :, 0]), 0.5
    labels = Rng(5).integers(1, 4, 50)

    def run(batch):
        probs, caches = M.forward_batch(net, batch, training=True, rng=Rng(6))
        return probs, caches, M.backward_batch(net, caches, labels)

    probs, caches, grads = run(as_documents(docs).gather(np.arange(50), max(hp.filter_sizes)))
    assert caches["conv"][0][0].shape[1] <= 12 + max(hp.filter_sizes) < 47
    assert all((cache[2][:, 0] == 0.5).all() for cache in caches["conv"])
    full_probs, full_caches, full_grads = run(docs)
    assert full_caches["conv"][0][0].shape[1] == 47
    np.testing.assert_array_equal(probs, full_probs)
    for name in grads:
        np.testing.assert_array_equal(grads[name], full_grads[name], err_msg=name)


def test_pad_trim_keeps_width_error_and_zero_batch():
    net = build_model(toy_hp(filter_sizes=(1, 2, 2, 2, 5)), 8, seed=0)
    with pytest.raises(ValueError, match="filter width 5 exceeds document length 4"):
        M.forward_batch(net, np.zeros((2, 4, 8), np.float32))
    batch = as_documents(np.zeros((2, 47, 8), np.float32)).gather([0, 1], 5)
    assert batch.shape[1] == 5
    probs, caches = M.forward_batch(net, batch)
    np.testing.assert_allclose(probs, 1 / 3, atol=1e-6)


class TestPredictProba:
    def test_empty(self):
        net = build_model(toy_hp(), 8, seed=0)
        out = M.predict_proba(net, as_documents(np.zeros((0, 12, 8), np.float32)))
        assert out.shape == (0, 3)

    def test_matches_forward(self):
        net = build_model(toy_hp(), 8, seed=1)
        docs = Rng(2).uniform(-1, 1, (3, 12, 8)).astype(np.float32)
        out = M.predict_proba(net, as_documents(docs))
        probs, _ = M.forward_batch(net, docs)
        np.testing.assert_array_equal(out, probs)

    def test_identical_docs_identical_rows(self):
        net = build_model(toy_hp(), 8, seed=1)
        doc = Rng(3).uniform(-1, 1, (1, 12, 8)).astype(np.float32)
        docs = as_documents(np.repeat(doc, 5, axis=0))
        out = M.predict_proba(net, docs)
        for row in out[1:]:
            np.testing.assert_array_equal(out[0], row)


class TestTrainSchedule:
    def _train(self, scores, patience=2, max_epochs=30, corpus=None):
        if corpus is None:
            docs = as_documents(Rng(0).uniform(-1, 1, (20, 12, 8)).astype(np.float32))
            labels = np.asarray(Rng(1).integers(1, 4, 20))
        else:
            docs, labels = corpus
        net = build_model(toy_hp(batch_size=8), 8, seed=9)
        it = iter(scores)
        events = []
        tm = M.train(
            net, docs, labels, docs[:2], labels[:2],
            TrainSchedule(max_epochs=max_epochs, patience=patience),
            Rng(7).substream("train"),
            dev_scorer=lambda m: next(it),
            callback=lambda epoch, m, rec: events.append((epoch, dict(rec))),
        )
        return tm, events

    @pytest.mark.parametrize("field,value", [
        ("max_epochs", 0), ("max_epochs", -3), ("patience", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field}={value}"):
            TrainSchedule(**{field: value})

    def test_flat_scores_trace(self):
        # flat dev scores with patience 2: restarts after epochs 3 and 5,
        # stop at epoch 7, lr halved at each restart
        tm, events = self._train([0.5] * 10)
        assert tm.epochs_run == 7
        assert tm.restart_count == 2
        assert [rec["restarted"] for _, rec in events] == [
            False, False, True, False, True, False, False,
        ]
        lrs = [rec["lr"] for _, rec in events]
        lr0 = toy_hp().learning_rate
        assert lrs == [lr0, lr0, lr0, lr0 / 2, lr0 / 2, lr0 / 4, lr0 / 4]
        assert tm.best_dev_score == 0.5

    def test_improving_scores_no_restart(self):
        tm, _ = self._train([i / 100 for i in range(1, 31)], max_epochs=12)
        assert tm.restart_count == 0
        assert tm.epochs_run == 12
        assert tm.best_dev_score == 0.12

    def test_best_snapshot_returned_and_restored_at_restart(self):
        docs = as_documents(Rng(10).uniform(-1, 1, (20, 12, 8)).astype(np.float32))
        labels = np.asarray(Rng(11).integers(1, 4, 20))
        snapshots = []

        def grab(epoch, m, rec):
            snapshots.append((epoch, {k: v.copy() for k, v in m.params.items()},
                              rec["restarted"]))

        net = build_model(toy_hp(batch_size=8), 8, seed=3)
        scores = iter([1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        tm = M.train(net, docs, labels, docs[:2], labels[:2],
                     TrainSchedule(max_epochs=30, patience=2),
                     Rng(4).substream("train"),
                     dev_scorer=lambda m: next(scores), callback=grab)
        best = snapshots[0][1]  # epoch 1 scored 1.0, snapshotted before restarts
        # at each restart the live params equal the best snapshot again
        for epoch, params, restarted in snapshots:
            if restarted:
                for name in best:
                    np.testing.assert_array_equal(params[name], best[name])
        # returned weights are the best snapshot
        for name in best:
            np.testing.assert_array_equal(tm.weights.params[name], best[name])
        assert tm.best_dev_score == 1.0 and tm.restart_count == 2

    def test_history_shape_and_best(self, toy_corpus):
        _, docs, labels = toy_corpus
        net = build_model(toy_hp(), 16, seed=0)
        tm = M.train(net, docs, labels, docs[:10], labels[:10],
                     TrainSchedule(max_epochs=5, patience=10),
                     Rng(0).substream("train"))
        assert len(tm.history) == tm.epochs_run
        assert tm.best_dev_score == max(h[1] for h in tm.history)

    def test_training_deterministic(self, toy_corpus):
        _, docs, labels = toy_corpus
        results = []
        for _ in range(2):
            net = build_model(toy_hp(), 16, seed=5)
            tm = M.train(net, docs, labels, docs[:10], labels[:10],
                         TrainSchedule(max_epochs=3, patience=10),
                         Rng(6).substream("train"))
            results.append(tm)
        a, b = results
        assert a.history == b.history
        for name in a.weights.params:
            np.testing.assert_array_equal(a.weights.params[name], b.weights.params[name])

    @pytest.mark.parametrize("scores", [[float("nan")], [0.5, 0.7, float("nan")],
                                        [-np.inf]])
    def test_dev_score_that_cannot_be_best_raises(self, scores):
        epoch = len(scores)
        with pytest.raises(NumericError, match=f"dev score {scores[-1]} at epoch {epoch}"):
            self._train(scores, patience=1)

    def test_empty_dev_rejected(self):
        net = build_model(toy_hp(), 8, seed=0)
        docs = as_documents(np.zeros((4, 12, 8), np.float32))
        with pytest.raises(ValueError, match="dev"):
            M.train(net, docs, np.array([1, 2, 3, 1]), docs[:0], np.array([]),
                    TrainSchedule(), Rng(0))


def assert_arena_views(net):
    """Every params[name] is the view of net.arena at its param_shapes offset."""
    assert net.arena.ndim == 1 and net.arena.flags.c_contiguous
    assert list(net.params) == [name for name, _ in net.shapes]
    offset = 0
    for name, shape in net.shapes:
        p = net.params[name]
        assert p.shape == shape and p.dtype == net.arena.dtype, name
        assert p.ctypes.data == net.arena.ctypes.data + offset * net.arena.itemsize, name
        assert np.shares_memory(p, net.arena), name
        offset += math.prod(shape)
    assert offset == net.arena.size


class TestArena:
    def test_views_after_build(self):
        for dtype in (np.float32, np.float64):
            net = build_model(toy_hp(filter_sizes=(3, 4, 5, 6, 7)), 8, seed=2, dtype=dtype)
            assert_arena_views(net)
            net.params["dense_b"][:] = 7  # a write through a view lands in the arena
            assert (net.arena == 7).sum() == net.params["dense_b"].size

    def test_views_after_load(self, tmp_path):
        net = build_model(toy_hp(), 8, seed=3)
        save_net(net, tmp_path / "m.scnn")
        again = load_model(tmp_path / "m.scnn")
        assert_arena_views(again)
        assert again.arena.dtype == np.float32
        np.testing.assert_array_equal(again.arena, net.arena)

    def test_views_after_train_with_restarts(self):
        docs = as_documents(Rng(10).uniform(-1, 1, (20, 12, 8)).astype(np.float32))
        labels = np.asarray(Rng(11).integers(1, 4, 20))
        net = build_model(toy_hp(batch_size=8), 8, seed=3)
        arena = net.arena
        seen = []

        def check(epoch, m, rec):
            assert m.arena is arena
            assert_arena_views(m)
            seen.append(rec["restarted"])

        scores = iter([1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        tm = M.train(net, docs, labels, docs[:2], labels[:2],
                     TrainSchedule(max_epochs=30, patience=2), Rng(4).substream("train"),
                     dev_scorer=lambda m: next(scores), callback=check)
        assert seen.count(True) == 2 == tm.restart_count
        assert tm.weights is net and net.arena is arena
        assert_arena_views(tm.weights)

    def test_shared_buffers_train_like_fresh_ones(self):
        docs = as_documents(Rng(10).uniform(-1, 1, (20, 12, 8)).astype(np.float32))
        labels = np.asarray(Rng(11).integers(1, 4, 20))
        sched = TrainSchedule(max_epochs=6, patience=2)

        def fit(seed, buffers=None, scores=None):
            net = build_model(toy_hp(batch_size=8), 8, seed=seed)
            return M.train(net, docs, labels, docs[:2], labels[:2], sched,
                           Rng(seed).substream("train"), buffers=buffers,
                           dev_scorer=None if scores is None else (lambda m: next(scores)))

        shared = M.train_buffers(build_model(toy_hp(batch_size=8), 8, seed=0))
        # the first run leaves moments, step count and snapshot behind, after a restart
        first = fit(1, shared, iter([1.0, 0.5, 0.5, 0.5, 0.5, 0.5]))
        assert first.restart_count >= 1 and shared.opt.t > 0
        again, fresh = fit(2, shared), fit(2)
        assert again.history == fresh.history
        np.testing.assert_array_equal(again.weights.arena, fresh.weights.arena)

    def test_dev_probs_are_the_best_epochs_predictions(self):
        docs = as_documents(Rng(10).uniform(-1, 1, (20, 12, 8)).astype(np.float32))
        labels = np.asarray(Rng(11).integers(1, 4, 20))
        sched = TrainSchedule(max_epochs=6, patience=2)
        scores, best_epoch_probs = [], []

        def watch(epoch, model, record):
            # an improving epoch restarts nothing, so the model is that epoch's
            if record["dev_score"] > max(scores, default=-1.0):
                best_epoch_probs[:] = [M.predict_proba(model, docs[:6])]
            scores.append(record["dev_score"])

        net = build_model(toy_hp(batch_size=8), 8, seed=3)
        tm = M.train(net, docs, labels, docs[:6], labels[:6], sched,
                     Rng(3).substream("train"), callback=watch)
        assert tm.dev_probs is not None
        np.testing.assert_array_equal(tm.dev_probs, M.predict_proba(tm.weights, docs[:6]))
        np.testing.assert_array_equal(tm.dev_probs, best_epoch_probs[0])
        scored = M.train(build_model(toy_hp(batch_size=8), 8, seed=3), docs, labels,
                         docs[:6], labels[:6], sched, Rng(3).substream("train"),
                         dev_scorer=lambda m: 0.5)
        assert scored.dev_probs is None

    def test_saved_tensor_bytes_are_the_arena(self, tmp_path):
        net = build_model(toy_hp(), 8, seed=4)
        save_net(net, tmp_path / "m.scnn")
        raw = (tmp_path / "m.scnn").read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        assert raw[12 + header_len:] == net.arena.astype("<f4").tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_into_arena_bitwise_equal_fresh(self, dtype):
        hp = toy_hp(filter_sizes=(1, 2, 2, 3, 4))
        net = build_model(hp, 8, seed=5, dtype=dtype)
        net.params["dense_b"][:] = 0.1  # some ReLU units active
        docs = Rng(6).uniform(-1, 1, (9, 12, 8)).astype(dtype)
        labels = np.asarray(Rng(7).integers(1, 4, 9))
        _, caches = M.forward_batch(net, docs, training=True, rng=Rng(8))
        grads = M.backward_batch(net, caches, labels)
        # the same gradients, each in a freshly allocated array
        fresh = {}
        mask1, mask2 = caches["masks"]
        dz_out = nn_core.softmax_cross_entropy_backward(caches["probs"], labels)
        x_out, _, W_out, _ = caches["out"]
        fresh["out_w"], fresh["out_b"] = x_out.T @ dz_out, dz_out.sum(axis=0)
        x_d, z_d, W_d, _ = caches["dense"]
        dz_d = (dz_out @ W_out.T) * mask2 * (z_d > 0)
        fresh["dense_w"], fresh["dense_b"] = x_d.T @ dz_d, dz_d.sum(axis=0)
        dfeat = (dz_d @ W_d.T) * mask1
        for g, d_pooled in enumerate(np.split(dfeat, M.N_GROUPS, axis=1)):
            fresh[f"conv{g}_w"], fresh[f"conv{g}_b"] = kernels.conv_pool_backward(
                *caches["conv"][g][:3], d_pooled, caches["conv"][g][3])
        # the backward returns them as the views of one fresh arena
        assert [(name, grads[name].shape) for name in grads] == net.shapes
        flat = grads["conv0_w"].base
        assert flat.shape == net.arena.shape and flat is not net.arena
        for name, _ in net.shapes:
            assert grads[name].dtype == dtype and grads[name].base is flat
            np.testing.assert_array_equal(grads[name], fresh[name], err_msg=name)

    def test_arena_must_match_layout(self):
        net = build_model(toy_hp(), 8, seed=0)
        for arena in (net.arena[:-1], net.arena.reshape(1, -1)):
            with pytest.raises(ValueError, match="does not hold"):
                M.ShallowCNN(net.hp, 8, arena, 0)


def _paper_hp(n_dense_output=100):
    """The paper's shape: 400 filters of widths 3-7 (over 400 dims)."""
    return HyperParams(adam_b2=0.999, n_dense_output=n_dense_output, keep_prob=0.5,
                       batch_size=50, learning_rate=0.001, word_embedding="godin",
                       n_filters=400, filter_sizes=(3, 4, 5, 6, 7))


class TestGradWindow:
    def test_desk_layout_is_one_span(self):
        # synth's search space at its largest, and the toy model
        for hp in (toy_hp(n_filters=8, n_dense_output=16, filter_sizes=(1, 2, 3, 4, 5)),
                   toy_hp()):
            shapes = M.param_shapes(hp, 16)
            assert M.grad_spans(shapes) == [(0, shapes)]
            buffers = M.train_buffers(build_model(hp, 16, seed=0))
            assert buffers.window.size == M.arena_size(shapes)
            assert buffers.spans[0][1].base is buffers.window

    @pytest.mark.parametrize("n_dense_output", [100, 400])
    def test_paper_layout_is_six_spans(self, n_dense_output):
        shapes = M.param_shapes(_paper_hp(n_dense_output), 400)
        groups = [shapes[i:i + 2] for i in range(0, 10, 2)] + [shapes[10:]]
        window = max(max(map(M.arena_size, groups)),
                     min(M.arena_size(shapes), nn_core.ADAM_CHUNK))
        assert window == 7 * 400 * 400 + 400  # the widest conv group, 4.5 MB of float32
        spans = M.grad_spans(shapes)
        assert [entries for _, entries in spans] == groups
        end = 0  # in order, with no gaps, each at most the window
        for lo, entries in spans:
            assert lo == end and M.arena_size(entries) <= window
            end += M.arena_size(entries)
        assert end == M.arena_size(shapes)
        net = M.ShallowCNN(_paper_hp(n_dense_output), 400,
                           np.zeros(M.arena_size(shapes), np.float32), 0)
        assert M.train_buffers(net).window.size == window

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_spans_update_like_one_full_arena_step(self, monkeypatch, dtype):
        # a small ADAM_CHUNK cuts the toy arena into spans of 4 groups, 1
        # group and the dense layers
        monkeypatch.setattr(nn_core, "ADAM_CHUNK", 256)
        hp = toy_hp(filter_sizes=(1, 2, 2, 3, 4))
        net, ref = (build_model(hp, 8, seed=5, dtype=dtype) for _ in range(2))
        buffers = M.train_buffers(net)
        assert [len(entries) for _, entries in M.grad_spans(net.shapes)] == [8, 2, 4]
        ref_opt = nn_core.AdamState.for_arena(ref.arena, ref.shapes, beta2=hp.adam_b2)
        docs = Rng(6).uniform(-1, 1, (9, 12, 8)).astype(dtype)
        labels = np.asarray(Rng(7).integers(1, 4, 9))
        for step in range(1, 6):
            lr = 0.01 / step
            _, caches = M.forward_batch(net, docs, training=True, rng=Rng(step))
            assert M.backward_batch(net, caches, labels, (buffers, lr)) is None
            # the full-arena backward and one Adam step over all of it
            _, caches = M.forward_batch(ref, docs, training=True, rng=Rng(step))
            grads = M.backward_batch(ref, caches, labels)
            nn_core.adam_step(ref.arena, grads["conv0_w"].base, ref_opt, lr)
            assert buffers.opt.t == ref_opt.t == step
            for got, want in ((net.arena, ref.arena), (buffers.opt.m, ref_opt.m),
                              (buffers.opt.v, ref_opt.v)):
                np.testing.assert_array_equal(got, want)

    def test_train_in_spans_like_in_one(self, monkeypatch):
        docs = as_documents(Rng(10).uniform(-1, 1, (20, 12, 8)).astype(np.float32))
        labels = np.asarray(Rng(11).integers(1, 4, 20))

        def fit():
            net = build_model(toy_hp(batch_size=8), 8, seed=2)
            buffers = M.train_buffers(net)
            return M.train(net, docs, labels, docs[:6], labels[:6],
                           TrainSchedule(max_epochs=4, patience=1),
                           Rng(2).substream("train"), buffers=buffers), buffers

        one, one_buffers = fit()
        monkeypatch.setattr(nn_core, "ADAM_CHUNK", 1)
        split, split_buffers = fit()
        assert len(one_buffers.spans) == 1 and len(split_buffers.spans) == 2
        assert split.history == one.history
        for got, want in ((split.weights.arena, one.weights.arena),
                          (split_buffers.opt.m, one_buffers.opt.m),
                          (split_buffers.opt.v, one_buffers.opt.v)):
            np.testing.assert_array_equal(got, want)

    def test_non_finite_gradient_names_the_first_tensor(self, monkeypatch):
        # spans: conv0 and conv1, conv2, conv3, conv4, the dense layers
        monkeypatch.setattr(nn_core, "ADAM_CHUNK", 1)
        net = build_model(toy_hp(n_dense_output=4, filter_sizes=(1, 2, 3, 4, 5)), 8, seed=5)
        buffers = M.train_buffers(net)
        assert len(buffers.spans) == 5
        real = kernels.conv_pool_backward

        def poisoned(docs, argmax, pooled, d_pooled, h):
            dW, db = real(docs, argmax, pooled, d_pooled, h)
            if h in (2, 4):  # conv1 and conv3, in two spans
                dW[0, 0, 0] = np.nan if h == 2 else np.inf
            return dW, db

        monkeypatch.setattr(kernels, "conv_pool_backward", poisoned)
        docs = Rng(6).uniform(-1, 1, (9, 12, 8)).astype(np.float32)
        labels = np.asarray(Rng(7).integers(1, 4, 9))
        before = M.arena_views(net.arena.copy(), net.shapes)
        _, caches = M.forward_batch(net, docs, training=True, rng=Rng(8))
        # conv3's span is visited first, yet conv1 comes first in the arena
        with pytest.raises(NumericError, match="'conv1_w'"):
            M.backward_batch(net, caches, labels, (buffers, 0.01))
        # the spans visited before conv3's were applied, the others were not
        changed = {name for name, p in net.params.items() if not np.array_equal(p, before[name])}
        assert {"dense_w", "out_w", "conv4_w"} <= changed
        assert changed <= {"dense_w", "dense_b", "out_w", "out_b", "conv4_w", "conv4_b"}
        assert buffers.opt.t == 1

    @staticmethod
    def _paper_train_peak(scores):
        """(traced peak bytes, buffers, model) of a paper-shape train of one
        batch per epoch, one epoch per dev score."""
        import tracemalloc

        _, docs, labels = synth_arrays(9, 50, dim=400)
        it = iter(scores)
        tracemalloc.start()
        try:
            # the model, Adam's moments and the window stay, and the snapshot
            # once an epoch follows a best one; the batch's rows, caches and
            # each kernel's result come and go
            net = build_model(_paper_hp(), 400, seed=0)
            buffers = M.train_buffers(net)
            M.train(net, docs, labels, docs, labels, TrainSchedule(max_epochs=len(scores)),
                    Rng(0), dev_scorer=lambda m: next(it), buffers=buffers)
            return tracemalloc.get_traced_memory()[1], buffers, net
        finally:
            tracemalloc.stop()

    @staticmethod
    def _held(arenas):
        arena_bytes = M.arena_size(M.param_shapes(_paper_hp(), 400)) * 4
        return arenas * arena_bytes + (7 * 400 * 400 + 400) * 4  # and the window

    def test_paper_batch_holds_no_gradient_arena(self):
        # a 1-epoch train holds three arenas and never makes the snapshot
        peak, buffers, _ = self._paper_train_peak([0.0])
        assert buffers.best is None
        # the slack holds the batch's rows and caches (~5 MB) and the widest
        # kernel result (~5 MB); a gradient arena (16.8 MB) would not fit
        assert self._held(3) < peak < self._held(3) + 12e6

    def test_epoch_after_a_best_one_makes_the_snapshot(self):
        peak, buffers, net = self._paper_train_peak([1.0, 0.5])
        # epoch 2 did not improve, so the returned weights are the snapshot
        np.testing.assert_array_equal(net.arena, buffers.best)
        assert self._held(4) < peak < self._held(4) + 12e6


class TestSaveLoad:
    def _trained(self, toy_corpus):
        _, docs, labels = toy_corpus
        net = build_model(toy_hp(), 16, seed=77)
        return M.train(net, docs, labels, docs[:10], labels[:10],
                       TrainSchedule(max_epochs=2, patience=5),
                       Rng(77).substream("train"))

    def test_round_trip_bit_identical(self, tmp_path, toy_corpus):
        tm = self._trained(toy_corpus)
        path = tmp_path / "m.scnn"
        save_model(tm, path)
        again = load_model(path)
        assert isinstance(again, M.ShallowCNN)
        assert again.hp == tm.weights.hp
        assert again.init_seed == tm.weights.init_seed
        for name in tm.weights.params:
            np.testing.assert_array_equal(again.params[name], tm.weights.params[name])
        # the loaded weights with the same metadata save to the same bytes
        save_model(M.TrainedModel(again, tm.best_dev_score, tm.epochs_run,
                                  tm.restart_count, tm.history), tmp_path / "m2.scnn")
        assert (tmp_path / "m.scnn").read_bytes() == (tmp_path / "m2.scnn").read_bytes()

    def test_float64_model_not_saved(self, tmp_path):
        net = build_model(toy_hp(), 8, seed=3, dtype=np.float64)
        with pytest.raises(ValueError, match="float32"):
            save_model(M.TrainedModel(net, 0.5, 1, 0, []), tmp_path / "m.scnn")
        assert not (tmp_path / "m.scnn").exists()

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "m.scnn"
        save_net(build_model(toy_hp(), 8, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(DataError, match="not a model file"):
            load_model(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "m.scnn"
        save_net(build_model(toy_hp(), 8, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(raw)
        with pytest.raises(DataError, match="version 99"):
            load_model(path)

    @pytest.mark.parametrize("edit,named", [
        (lambda h: h["tensors"].reverse(), "entry 0 is ['out_b', [3]]"),
        (lambda h: h["tensors"][3].__setitem__(0, "conv9_b"), "need conv1_b"),
        (lambda h: h["tensors"][10][1].reverse(), "need dense_w [40, 16]"),
        (lambda h: h["tensors"].pop(), "entry 13 is None"),
        (lambda h: h["tensors"].append(["extra", [1]]), "1 extra entries"),
        (lambda h: h["hp"].update(n_filters=9), "need conv0_w [1, 8, 9]"),
        (lambda h: h["hp"].update(keep_prob="high"), "bad hyperparameters"),
        (lambda h: h["hp"].pop("adam_b2"), "missing keys ['adam_b2']"),
        (lambda h: h.update(dtype=["float32"]), "dtype must be float32"),
        (lambda h: h.update(dtype="float64"), "dtype must be float32, got 'float64'"),
        (lambda h: h.update(embedding_dim="8"), "embedding_dim must be a positive integer"),
        (lambda h: h.update(train_meta={"history": []}), "train_meta lacks best_dev_score"),
        (lambda h: h.update(train_meta=[]), "train_meta is not a JSON object"),
        (lambda h: h.update(train_meta=None), "m.scnn: train_meta is not a JSON object"),
        (lambda h: h.update(train_meta={"best_dev_score": 0.5, "epochs_run": 1,
                                        "restart_count": 0, "history": [1]}),
         "history must be a list of lists"),
    ])
    def test_header_rejected(self, tmp_path, edit, named):
        path = tmp_path / "m.scnn"
        save_net(build_model(toy_hp(), 8, seed=0), path)
        rewrite_model_header(path, path, edit)
        with pytest.raises(DataError, match="m.scnn: ") as info:
            load_model(path)
        assert named in str(info.value)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.scnn"
        save_net(build_model(toy_hp(), 8, seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(DataError, match="truncated"):
            load_model(path)

    def test_digest_is_file_sha256(self, tmp_path, toy_corpus):
        path = tmp_path / "m.scnn"
        save_model(self._trained(toy_corpus), path)
        digest = file_sha256(path)
        again = load_model(path, digest)
        np.testing.assert_array_equal(again.params["out_w"], load_model(path).params["out_w"])
        wrong = format(int(digest, 16) ^ 1, "064x")
        with pytest.raises(DataError, match="hash mismatch for member .*m.scnn"):
            load_model(path, wrong)

    def test_header_only_read(self, tmp_path):
        path = tmp_path / "m.scnn"
        save_net(build_model(toy_hp(), 8, seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])  # the tensors are not read
        assert M.load_model_hp(path) == toy_hp()


class TestPredictThreads:
    """predict_proba runs its chunks in turn on the calling thread and
    starts no thread."""

    @pytest.fixture
    def chunked(self, monkeypatch):
        _, docs, _ = synth_arrays(11, 50)
        monkeypatch.setattr(M, "_PREDICT_CHUNK", 8)  # 7 chunks
        ran = []
        forward = M.forward_batch

        def recorded(*args, **kwargs):
            ran.append((threading.get_ident(), threading.active_count()))
            return forward(*args, **kwargs)

        monkeypatch.setattr(M, "forward_batch", recorded)
        return build_model(toy_hp(), docs.dim, seed=4), docs, ran

    def test_one_chunk_runs_on_the_calling_thread(self, chunked):
        net, docs, ran = chunked
        before = threading.active_count()
        M.predict_proba(net, docs)
        assert ran == [(threading.get_ident(), before)] * 7

    def test_a_raising_chunk_cancels_the_rest(self, chunked, monkeypatch):
        net, docs, _ = chunked
        started = itertools.count()
        forward = M.forward_batch

        def second_fails(model, batch, **kwargs):
            if next(started) == 1:
                raise NumericError("chunk 2 failed")
            return forward(model, batch, **kwargs)

        monkeypatch.setattr(M, "forward_batch", second_fails)
        with pytest.raises(NumericError, match="chunk 2 failed"):
            M.predict_proba(net, docs)
        assert next(started) == 2  # no chunk after the second started


# --------------------------------------------------------------------------
# fuzzing the loader: truncations, byte flips and deleted header keys
# --------------------------------------------------------------------------

MODEL_NET = build_model(toy_hp(n_filters=3, n_dense_output=4), 4, seed=5)


def _model_bytes() -> bytes:
    tm = M.TrainedModel(MODEL_NET, 0.5, 2, 1, [(1.0, 0.25, 0.01), (0.5, 0.5, 0.005)])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.scnn")
        save_model(tm, path)
        with open(path, "rb") as fh:
            return fh.read()


MODEL_BYTES = _model_bytes()
HEADER_END = 12 + struct.unpack("<II", MODEL_BYTES[4:12])[1]
HEADER = json.loads(MODEL_BYTES[12:HEADER_END])
HEADER_KEYS = ([(key,) for key in HEADER]
               + [(outer, key) for outer in ("hp", "train_meta") for key in HEADER[outer]])


def _without(keys) -> bytes:
    header = json.loads(MODEL_BYTES[12:HEADER_END])
    target = header
    for key in keys[:-1]:
        target = target[key]
    del target[keys[-1]]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MODEL_BYTES[:4] + struct.pack("<II", 1, len(blob)) + blob + MODEL_BYTES[HEADER_END:]


def _flipped(at: int, mask: int) -> bytes:
    raw = bytearray(MODEL_BYTES)
    raw[at] ^= mask
    return bytes(raw)


EDITS = st.one_of(
    st.builds(lambda n: ("truncate", n, MODEL_BYTES[:n]),
              st.integers(0, len(MODEL_BYTES) - 1)),
    st.builds(lambda at, mask: ("flip", at, _flipped(at, mask)),
              st.integers(0, len(MODEL_BYTES) - 1), st.integers(1, 255)),
    st.builds(lambda keys: ("delete", keys, _without(keys)), st.sampled_from(HEADER_KEYS)),
)


def test_unedited_model_loads(tmp_path):
    path = tmp_path / "m.scnn"
    path.write_bytes(MODEL_BYTES)
    again = load_model(path, hashlib.sha256(MODEL_BYTES).hexdigest())
    np.testing.assert_array_equal(again.arena, MODEL_NET.arena)
    assert HEADER["train_meta"]["history"] == [[1.0, 0.25, 0.01], [0.5, 0.5, 0.005]]
    assert len(HEADER_KEYS) == 7 + 8 + 4  # top level, hp, train_meta


@given(edit=EDITS)
@settings(max_examples=400, deadline=None)
def test_fuzzed_model_raises_only_data_error(tmp_path_factory, edit):
    kind, where, raw = edit
    path = tmp_path_factory.getbasetemp() / "fuzzed.scnn"
    path.write_bytes(raw)
    try:
        load_model(path)  # without a digest an edit may still load
    except DataError:
        pass
    digest = hashlib.sha256(MODEL_BYTES).hexdigest()
    with pytest.raises(DataError) as info:
        load_model(path, digest)
    if kind == "flip" and where >= HEADER_END:
        assert "hash mismatch" in str(info.value)


def test_non_finite_loss_aborts(toy_corpus):
    _, docs, labels = toy_corpus
    net = build_model(toy_hp(learning_rate=1.0), 16, seed=0)
    net.params["out_w"][:] = 1e38  # force an overflow into non-finite loss
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            M.train(net, docs, labels, docs[:5], labels[:5],
                    TrainSchedule(max_epochs=3, patience=10), Rng(0).substream("t"))
