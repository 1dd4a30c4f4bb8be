import numpy as np
import pytest

from conftest import toy_hp
from scnn import model as M
from scnn.errors import DataError, NumericError
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
        assert net.pooled_width == 500
        assert net.params["dense_w"].shape == (500, 300)
        assert net.params["out_w"].shape == (300, 3)
        for g, h in enumerate(hp.filter_sizes):
            assert net.params[f"conv{g}_w"].shape == (h, 16, 100)
            assert net.params[f"conv{g}_b"].shape == (100,)

    def test_param_count_closed_form(self):
        hp = toy_hp()
        net = build_model(hp, 16, seed=1)
        total = sum(p.size for p in net.params.values())
        assert total == M.param_count(hp, 16)

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
def test_pad_trim_is_bitwise_exact(monkeypatch, dim, hp):
    """Trimming trailing all-pad windows changes no probability or gradient bit."""
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

    def run():
        probs, caches = M.forward_batch(net, docs, training=True, rng=Rng(6))
        return probs, caches, M.backward_batch(net, caches, labels)

    probs, caches, grads = run()
    assert caches["conv"][0][0].shape[1] <= 12 + max(hp.filter_sizes) < 47
    assert all((cache[2][:, 0] == 0.5).all() for cache in caches["conv"])
    monkeypatch.setattr(M, "trim_pad_windows", lambda docs, h_max: docs)
    full_probs, full_caches, full_grads = run()
    assert full_caches["conv"][0][0].shape[1] == 47
    np.testing.assert_array_equal(probs, full_probs)
    for name in grads:
        np.testing.assert_array_equal(grads[name], full_grads[name], err_msg=name)


def test_pad_trim_keeps_width_error_and_zero_batch():
    net = build_model(toy_hp(filter_sizes=(1, 2, 2, 2, 5)), 8, seed=0)
    with pytest.raises(ValueError, match="filter width 5 exceeds document length 4"):
        M.forward_batch(net, np.zeros((2, 4, 8), np.float32))
    probs, caches = M.forward_batch(net, np.zeros((2, 47, 8), np.float32))
    assert caches["conv"][0][0].shape[1] == 5
    np.testing.assert_allclose(probs, 1 / 3, atol=1e-6)


class TestPredictProba:
    def test_empty(self):
        net = build_model(toy_hp(), 8, seed=0)
        out = M.predict_proba(net, np.zeros((0, 12, 8), np.float32))
        assert out.shape == (0, 3)

    def test_matches_forward(self):
        net = build_model(toy_hp(), 8, seed=1)
        docs = Rng(2).uniform(-1, 1, (3, 12, 8)).astype(np.float32)
        out = M.predict_proba(net, docs)
        probs, _ = M.forward_batch(net, docs)
        np.testing.assert_array_equal(out, probs)

    def test_identical_docs_identical_rows(self):
        net = build_model(toy_hp(), 8, seed=1)
        doc = Rng(3).uniform(-1, 1, (1, 12, 8)).astype(np.float32)
        docs = np.repeat(doc, 5, axis=0)
        out = M.predict_proba(net, docs)
        for row in out[1:]:
            np.testing.assert_array_equal(out[0], row)


class TestTrainSchedule:
    def _train(self, scores, patience=2, max_epochs=30, corpus=None):
        if corpus is None:
            docs = Rng(0).uniform(-1, 1, (20, 12, 8)).astype(np.float32)
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
        docs = Rng(10).uniform(-1, 1, (20, 12, 8)).astype(np.float32)
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

    def test_empty_dev_rejected(self):
        net = build_model(toy_hp(), 8, seed=0)
        docs = np.zeros((4, 12, 8), np.float32)
        with pytest.raises(ValueError, match="dev"):
            M.train(net, docs, np.array([1, 2, 3, 1]), docs[:0], np.array([]),
                    TrainSchedule(), Rng(0))


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
        assert isinstance(again, M.TrainedModel)
        assert again.weights.hp == tm.weights.hp
        assert again.weights.init_seed == tm.weights.init_seed
        assert again.history == tm.history
        assert again.best_dev_score == tm.best_dev_score
        for name in tm.weights.params:
            np.testing.assert_array_equal(
                again.weights.params[name], tm.weights.params[name]
            )
        # and the file itself is reproducible
        save_model(again, tmp_path / "m2.scnn")
        assert (tmp_path / "m.scnn").read_bytes() == (tmp_path / "m2.scnn").read_bytes()

    def test_bare_model_round_trip(self, tmp_path):
        net = build_model(toy_hp(), 8, seed=3)
        save_model(net, tmp_path / "m.scnn")
        again = load_model(tmp_path / "m.scnn")
        assert isinstance(again, M.ShallowCNN)
        for name in net.params:
            np.testing.assert_array_equal(again.params[name], net.params[name])

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "m.scnn"
        save_model(build_model(toy_hp(), 8, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(DataError, match="not a model file"):
            load_model(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "m.scnn"
        save_model(build_model(toy_hp(), 8, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(raw)
        with pytest.raises(DataError, match="version 99"):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.scnn"
        save_model(build_model(toy_hp(), 8, seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(DataError, match="truncated"):
            load_model(path)


def test_non_finite_loss_aborts(toy_corpus):
    _, docs, labels = toy_corpus
    net = build_model(toy_hp(learning_rate=1.0), 16, seed=0)
    net.params["out_w"][:] = 1e38  # force an overflow into non-finite loss
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            M.train(net, docs, labels, docs[:5], labels[:5],
                    TrainSchedule(max_epochs=3, patience=10), Rng(0).substream("t"))
