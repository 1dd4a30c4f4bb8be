import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NetMember, save_net, synth_arrays, toy_hp
from scnn import ensemble as E
from scnn import metrics
from scnn import search as S
from scnn import synth
from scnn.corpus import DOC_LEN, FoldAssignment, stratified_kfold, to_token_seqs
from scnn.embeddings import lookup_docs
from scnn.errors import DataError
from scnn.model import SharedBuffers, TrainSchedule, predict_proba
from scnn.rng import Rng


class StubPredictor:
    """Duck-typed stand-in for a stacked member: fixed probability matrix."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)

    def predict_proba(self, docs):
        return self.probs[: len(docs)]


def _stub_fe(probs_list, cv_score=0.5, trial_id=0):
    return E.Trial(hp=toy_hp(), members=[StubPredictor(p) for p in probs_list],
                   cv_score=cv_score, trial_id=trial_id)


def _rand_probs(rng, n):
    raw = rng.uniform(0.01, 1.0, (n, 3))
    return raw / raw.sum(axis=1, keepdims=True)


DOCS = np.zeros((4, 1, 1), dtype=np.float32)  # stubs ignore content
DOCS_BY_NAME = {"godin": DOCS}  # toy_hp's word_embedding


class TestEnsemblePredict:
    def test_mean_of_identical_members(self):
        p = _rand_probs(Rng(0), 4)
        fe = _stub_fe([p] * 5)
        np.testing.assert_allclose(E.ensemble_predict([fe], DOCS_BY_NAME)[0], p, atol=1e-7)

    def test_two_member_mean(self):
        fe = _stub_fe([np.tile([1.0, 0, 0], (4, 1)), np.tile([0, 1.0, 0], (4, 1))])
        np.testing.assert_allclose(
            E.ensemble_predict([fe], DOCS_BY_NAME)[0], np.tile([0.5, 0.5, 0.0], (4, 1))
        )

    def test_rows_sum_to_one(self):
        fe = _stub_fe([_rand_probs(Rng(i), 4) for i in range(5)])
        (out,) = E.ensemble_predict([fe], DOCS_BY_NAME)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


class TestStackTopK:
    def test_sorting(self):
        trials = [_stub_fe([_rand_probs(Rng(i), 4)], cv_score=s, trial_id=i)
                  for i, s in enumerate([0.7, 0.9, 0.8])]
        se = E.stack_top_k(trials, 2)
        assert [fe.trial_id for fe in se] == [1, 2]

    def test_tie_break_by_trial_id(self):
        trials = [_stub_fe([_rand_probs(Rng(9), 4)], cv_score=0.8, trial_id=5),
                  _stub_fe([_rand_probs(Rng(8), 4)], cv_score=0.8, trial_id=3)]
        se = E.stack_top_k(trials, 2)
        assert [fe.trial_id for fe in se] == [3, 5]

    def test_k_range(self):
        trials = [_stub_fe([_rand_probs(Rng(0), 4)])]
        with pytest.raises(ValueError):
            E.stack_top_k(trials, 0)
        with pytest.raises(ValueError):
            E.stack_top_k(trials, 2)

    def test_singleton_stack_equals_best_trial(self):
        trials = [_stub_fe([_rand_probs(Rng(i), 4)], cv_score=s, trial_id=i)
                  for i, s in enumerate([0.4, 0.9, 0.6])]
        se = E.stack_top_k(trials, 1)
        np.testing.assert_array_equal(
            E.stacked_predict(se, DOCS_BY_NAME), E.ensemble_predict(trials[1:2], DOCS_BY_NAME)[0]
        )


class TestStackedPredict:
    def test_mean_of_means_identity(self):
        rng = Rng(4)
        trials = [
            _stub_fe([_rand_probs(rng.substream(i, j), 4) for j in range(5)],
                     cv_score=0.5 + i / 10, trial_id=i)
            for i in range(4)
        ]
        se = E.stack_top_k(trials, 3)
        stacked = E.stacked_predict(se, DOCS_BY_NAME)
        flat = np.mean(
            [m.predict_proba(DOCS) for fe in se for m in fe.members],
            axis=0,
        )
        np.testing.assert_allclose(stacked, flat, atol=1e-6)

    def test_identical_fold_ensembles(self):
        members = [_rand_probs(Rng(i), 4) for i in range(5)]
        trials = [_stub_fe(members, cv_score=0.5, trial_id=i) for i in range(3)]
        se = E.stack_top_k(trials, 3)
        np.testing.assert_allclose(
            E.stacked_predict(se, DOCS_BY_NAME), E.ensemble_predict(trials[:1], DOCS_BY_NAME)[0],
            atol=1e-12,
        )

    def test_top20_of_5_model_ensembles_averages_100_models(self):
        # the production configuration: 20 fold-ensembles of 5 models each
        rng = Rng(100)
        trials = [
            _stub_fe([_rand_probs(rng.substream(i, j), 4) for j in range(5)],
                     cv_score=float(rng.substream("s", i).random()), trial_id=i)
            for i in range(25)
        ]
        se = E.stack_top_k(trials, 20)
        underlying = [m.predict_proba(DOCS)
                      for fe in se for m in fe.members]
        assert len(underlying) == 100
        np.testing.assert_allclose(
            E.stacked_predict(se, DOCS_BY_NAME), np.mean(underlying, axis=0), atol=1e-6
        )


# randomized algebra suite over stub ensembles

@given(
    scores=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12),
    k=st.integers(1, 12),
    perm_seed=st.integers(0, 10 ** 6),
)
@settings(max_examples=200, deadline=None)
def test_ranking_properties(scores, k, perm_seed):
    trials = [_stub_fe([_rand_probs(Rng(i), 4)], cv_score=s, trial_id=i)
              for i, s in enumerate(scores)]
    k = min(k, len(trials))
    se = E.stack_top_k(trials, k)
    keys = [(-fe.cv_score, fe.trial_id) for fe in se]
    assert keys == sorted(keys)
    # prefix monotonicity
    if k < len(trials):
        bigger = E.stack_top_k(trials, k + 1)
        assert [fe.trial_id for fe in bigger[:k]] == [
            fe.trial_id for fe in se
        ]
    # permutation invariance of membership and predictions
    perm = Rng(perm_seed).permutation(len(trials))
    shuffled = [trials[i] for i in perm]
    se2 = E.stack_top_k(shuffled, k)
    assert [fe.trial_id for fe in se2] == [
        fe.trial_id for fe in se
    ]
    np.testing.assert_allclose(
        E.stacked_predict(se2, DOCS_BY_NAME), E.stacked_predict(se, DOCS_BY_NAME), atol=1e-6
    )


# real fold-ensemble training

def _train_folds(hp, docs, labels, folds, sched, seed, order=None):
    """Every fold of trial 0, in fold order, trained in ``order`` (default:
    fold order) in one set of training buffers."""
    buffers = SharedBuffers()
    order = range(folds.k) if order is None else order
    models = {fold: E.train_fold_ensemble(hp, docs, labels, folds, fold, sched,
                                          Rng(seed).substream(0), buffers)
              for fold in order}
    return [models[fold] for fold in range(folds.k)]


def _cv_score(examples, labels, folds, models, out_dir):
    """search.write_oof's cv score of ``models``' held-out rows."""
    inputs = S.TrialInputs(ids=[ex.id for ex in examples], labels=labels, docs_by_name={},
                           folds=folds, sched=TrainSchedule(), seed=0, out_dir=str(out_dir))
    return S.write_oof(inputs, str(out_dir), [m.dev_probs.astype(np.float64) for m in models])


@pytest.fixture(scope="module")
def trained():
    from conftest import synth_arrays

    examples, docs, labels = synth_arrays(77, 100)
    folds = stratified_kfold([ex.label for ex in examples], k=5, seed=7)
    models = _train_folds(toy_hp(batch_size=20), docs, labels, folds,
                          TrainSchedule(max_epochs=8, patience=3), 7)
    return models, examples, docs, labels, folds


class TestTrainFoldEnsemble:
    def test_member_count_and_oof_coverage(self, trained):
        models, _, docs, _, folds = trained
        fold_of = np.asarray(folds.fold_of)
        assert len(models) == 5
        assert sum(len(m.dev_probs) for m in models) == len(docs)
        for i, m in enumerate(models):
            assert m.dev_probs.shape == ((fold_of == i).sum(), 3)
            np.testing.assert_allclose(m.dev_probs.sum(axis=1), 1.0, atol=1e-6)

    def test_oof_from_held_out_member_only(self, trained):
        models, _, docs, _, folds = trained
        fold_of = np.asarray(folds.fold_of)
        for i, m in enumerate(models):
            held = np.flatnonzero(fold_of == i)
            np.testing.assert_array_equal(m.dev_probs, predict_proba(m.weights, docs[held]))

    def test_cv_score_recomputable(self, trained, tmp_path):
        models, examples, _, labels, folds = trained
        cv = _cv_score(examples, labels, folds, models, tmp_path)
        ids, gold, fold_col, oof = S.parse_oof_tsv(tmp_path / "oof.tsv")
        assert ids == [ex.id for ex in examples] and fold_col == list(folds.fold_of)
        for i, m in enumerate(models):
            np.testing.assert_array_equal(oof[np.asarray(fold_col) == i], m.dev_probs)
        again = metrics.micro_prf_12(metrics.confusion(gold, metrics.argmax_labels(oof)))[2]
        assert cv == again

    def test_deterministic(self, trained):
        models, _, docs, labels, folds = trained
        # each fold replays bitwise, also when the folds train in reverse order
        again = _train_folds(toy_hp(batch_size=20), docs, labels, folds,
                             TrainSchedule(max_epochs=8, patience=3), 7, order=[4, 3, 2, 1, 0])
        for m, m2 in zip(models, again):
            np.testing.assert_array_equal(m2.dev_probs, m.dev_probs)
            np.testing.assert_array_equal(m2.weights.arena, m.weights.arena)

    def test_separable_corpus_scores_high(self, trained, tmp_path):
        models, examples, _, labels, folds = trained
        assert _cv_score(examples, labels, folds, models, tmp_path) >= 0.9

    def test_full_desk_scale_corpus(self, tmp_path):
        from conftest import synth_arrays

        examples, docs, labels = synth_arrays(42, 600)
        folds = stratified_kfold([ex.label for ex in examples], k=5, seed=42)
        models = _train_folds(toy_hp(batch_size=50), docs, labels, folds, TrainSchedule(), 42)
        assert _cv_score(examples, labels, folds, models, tmp_path) >= 0.9

    def test_documents_and_a_fold_stay_below_the_float_corpus(self):
        # 4,000 desk tweets as float32 (N, 47, 16) rows would be 12.0 MB;
        # neither their lookup nor a fold trained on them comes near it
        float_corpus = 4000 * DOC_LEN * 16 * np.dtype(np.float32).itemsize
        rng = Rng(6)
        table = synth.make_embedding_table(rng, dim=16)
        examples = synth.make_examples(rng.substream("test"), 4000, "te")
        labels = np.asarray([ex.label for ex in examples], dtype=np.int64)
        folds = stratified_kfold(labels, k=5, seed=6)
        tracemalloc.start()
        try:
            tokens = to_token_seqs(examples)
            token_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            docs = lookup_docs(table, tokens)
            lookup_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            trained = E.train_fold_ensemble(
                toy_hp(batch_size=50, filter_sizes=(1, 2, 3, 4, 5)), docs, labels, folds, 0,
                TrainSchedule(max_epochs=1), Rng(6), SharedBuffers())
            fold_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trained.dev_probs) == np.count_nonzero(np.asarray(folds.fold_of) == 0)
        # word ids, not token lists (2.7 MB of them): 0.76 MB on numpy 2.4
        assert token_peak < float_corpus / 8, token_peak
        assert lookup_peak < float_corpus, lookup_peak  # 0.76 MB on numpy 2.4
        assert fold_peak < float_corpus, fold_peak  # 5.0 MB

    def test_fold_mismatch_rejected(self, trained):
        _, _, docs, labels, folds = trained
        bad = FoldAssignment(folds.fold_of[:-1], folds.k, folds.seed)
        with pytest.raises(ValueError):
            E.train_fold_ensemble(toy_hp(), docs, labels, bad, 0,
                                  TrainSchedule(), Rng(0), SharedBuffers())


class TestManifest:
    def _saved(self, tmp_path, toy_corpus):
        from scnn.model import build_model

        _, docs, labels = toy_corpus
        trials = []
        on_disk = []
        for tid in range(3):
            members = []
            paths = []
            for fold in range(2):
                net = build_model(toy_hp(), 16, seed=100 * tid + fold)
                path = tmp_path / f"t{tid}_f{fold}.scnn"
                save_net(net, path)
                members.append(NetMember(net))
                paths.append(str(path))
            trials.append(E.Trial(hp=toy_hp(), members=members,
                                  cv_score=0.5 + tid / 10, trial_id=tid))
            on_disk.append(replace(trials[-1], members=[E.ModelFile(p) for p in paths]))
        se = E.stack_top_k(trials, 2)
        manifest = tmp_path / "stack.json"
        E.save_ensemble(E.stack_top_k(on_disk, 2), manifest, fold_seed=7,
                        space_descriptor="abc")
        return se, manifest, docs

    def test_round_trip_predictions_bit_exact(self, tmp_path, toy_corpus):
        import json

        se, manifest, docs = self._saved(tmp_path, toy_corpus)
        loaded = E.load_ensemble(manifest)
        assert len(loaded) == len(se) == 2
        assert json.loads(manifest.read_text())["K"] == 2
        assert [fe.trial_id for fe in loaded] == [
            fe.trial_id for fe in se
        ]
        np.testing.assert_array_equal(
            E.stacked_predict(loaded, {"godin": docs[:7]}),
            E.stacked_predict(se, {"godin": docs[:7]}),
        )

    def test_missing_member_named(self, tmp_path, toy_corpus):
        se, manifest, _ = self._saved(tmp_path, toy_corpus)
        victim = tmp_path / "t2_f1.scnn"
        victim.unlink()
        with pytest.raises(DataError, match="t2_f1.scnn"):
            E.load_ensemble(manifest)

    def test_hash_mismatch_named(self, tmp_path, toy_corpus):
        # the hash is checked over the bytes loaded, when the member is used
        se, manifest, docs = self._saved(tmp_path, toy_corpus)
        victim = tmp_path / "t1_f0.scnn"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(raw)
        loaded = E.load_ensemble(manifest)
        with pytest.raises(DataError, match="hash mismatch for member .*t1_f0.scnn"):
            E.stacked_predict(loaded, {"godin": docs[:7]})

    def test_edited_scores_warn_and_reorder(self, tmp_path, toy_corpus, caplog):
        import json
        import logging

        se, manifest, _ = self._saved(tmp_path, toy_corpus)
        doc = json.loads(manifest.read_text())
        for entry in doc["members"]:  # invert the ranking
            entry["cv_score"] = 1.0 - entry["cv_score"]
        manifest.write_text(json.dumps(doc))
        with caplog.at_level(logging.WARNING):
            loaded = E.load_ensemble(manifest)
        assert "advisory" in caplog.text
        scores = [fe.cv_score for fe in loaded]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("edit,named", [
        (lambda doc: doc.pop("members"), "manifest lacks members"),
        (lambda doc: doc.pop("K"), "manifest lacks K"),
        (lambda doc: doc.update(members=[]), "manifest members must be a non-empty list"),
        (lambda doc: doc.pop("format_version"), "manifest lacks format_version"),
        (lambda doc: doc.update(format_version=2),
         "manifest format_version must be an integer <= 1, got 2"),
        (lambda doc: doc.update(members=[doc["members"][0], "t0_f1.scnn"]), "member 1 is not"),
    ] + [
        (lambda doc, key=key: doc["members"][2].pop(key), f"member 2 lacks {key}")
        for key in ("path", "sha256", "trial_id", "cv_score")
    ])
    def test_missing_keys_named(self, tmp_path, toy_corpus, edit, named):
        import json

        _, manifest, _ = self._saved(tmp_path, toy_corpus)
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"stack.json: {named}"):
            E.load_ensemble(manifest)

    @pytest.mark.parametrize("edit,named", [
        (lambda doc: doc.update(K=7), "K is 7, but the members form 2 trials"),
        (lambda doc: doc.update(K=1), "K is 1, but the members form 2 trials"),
        # the second trial keeps one of its two members
        (lambda doc: doc["members"].pop(),
         r"K is 2, but the members form 2 trials of \[1, 2\] members"),
    ])
    def test_k_and_member_counts_checked(self, tmp_path, toy_corpus, edit, named):
        import json

        _, manifest, _ = self._saved(tmp_path, toy_corpus)
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"stack.json: {named}"):
            E.load_ensemble(manifest)

    def test_non_object_manifest(self, tmp_path):
        manifest = tmp_path / "stack.json"
        manifest.write_text("[1, 2]")
        with pytest.raises(DataError, match="stack.json: manifest is not a JSON object"):
            E.load_ensemble(manifest)


class TestStreaming:
    """A manifest-loaded stack keeps ModelFiles; ensemble_predict loads each
    member just before it predicts with it and drops it afterwards."""

    def _saved_stack(self, tmp_path, k=3, folds=5):
        from scnn.model import build_model

        trials, on_disk = [], []
        for tid in range(k):
            members, paths = [], []
            for fold in range(folds):
                net = build_model(toy_hp(), 16, seed=10 * tid + fold)
                path = tmp_path / f"t{tid}_f{fold}.scnn"
                save_net(net, path)
                members.append(NetMember(net))
                paths.append(str(path))
            trials.append(E.Trial(hp=toy_hp(), members=members,
                                  cv_score=0.9 - tid / 10, trial_id=tid))
            on_disk.append(replace(trials[-1], members=[E.ModelFile(p) for p in paths]))
        se = E.stack_top_k(trials, k)
        manifest = tmp_path / "stack.json"
        E.save_ensemble(E.stack_top_k(on_disk, k), manifest, fold_seed=7,
                        space_descriptor="abc")
        return se, manifest

    def test_one_member_alive_and_bit_exact(self, tmp_path, toy_corpus, monkeypatch):
        import weakref

        _, docs, _ = toy_corpus
        se, manifest = self._saved_stack(tmp_path)
        loaded = E.load_ensemble(manifest)
        assert all(isinstance(m, E.ModelFile)
                   for fe in loaded for m in fe.members)
        real_load = E.load_model
        refs, most_alive = [], []

        def tracking_load(path, sha256):
            net = real_load(path, sha256)
            refs.append(weakref.ref(net))
            most_alive.append(sum(ref() is not None for ref in refs))
            return net

        monkeypatch.setattr(E, "load_model", tracking_load)
        monkeypatch.setattr(E, "usable_cpus", lambda: 1)  # every member in this process
        streamed = E.stacked_predict(loaded, {"godin": docs})
        assert len(refs) == 15 and max(most_alive) == 1
        assert all(ref() is None for ref in refs)
        np.testing.assert_array_equal(streamed, E.stacked_predict(se, {"godin": docs}))

    def test_changed_hyperparameters_rejected(self, tmp_path, toy_corpus):
        from scnn.model import build_model

        _, docs, _ = toy_corpus
        _, manifest = self._saved_stack(tmp_path, k=1, folds=2)
        loaded = E.load_ensemble(manifest)
        # fold 1 is replaced after the stack is loaded; its manifest hash is
        # not checked, to reach the hyperparameter check
        save_net(build_model(toy_hp(keep_prob=0.5), 16, seed=0), tmp_path / "t0_f1.scnn")
        fe = loaded[0]
        fe.members[1] = E.ModelFile(fe.members[1].path)
        with pytest.raises(DataError, match="t0_f1.scnn: hyperparameters differ"):
            E.ensemble_predict([fe], {"godin": docs})

    def test_manifest_does_not_depend_on_the_usable_cpus(self, tmp_path, monkeypatch):
        written = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(E, "usable_cpus", lambda: cpus)
            before = set(threading.enumerate())
            _, manifest = self._saved_stack(tmp_path)
            assert set(threading.enumerate()) == before
            written.append(manifest.read_bytes())
        assert written[0] == written[1] == written[2]

    def test_hash_mismatch_beats_changed_hyperparameters(self, tmp_path, toy_corpus,
                                                         monkeypatch):
        from scnn import model as M
        from scnn.model import build_model

        _, docs, _ = toy_corpus
        _, manifest = self._saved_stack(tmp_path, k=1, folds=2)
        loaded = E.load_ensemble(manifest)
        # fold 1 is replaced after the stack is loaded: its hyperparameters
        # differ, and so does its sha256 from the manifest's
        save_net(build_model(toy_hp(keep_prob=0.5), 16, seed=0), tmp_path / "t0_f1.scnn")
        forwards = []
        forward = M.forward_batch
        monkeypatch.setattr(M, "forward_batch",
                            lambda *args, **kwargs: forwards.append(1) or forward(*args, **kwargs))
        monkeypatch.setattr(E, "usable_cpus", lambda: 1)
        with pytest.raises(DataError, match="hash mismatch for member .*t0_f1.scnn") as info:
            E._member_probs(loaded[0], loaded[0].members[1], docs)
        assert info.value.__context__ is None
        assert forwards == []  # no forward on unverified weights
        with pytest.raises(DataError, match="hash mismatch for member .*t0_f1.scnn"):
            E.ensemble_predict(loaded, {"godin": docs})

    def test_one_member_predicts_on_one_thread(self, tmp_path, toy_corpus, monkeypatch):
        from scnn import model as M

        _, docs, _ = toy_corpus
        _, manifest = self._saved_stack(tmp_path, k=1, folds=1)
        monkeypatch.setattr(M, "_PREDICT_CHUNK", 8)  # several chunks
        monkeypatch.setattr(E, "usable_cpus", lambda: 4)  # more CPUs than members
        counts = []
        forward = M.forward_batch

        def counted(*args, **kwargs):
            counts.append(threading.active_count())
            return forward(*args, **kwargs)

        monkeypatch.setattr(M, "forward_batch", counted)
        E.ensemble_predict(E.load_ensemble(manifest), {"godin": docs})
        assert len(counts) > 1 and set(counts) == {1}
