import concurrent.futures
import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

from conftest import synth_arrays, toy_hp
from scnn import metrics
from scnn import search as S
from scnn import synth
from scnn.corpus import stratified_kfold
from scnn.errors import DataError
from scnn.model import DEFAULT_SEARCH_DOMAINS, HP_FIELDS, TrainSchedule
from scnn.rng import Rng


class TestSearchSpace:
    def test_default_size(self):
        assert S.SearchSpace.default().size() == 16_128

    def test_descriptor_stable_and_sensitive(self):
        a = S.SearchSpace.default().descriptor()
        b = S.SearchSpace.default().descriptor()
        assert a == b
        c = S.SearchSpace.from_dict({"batch_size": [50]}).descriptor()
        assert c != a

    def test_override_subsets_default(self):
        space = S.SearchSpace.from_dict({"learning_rate": [0.001]})
        assert space.domains["learning_rate"] == (0.001,)
        assert space.domains["batch_size"] == DEFAULT_SEARCH_DOMAINS["batch_size"]

    def test_restricted_rejects_foreign_values(self):
        with pytest.raises(DataError, match="n_filters"):
            S.SearchSpace.from_dict({"n_filters": [4]})

    def test_unrestricted_accepts_toy_values(self):
        space = S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False)
        assert space.domains["n_filters"] == (4, 8)

    def test_unknown_field(self):
        with pytest.raises(DataError, match="unknown"):
            S.SearchSpace.from_dict({"bogus": [1]})

    def test_duplicates_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            S.SearchSpace.from_dict({"batch_size": [50, 50]})


class TestSampleConfig:
    def test_members_of_domains(self):
        space = S.SearchSpace.default()
        rng = Rng(0).substream("sampler")
        for _ in range(200):
            hp = S.sample_config(space, rng, seen=None)
            for name in HP_FIELDS:
                assert getattr(hp, name) in space.domains[name]

    def test_dedup(self):
        space = S.SearchSpace.from_dict({
            "adam_b2": [0.9], "n_dense_output": [100], "keep_prob": [0.4, 0.5],
            "batch_size": [50], "learning_rate": [0.001], "word_embedding": ["godin"],
            "n_filters": [100], "filter_sizes": [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]],
        })
        assert space.size() == 4
        seen = set()
        rng = Rng(1).substream("sampler")
        out = [S.sample_config(space, rng, seen) for _ in range(4)]
        assert len(set(out)) == 4
        with pytest.raises(DataError, match="exhausted"):
            S.sample_config(space, rng, seen)

    def test_marginals_uniform_chi_square(self):
        # 10^4 draws, dedup disabled: every field passes chi-square at 0.01
        space = S.SearchSpace.default()
        rng = Rng(12345).substream("sampler")
        draws = [S.sample_config(space, rng, seen=None) for _ in range(10_000)]
        for name in HP_FIELDS:
            counts = Counter(getattr(hp, name) for hp in draws)
            observed = [counts[v] for v in space.domains[name]]
            p = stats.chisquare(observed).pvalue
            assert p > 0.01, f"{name}: chi-square p={p}"

    def test_learning_rate_frequency(self):
        space = S.SearchSpace.default()
        rng = Rng(4).substream("sampler")
        draws = [S.sample_config(space, rng, seen=None) for _ in range(10_000)]
        freq = np.mean([hp.learning_rate == 0.0001 for hp in draws])
        assert abs(freq - 0.5) <= 0.02


class TestLeaderboardCsv:
    def _records(self):
        return [
            S.TrialRecord(0, toy_hp(), 0.75, "ok", 1.0),
            S.TrialRecord(1, toy_hp(n_filters=4), float("nan"), "failed: boom", 0.5),
            S.TrialRecord(2, toy_hp(), 0.9, "ok", 2.0),
        ]

    def test_round_trip_and_order(self):
        text = S.format_leaderboard_csv(self._records())
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(S.LEADERBOARD_HEADER)
        back = S.parse_leaderboard_csv(text)
        assert [r.trial_id for r in back] == [2, 0, 1]
        assert back[0].cv_score == 0.9
        assert back[0].hp == toy_hp()
        assert back[2].status == "failed: boom"
        assert np.isnan(back[2].cv_score)

    def test_wall_time_column_empty(self):
        text = S.format_leaderboard_csv(self._records())
        for line in text.strip().split("\n")[1:]:
            assert line.split(",")[3] == ""

    def test_bad_header_rejected(self):
        with pytest.raises(DataError):
            S.parse_leaderboard_csv("a,b,c\n1,2,3\n")

    def test_stable_under_reserialization(self):
        text = S.format_leaderboard_csv(self._records())
        again = S.format_leaderboard_csv(S.parse_leaderboard_csv(text))
        assert again == text


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    examples, docs, labels, test_ex, test_docs, test_labels = synth_arrays(300, 80, 40)
    folds = stratified_kfold(examples, k=5, seed=300)
    space = S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False)
    out = tmp_path_factory.mktemp("run")
    records = S.run_search(
        [ex.id for ex in examples], labels, {"godin": docs, "shin": docs},
        space, 4, folds, TrainSchedule(max_epochs=4, patience=2), seed=11,
        out_dir=str(out), keep_models=True,
    )
    return records, out, docs, labels, test_docs, test_labels


class TestRunSearch:
    def test_record_count_and_order(self, small_run):
        records, *_ = small_run
        assert len(records) == 4
        scores = [r.cv_score for r in records if r.ok]
        assert scores == sorted(scores, reverse=True)
        assert {r.trial_id for r in records} == {0, 1, 2, 3}

    def test_distinct_configs(self, small_run):
        records, *_ = small_run
        assert len({r.hp for r in records}) == len(records)

    def test_run_dir_layout(self, small_run):
        _, out, *_ = small_run
        assert (out / "leaderboard.csv").exists()
        assert (out / "manifest.json").exists()
        for tid in range(4):
            trial = out / "trials" / str(tid)
            assert (trial / "oof.tsv").exists()
            for fold in range(5):
                assert (trial / f"fold{fold}.scnn").exists()

    def test_manifest_content(self, small_run):
        _, out, *_ = small_run
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["n_trials"] == 4
        assert doc["folds_k"] == 5
        assert doc["seed"] == 11
        assert doc["space_descriptor"] == S.SearchSpace.from_dict(
            synth.TOY_SPACE, restricted=False
        ).descriptor()

    def test_leaderboard_matches_records(self, small_run):
        records, out, *_ = small_run
        back = S.load_leaderboard(str(out))
        assert [r.trial_id for r in back] == [r.trial_id for r in records]
        for a, b in zip(back, records):
            assert abs(a.cv_score - round(b.cv_score, 6)) < 1e-9

    def test_cv_scores_recomputable_from_oof(self, small_run):
        records, out, *_ = small_run
        for r in records:
            fe = S.load_trial_ensemble(str(out), r, k=5)
            assert abs(fe.cv_score - r.cv_score) <= 1e-6

    def test_tampered_oof_detected(self, small_run, tmp_path):
        records, out, *_ = small_run
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        oof = clone / "trials" / str(records[0].trial_id) / "oof.tsv"
        lines = oof.read_text().splitlines(keepends=True)
        parts = lines[0].rstrip("\n").split("\t")
        current = int(np.argmax([float(v) for v in parts[3:6]]))
        flipped = ["0.0"] * 3
        flipped[(current + 1) % 3] = "1.0"  # force a different prediction
        lines[0] = "\t".join(parts[:3] + flipped) + "\n"
        oof.write_text("".join(lines))
        loaded = S.parse_leaderboard_csv((clone / "leaderboard.csv").read_text())
        rec = next(r for r in loaded if r.trial_id == records[0].trial_id)
        with pytest.raises(DataError, match="does not match"):
            S.load_trial_ensemble(str(clone), rec, k=5)

    def test_parallelism_independent(self, small_run):
        records, out, docs, labels, *_ = small_run
        examples, docs2, labels2 = synth_arrays(300, 80)
        folds = stratified_kfold(examples, k=5, seed=300)
        space = S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False)
        par = S.run_search(
            [ex.id for ex in examples], labels2, {"godin": docs2, "shin": docs2},
            space, 4, folds, TrainSchedule(max_epochs=4, patience=2), seed=11,
            parallelism=4, keep_models=True,
        )
        for a, b in zip(records, par):
            assert a.trial_id == b.trial_id and a.hp == b.hp
            assert a.cv_score == b.cv_score
            np.testing.assert_array_equal(a.ensemble.oof_probs, b.ensemble.oof_probs)

    def test_failed_trial_recorded_and_search_continues(self, small_run, tmp_path):
        examples, docs, labels = synth_arrays(301, 60)
        folds = stratified_kfold(examples, k=5, seed=301)
        # batch_size larger than any fold's training split still works, but an
        # embedding name with no docs fails the trial at lookup time
        space = S.SearchSpace.from_dict(
            {**synth.TOY_SPACE, "word_embedding": ["godin", "missing"]},
            restricted=False,
        )
        with pytest.raises(DataError):
            S.run_search([ex.id for ex in examples], labels, {"godin": docs},
                         space, 2, folds, TrainSchedule(max_epochs=2), seed=0)

    def test_trial_failure_status(self, tmp_path):
        # force a mid-training numeric failure via an absurd learning rate
        examples, docs, labels = synth_arrays(302, 60)
        folds = stratified_kfold(examples, k=5, seed=302)
        space = S.SearchSpace.from_dict(
            {**synth.TOY_SPACE, "learning_rate": [1e30]}, restricted=False
        )
        with np.errstate(all="ignore"):
            records = S.run_search(
                [ex.id for ex in examples], labels, {"godin": docs, "shin": docs},
                space, 2, folds, TrainSchedule(max_epochs=2), seed=3,
                keep_models=True,
            )
        assert len(records) == 2
        statuses = {r.status.split(":")[0] for r in records}
        if "failed" in statuses:
            failed = [r for r in records if not r.ok]
            assert all(np.isnan(r.cv_score) for r in failed)
            # failures sort last
            assert records[-1] in failed


class TestProcessCount:
    """The process-count helper is pure: these tests start no processes."""

    @pytest.mark.parametrize("parallelism,n_trials,cpus,expected", [
        (1, 10, 8, 1),
        (2, 10, 8, 2),
        (4, 3, 8, 3),     # never more processes than trials
        (1000, 99, 2, 2),  # never more processes than CPUs
        (4, 10, None, 1),  # unknown CPU count runs serially
    ])
    def test_caps(self, monkeypatch, parallelism, n_trials, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert S.process_count(parallelism, n_trials) == expected

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_below_one(self, bad):
        with pytest.raises(ValueError, match="parallelism"):
            S.process_count(bad, 5)


class _RecordingPool(ProcessPoolExecutor):
    """Counts pools and records the BLAS variables each submit sees."""

    started = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _RecordingPool.started.append(kwargs["max_workers"])

    def submit(self, *args, **kwargs):
        _RecordingPool.env_at_submit = {k: os.environ.get(k) for k in S.BLAS_THREAD_VARS}
        return super().submit(*args, **kwargs)


def _failing_lr_search(out_dir, parallelism):
    """4 trials where trials 1 and 3 (lr 1e30) fail with a NaN."""
    examples, docs, labels = synth_arrays(302, 60)
    folds = stratified_kfold(examples, k=5, seed=302)
    space = S.SearchSpace.from_dict(
        {**synth.TOY_SPACE, "learning_rate": [0.01, 1e30]}, restricted=False
    )
    with np.errstate(all="ignore"):
        return S.run_search(
            [ex.id for ex in examples], labels, {"godin": docs, "shin": docs},
            space, 4, folds, TrainSchedule(max_epochs=2), seed=3,
            parallelism=parallelism, out_dir=str(out_dir), keep_models=True,
        )


def _tree_bytes(root):
    return {
        os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
        for d, _, files in os.walk(root) for f in files
    }


class TestProcessPool:
    def test_pool_matches_serial_bytes_and_failures(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # a pool even on one core
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        _RecordingPool.started.clear()
        serial = _failing_lr_search(tmp_path / "p1", 1)
        assert _RecordingPool.started == []
        pooled = _failing_lr_search(tmp_path / "p2", 2)
        assert _RecordingPool.started == [1]

        assert [r.status.split(":")[0] for r in serial] == ["ok", "ok", "failed", "failed"]
        for a, b in zip(serial, pooled):
            assert (a.trial_id, a.hp, a.status) == (b.trial_id, b.hp, b.status)
            assert a.cv_score == b.cv_score or (np.isnan(a.cv_score) and np.isnan(b.cv_score))
            if a.ok:
                np.testing.assert_array_equal(a.ensemble.oof_probs, b.ensemble.oof_probs)
            else:
                assert a.ensemble is None and b.ensemble is None
        for run in ("p1", "p2"):  # failed trials leave no trials/<id>/
            assert sorted(os.listdir(tmp_path / run / "trials")) == sorted(
                str(r.trial_id) for r in serial if r.ok)
        assert _tree_bytes(tmp_path / "p1") == _tree_bytes(tmp_path / "p2")
        assert not [p for p in _tree_bytes(tmp_path / "p2") if p.endswith(".tmp")]

    def test_environment_restored_after_pool_starts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        before = dict(os.environ)
        _failing_lr_search(tmp_path / "run", 2)
        assert _RecordingPool.env_at_submit == dict.fromkeys(S.BLAS_THREAD_VARS, "1")
        assert dict(os.environ) == before

    def test_environment_restored_on_error(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        with pytest.raises(RuntimeError):
            with S.single_thread_blas_env():
                assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
                raise RuntimeError("spawn failed")
        assert dict(os.environ) == before


def test_full_trial_budget_produces_dense_records():
    # the production run trains 99 ensembles; ids must be unique and dense
    examples, docs, labels = synth_arrays(500, 60)
    folds = stratified_kfold(examples, k=5, seed=500)
    space = S.SearchSpace.from_dict(
        {
            "adam_b2": [0.9, 0.999],
            "n_dense_output": [4, 8],
            "keep_prob": [0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            "batch_size": [50],
            "learning_rate": [0.001],
            "word_embedding": ["godin", "shin"],
            "n_filters": [2, 4],
            "filter_sizes": [[1, 2, 2, 2, 3], [1, 2, 3, 4, 5]],
        },
        restricted=False,
    )
    assert space.size() == 192
    records = S.run_search(
        [ex.id for ex in examples], labels, {"godin": docs, "shin": docs},
        space, 99, folds, TrainSchedule(max_epochs=1), seed=77,
    )
    assert len(records) == 99
    assert sorted(r.trial_id for r in records) == list(range(99))
    assert len({r.hp for r in records}) == 99


class TestTopKReport:
    def test_report_shape_and_k1(self, small_run):
        records, out, docs, labels, test_docs, test_labels = small_run
        ensembles = [r.ensemble for r in records if r.ok]
        text = S.top_k_report(ensembles, [1, 3], {"godin": test_docs, "shin": test_docs},
                              test_labels)
        lines = text.strip().split("\n")
        assert lines[0] == "series,key,cv_score,test_micro_f1_12"
        data = [line.split(",") for line in lines[1:]]
        individual = [d for d in data if d[0] == "individual"]
        stacked = [d for d in data if d[0] == "stacked"]
        assert len(individual) == len(ensembles)
        assert len(stacked) == 2
        # K=1 equals the best trial's own test score
        best_individual = individual[0]
        k1 = next(d for d in stacked if d[1] == "1")
        assert k1[3] == best_individual[3]

    def test_k_exceeds_trials(self, small_run):
        records, *_ , test_docs, test_labels = small_run
        ensembles = [r.ensemble for r in records if r.ok]
        with pytest.raises(ValueError):
            S.top_k_report(ensembles, [99], {"godin": test_docs, "shin": test_docs},
                           test_labels)


class TestStreamingSearch:
    """With an out_dir, each fold model is saved once it is trained and the
    search keeps ModelFiles, not tensors."""

    def _search(self, out_dir, n_trials=2):
        examples, docs, labels = synth_arrays(303, 60)
        folds = stratified_kfold(examples, k=5, seed=303)
        space = S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False)
        return S.run_search(
            [ex.id for ex in examples], labels, {"godin": docs, "shin": docs},
            space, n_trials, folds, TrainSchedule(max_epochs=2), seed=5,
            out_dir=str(out_dir), keep_models=True,
        )

    def test_one_trained_model_alive(self, tmp_path, monkeypatch):
        import weakref

        from scnn import ensemble as E

        real_build, real_train, real_save = E.build_model, E.train, S.save_model
        refs, alive_in_training, alive_at_save = [], [], []

        def alive():
            return sum(ref() is not None for ref in refs)

        def tracking_build(*args, **kwargs):
            net = real_build(*args, **kwargs)
            refs.append(weakref.ref(net))
            return net

        def counting_train(*args, **kwargs):
            alive_in_training.append(alive())
            return real_train(*args, **kwargs)

        def counting_save(model, path):
            alive_at_save.append(alive())
            real_save(model, path)

        monkeypatch.setattr(E, "build_model", tracking_build)
        monkeypatch.setattr(E, "train", counting_train)
        monkeypatch.setattr(S, "save_model", counting_save)
        records = self._search(tmp_path / "run")
        # a fold trains beside at most the previous fold's model, and each
        # model is saved with no other alive
        assert alive_in_training == [1, 2, 2, 2, 2] * 2
        assert alive_at_save == [1] * 10
        for r in records:
            assert [m.path for m in r.ensemble.members] == [
                str(tmp_path / "run" / "trials" / str(r.trial_id) / f"fold{i}.scnn")
                for i in range(5)]

    def test_failure_after_saved_folds_removes_trial_dir(self, tmp_path, monkeypatch):
        from scnn import ensemble as E
        from scnn.errors import NumericError

        real_train = E.train
        calls = []

        def failing_third_fold(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # trial 0 fold 2: folds 0 and 1 are on disk
                raise NumericError("non-finite loss")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(E, "train", failing_third_fold)
        records = self._search(tmp_path / "run")
        failed = [r for r in records if not r.ok]
        assert [r.trial_id for r in failed] == [0]
        assert "fold 2: non-finite loss" in failed[0].status
        assert os.listdir(tmp_path / "run" / "trials") == ["1"]

    def test_report_predicts_each_trial_once(self, small_run, monkeypatch):
        from scnn import ensemble as E

        records, _, _, _, test_docs, test_labels = small_run
        ensembles = [r.ensemble for r in records if r.ok]
        docs_by_name = {"godin": test_docs, "shin": test_docs}
        calls = Counter()

        def counting_predict(fe, docs):
            calls[fe.trial_id] += 1
            return E.ensemble_predict(fe, docs)

        monkeypatch.setattr(S, "ensemble_predict", counting_predict)
        text = S.top_k_report(ensembles, [1, 2, 3], docs_by_name, test_labels)
        assert set(calls.values()) == {1} and len(calls) == len(ensembles)
        for line in text.splitlines()[-3:]:  # the stacked rows
            k = int(line.split(",")[1])
            probs = E.stacked_predict(E.stack_top_k(ensembles, k), docs_by_name)
            assert line.split(",")[3] == f"{metrics.micro_f1_12(test_labels, probs):.6f}"
