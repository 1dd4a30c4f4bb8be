import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import synth_arrays, toy_hp
from scnn import metrics
from scnn import search as S
from scnn import synth
from scnn import workers as W
from scnn.corpus import FoldAssignment, stratified_kfold
from scnn.errors import DataError
from scnn.model import DEFAULT_SEARCH_DOMAINS, HP_FIELDS, HyperParams, TrainSchedule
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

    def test_descriptors_golden(self):
        assert S.SearchSpace.default().descriptor() == (
            "b59dc7d0e98d39459cffdb55c1a26bf34c239c3978d469c21b95ff7faf2d28bd")
        assert S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False).descriptor() == (
            "7c82381ece0a41d87fcacff2710f86837c1e523792c63df2558124cdc5ed5260")

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

    @pytest.mark.parametrize("doc", [5, [["n_filters", [4]]], None])
    def test_non_object_rejected(self, doc):
        with pytest.raises(DataError, match="search space is not a JSON object"):
            S.SearchSpace.from_dict(doc, restricted=False)

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
            S.Trial(0, toy_hp(), 0.75, "ok"),
            S.Trial(1, toy_hp(n_filters=4), float("nan"), "failed: boom"),
            S.Trial(2, toy_hp(), 0.9, "ok"),
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

    def test_golden_text(self):
        records = [
            S.Trial(3, HyperParams(0.9, 200, 0.5, 100, 0.001, "shin", 300,
                                         (2, 3, 4, 5, 6)), 0.8125, "ok"),
            S.Trial(1, HyperParams(0.999, 16, 0.9, 10, 1e-05, "godin", 8,
                                         (1, 2, 2, 2, 3)),
                          float("nan"), 'failed: fold 0: bad "x", y\nz'),
            S.Trial(0, HyperParams(0.999, 400, 0.4, 150, 0.0001, "godin", 100,
                                         (4, 5, 5, 5, 6)), 1 / 3, "ok"),
            S.Trial(2, HyperParams(0.9, 8, 0.8, 50, 0.001, "godin", 4,
                                         (1, 2, 3, 4, 5)), 1 / 3, "ok"),
        ]
        assert S.format_leaderboard_csv(records) == (
            "trial_id,cv_score,status,wall_time_s,adam_b2,n_dense_output,keep_prob,"
            "batch_size,learning_rate,word_embedding,n_filters,filter_sizes\n"
            "3,0.812500,ok,,0.9,200,0.5,100,0.001,shin,300,2-3-4-5-6\n"
            "0,0.333333,ok,,0.999,400,0.4,150,0.0001,godin,100,4-5-5-5-6\n"
            "2,0.333333,ok,,0.9,8,0.8,50,0.001,godin,4,1-2-3-4-5\n"
            '1,,"failed: fold 0: bad ""x"", y z",,0.999,16,0.9,10,1e-05,godin,8,1-2-2-2-3\n'
        )

    def test_sampled_points_round_trip(self):
        rng = Rng(9).substream("sampler")
        records = [S.Trial(i, S.sample_config(S.SearchSpace.default(), rng, None),
                           0.5, "ok") for i in range(200)]
        text = S.format_leaderboard_csv(records)
        back = S.parse_leaderboard_csv(text)
        assert [r.hp for r in back] == [r.hp for r in records]
        assert S.format_leaderboard_csv(back) == text
        for r in records:
            assert HyperParams.from_dict(r.hp.to_dict()) == r.hp

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
    folds = stratified_kfold([ex.label for ex in examples], k=5, seed=300)
    space = S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False)
    out = tmp_path_factory.mktemp("run")
    records = S.run_search(
        [ex.id for ex in examples], labels, {"godin": docs, "shin": docs},
        space, 4, folds, TrainSchedule(max_epochs=4, patience=2), seed=11,
        out_dir=str(out),
    )
    return records, out, docs, labels, test_docs, test_labels


def _ensembles(records, run_dir):
    return [S.load_trial_ensemble(str(run_dir), r, k=5) for r in records if r.ok]


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
        _, back = S.load_run(str(out))
        assert [r.trial_id for r in back] == [r.trial_id for r in records if r.ok]
        assert [r.hp for r in back] == [r.hp for r in records if r.ok]

    def test_cv_scores_recomputable_from_oof(self, small_run):
        records, out, *_ = small_run
        manifest, back = S.load_run(str(out))
        assert manifest["n_trials"] == len(records)
        for a, b in zip(back, records):
            assert abs(a.cv_score - b.cv_score) <= 1e-6

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
        with pytest.raises(DataError, match="does not match"):
            S.load_run(str(clone))

    def test_oof_fold_column_checked_against_the_manifest(self, small_run, tmp_path):
        _, out, *_ = small_run
        import shutil

        for key, shift, named in [("fold_seed", 1, "oof.tsv: the fold column is not the split"),
                                  ("folds_k", 94, "fewer than k=99")]:
            clone = tmp_path / key
            shutil.copytree(out, clone)
            doc = json.loads((clone / "manifest.json").read_text())
            doc[key] += shift
            (clone / "manifest.json").write_text(json.dumps(doc))
            with pytest.raises(DataError, match=named):
                S.load_run(str(clone))

    def test_parallelism_independent(self, small_run, tmp_path):
        records, out, docs, labels, *_ = small_run
        examples, docs2, labels2 = synth_arrays(300, 80)
        folds = stratified_kfold([ex.label for ex in examples], k=5, seed=300)
        space = S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False)
        par = S.run_search(
            [ex.id for ex in examples], labels2, {"godin": docs2, "shin": docs2},
            space, 4, folds, TrainSchedule(max_epochs=4, patience=2), seed=11,
            out_dir=str(tmp_path / "p4"), parallelism=4,
        )
        for a, b in zip(records, par):
            assert a.trial_id == b.trial_id and a.hp == b.hp
            assert a.cv_score == b.cv_score
        assert _tree_bytes(tmp_path / "p4") == _tree_bytes(out)

    def test_failed_trial_recorded_and_search_continues(self, small_run, tmp_path):
        examples, docs, labels = synth_arrays(301, 60)
        folds = stratified_kfold([ex.label for ex in examples], k=5, seed=301)
        # batch_size larger than any fold's training split still works, but an
        # embedding name with no docs fails the trial at lookup time
        space = S.SearchSpace.from_dict(
            {**synth.TOY_SPACE, "word_embedding": ["godin", "missing"]},
            restricted=False,
        )
        with pytest.raises(DataError):
            S.run_search([ex.id for ex in examples], labels, {"godin": docs},
                         space, 2, folds, TrainSchedule(max_epochs=2), seed=0,
                         out_dir=str(tmp_path))

    def test_trial_failure_status(self, tmp_path):
        # force a mid-training numeric failure via an absurd learning rate
        examples, docs, labels = synth_arrays(302, 60)
        folds = stratified_kfold([ex.label for ex in examples], k=5, seed=302)
        space = S.SearchSpace.from_dict(
            {**synth.TOY_SPACE, "learning_rate": [1e30]}, restricted=False
        )
        with np.errstate(all="ignore"):
            records = S.run_search(
                [ex.id for ex in examples], labels, {"godin": docs, "shin": docs},
                space, 2, folds, TrainSchedule(max_epochs=2), seed=3,
                out_dir=str(tmp_path),
            )
        assert len(records) == 2
        statuses = {r.status.split(":")[0] for r in records}
        if "failed" in statuses:
            failed = [r for r in records if not r.ok]
            assert all(np.isnan(r.cv_score) for r in failed)
            # failures sort last
            assert records[-1] in failed


class TestPlanUnits:
    """The unit plan is pure: these tests train nothing."""

    def test_longest_first_ties_by_trial_and_fold(self):
        sizes = {0: (4, (1, 2, 2, 2, 3)), 1: (8, (1, 2, 3, 4, 5)),
                 2: (4, (1, 2, 3, 4, 5)), 3: (6, (1, 2, 2, 2, 3))}  # costs 40, 120, 60, 60
        planned = [(tid, toy_hp(n_filters=f, filter_sizes=widths))
                   for tid, (f, widths) in sizes.items()]
        units = S.plan_units(planned, 3)
        assert [(tid, fold) for tid, _, fold in units] == [
            (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
            (3, 0), (3, 1), (3, 2), (0, 0), (0, 1), (0, 2)]
        assert all(hp == dict(planned)[tid] for tid, hp, _ in units)

    @pytest.mark.parametrize("n_trials,k", [(1, 5), (3, 5), (7, 2)])
    def test_covers_every_fold_of_every_trial_once(self, n_trials, k):
        space = S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False)
        sampler = Rng(9).substream("sampler")
        planned = [(tid, S.sample_config(space, sampler, set())) for tid in range(n_trials)]
        units = S.plan_units(planned, k)
        assert Counter((tid, fold) for tid, _, fold in units) == Counter(
            (tid, fold) for tid in range(n_trials) for fold in range(k))
        costs = [hp.n_filters * sum(hp.filter_sizes) for _, hp, _ in units]
        assert costs == sorted(costs, reverse=True)


def _cpus(monkeypatch, n):
    """Make ``n`` CPUs usable by this process, whichever way it counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


class TestProcessCount:
    """The process-count helper is pure: these tests start no processes."""

    @pytest.mark.parametrize("parallelism,n_units,cpus,expected", [
        (1, 10, 8, 1),
        (2, 10, 8, 2),
        (4, 3, 8, 3),     # never more processes than units
        (1000, 99, 2, 2),  # never more processes than CPUs
        (4, 10, None, 1),  # unknown CPU count runs serially
    ])
    def test_caps(self, monkeypatch, parallelism, n_units, cpus, expected):
        # without affinity masks the CPU count is the cap
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert S.process_count(parallelism, n_units) == expected

    @pytest.mark.parametrize("usable,expected", [({3}, 1), ({0, 5}, 2), (set(range(8)), 4)])
    def test_affinity_caps_below_cpu_count(self, monkeypatch, usable, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
        assert S.process_count(4, 15) == expected

    def test_one_process_off_linux(self, monkeypatch):
        _cpus(monkeypatch, 4)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert S.process_count(4, 10) == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_below_one(self, bad):
        with pytest.raises(ValueError, match="parallelism"):
            S.process_count(bad, 5)


def _record_forks(monkeypatch) -> list:
    """The list to which each worker run_plan forks adds its share."""
    forked, fork = [], W._fork

    def recording(task, share, pipes):
        forked.append(share)
        return fork(task, share, pipes)

    monkeypatch.setattr(W, "_fork", recording)
    return forked


def _failing_lr_search(out_dir, parallelism):
    """4 trials where trials 1 and 3 (lr 1e30) fail with a NaN."""
    examples, docs, labels = synth_arrays(302, 60)
    folds = stratified_kfold([ex.label for ex in examples], k=5, seed=302)
    space = S.SearchSpace.from_dict(
        {**synth.TOY_SPACE, "learning_rate": [0.01, 1e30]}, restricted=False
    )
    with np.errstate(all="ignore"):
        return S.run_search(
            [ex.id for ex in examples], labels, {"godin": docs, "shin": docs},
            space, 4, folds, TrainSchedule(max_epochs=2), seed=3,
            parallelism=parallelism, out_dir=str(out_dir),
        )


def _tree_bytes(root):
    return {
        os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
        for d, _, files in os.walk(root) for f in files
    }


def _one_trial_search(out_dir, parallelism, edit_folds=lambda folds: folds):
    examples, docs, labels = synth_arrays(304, 60)
    folds = edit_folds(stratified_kfold(labels, k=5, seed=304))
    space = S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False)
    return S.run_search(
        [ex.id for ex in examples], labels, {"godin": docs, "shin": docs},
        space, 1, folds, TrainSchedule(max_epochs=2), seed=4,
        parallelism=parallelism, out_dir=str(out_dir),
    )


class TestProcessPool:
    """search's units on workers that run_plan forks, one per share."""

    def test_pool_matches_serial_bytes_and_failures(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 4)  # a worker even on one core
        forked = _record_forks(monkeypatch)
        serial = _failing_lr_search(tmp_path / "p1", 1)
        assert forked == []
        pooled = _failing_lr_search(tmp_path / "p2", 2)
        assert len(forked) == 1

        assert [r.status.split(":")[0] for r in serial] == ["ok", "ok", "failed", "failed"]
        for a, b in zip(serial, pooled):
            assert (a.trial_id, a.hp, a.status) == (b.trial_id, b.hp, b.status)
            assert a.cv_score == b.cv_score or (np.isnan(a.cv_score) and np.isnan(b.cv_score))
        for run in ("p1", "p2"):  # failed trials leave no trials/<id>/
            assert sorted(os.listdir(tmp_path / run / "trials")) == sorted(
                str(r.trial_id) for r in serial if r.ok)
        assert _tree_bytes(tmp_path / "p1") == _tree_bytes(tmp_path / "p2")
        assert not [p for p in _tree_bytes(tmp_path / "p2") if p.endswith(".tmp")]

    def test_one_trial_uses_two_processes(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 4)
        forked = _record_forks(monkeypatch)

        def refuse(inputs):  # a forked worker inherits the inputs: nothing pickles them
            raise AssertionError("TrialInputs pickled")

        monkeypatch.setattr(S.TrialInputs, "__reduce__", refuse)
        runs = {p: _one_trial_search(tmp_path / f"p{p}", p) for p in (1, 2)}
        assert [[fold for _, _, fold in share] for share in forked] == [[1, 3]]  # one worker
        (serial,), (pooled,) = runs[1], runs[2]
        assert serial.ok and (serial.trial_id, serial.hp, serial.status, serial.cv_score) == (
            pooled.trial_id, pooled.hp, pooled.status, pooled.cv_score)
        assert sorted(os.listdir(tmp_path / "p2" / "trials" / "0")) == [
            f"fold{i}.scnn" for i in range(5)] + ["oof.tsv"]
        assert _tree_bytes(tmp_path / "p1") == _tree_bytes(tmp_path / "p2")

    def test_middle_fold_failing_in_a_worker_reports_as_serial(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 4)
        # folds 1 and 2 hold no example, so their dev sets are empty; at
        # parallelism 2 the worker runs units 1 and 3 (folds 1 and 3)
        empty = lambda folds: FoldAssignment(
            tuple(0 if f in (1, 2) else f for f in folds.fold_of), folds.k, folds.seed)
        runs = {p: _one_trial_search(tmp_path / f"p{p}", p, empty) for p in (1, 2)}
        for (record,) in runs.values():
            assert record.status == "failed: fold 1: empty dev set"
            assert np.isnan(record.cv_score)
        for p in (1, 2):
            assert os.listdir(tmp_path / f"p{p}" / "trials") == []
        assert _tree_bytes(tmp_path / "p1") == _tree_bytes(tmp_path / "p2")

    def test_worker_dying_at_start_fails_the_search(self, tmp_path):
        # a worker that dies before it runs a unit must fail the search with
        # WorkerDied, naming it and its exit status, not leave the caller
        # waiting on it for good
        script = textwrap.dedent(f"""
            import os, sys
            sys.path[:0] = [{str(Path(__file__).parent)!r},
                            {str(Path(__file__).parent.parent / "src")!r}]
            from conftest import synth_arrays
            from scnn import search as S, synth, workers as W
            from scnn.corpus import stratified_kfold
            from scnn.model import TrainSchedule

            examples, docs, labels = synth_arrays(306, 60)
            os.sched_getaffinity, os.cpu_count = (lambda pid: {{0, 1}}), (lambda: 2)
            W._start_worker = lambda caller: os._exit(1)  # the forked worker runs it
            try:
                S.run_search([ex.id for ex in examples], labels,
                             {{"godin": docs, "shin": docs}},
                             S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False),
                             2, stratified_kfold(labels, k=5, seed=306),
                             TrainSchedule(max_epochs=1), seed=1,
                             out_dir=os.path.join({str(tmp_path)!r}, "run"), parallelism=2)
            except W.WorkerDied as exc:
                sys.exit(0 if "exit status 1" in str(exc) else 2)
            sys.exit(1)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_worker_units_run_on_the_callers_blas_thread_count(self, tmp_path, monkeypatch):
        from scnn.cli import _openblas_threads

        if _openblas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread count")
        get, set_count = _openblas_threads()
        _cpus(monkeypatch, 4)
        log = tmp_path / "units.log"
        run_unit = S.run_unit

        def logged(*args):  # a forked worker inherits this patch
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {get()}\n")
            return run_unit(*args)

        monkeypatch.setattr(S, "run_unit", logged)
        before = get()
        try:
            for threads in (1, 2):
                set_count(threads)
                log.write_text("")
                _one_trial_search(tmp_path / f"t{threads}", 2)
                units = [line.split() for line in log.read_text().splitlines()]
                assert {pid for pid, _ in units} - {str(os.getpid())}, "no unit ran in a worker"
                assert {int(count) for _, count in units} == {threads}
        finally:
            set_count(before)

    @pytest.mark.parametrize("caller_alive", [True, False], ids=["alive", "dead"])
    def test_worker_ends_with_its_caller(self, caller_alive):
        # run in a child of this process, as each worker runs it once forked
        script = textwrap.dedent(f"""
            import ctypes, os, signal, sys
            sys.path[:0] = [{str(Path(__file__).parent.parent / "src")!r}]
            from scnn import workers as W

            W._start_worker(int(sys.argv[1]))
            got = ctypes.c_int()
            ctypes.CDLL(None).prctl(2, ctypes.byref(got), 0, 0, 0)  # PR_GET_PDEATHSIG
            sys.exit(0 if got.value == signal.SIGTERM else 5)
        """)
        caller = os.getpid() if caller_alive else 1  # one that died before the call
        proc = subprocess.run([sys.executable, "-c", script, str(caller)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == (0 if caller_alive else 1), proc.stderr


class TestUnits:
    def test_consecutive_units_of_one_shape_share_buffers(self, tmp_path, monkeypatch):
        from scnn import model as M

        examples, docs, labels = synth_arrays(305, 60)
        folds = stratified_kfold([ex.label for ex in examples], k=5, seed=305)
        inputs = S.TrialInputs(
            ids=[ex.id for ex in examples], labels=labels,
            docs_by_name={"godin": docs, "shin": docs}, folds=folds,
            sched=TrainSchedule(max_epochs=2), seed=6, out_dir=str(tmp_path),
        )
        hp = toy_hp(batch_size=20)
        units = [(0, hp, 0), (0, hp, 3),
                 (1, toy_hp(batch_size=20, adam_b2=0.9, keep_prob=0.5), 2),  # same shapes
                 (2, toy_hp(batch_size=20, n_filters=3), 1)]
        made = []
        real = M.train_buffers
        monkeypatch.setattr(M, "train_buffers", lambda model: made.append(1) or real(model))
        shared = list(S._run_units(inputs, units))
        assert len(made) == 2  # one set for the first three units, one for the last
        for (tid, _, fold), result in zip(units, shared):
            model = tmp_path / "trials" / str(tid) / f"fold{fold}.scnn"
            saved = model.read_bytes()
            (alone,) = S._run_units(inputs, [(tid, _, fold)])
            assert result.error is None and result.fold == fold
            # a unit returns only its held-out rows
            assert len(result.oof_rows) == folds.fold_of.count(fold)
            np.testing.assert_array_equal(result.oof_rows, alone.oof_rows)
            assert model.read_bytes() == saved


def test_full_trial_budget_produces_dense_records(tmp_path):
    # the production run trains 99 ensembles; ids must be unique and dense
    examples, docs, labels = synth_arrays(500, 60)
    folds = stratified_kfold([ex.label for ex in examples], k=5, seed=500)
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
        space, 99, folds, TrainSchedule(max_epochs=1), seed=77, out_dir=str(tmp_path),
    )
    assert len(records) == 99
    assert sorted(r.trial_id for r in records) == list(range(99))
    assert len({r.hp for r in records}) == 99


class TestTopKReport:
    def test_report_shape_and_k1(self, small_run):
        records, out, docs, labels, test_docs, test_labels = small_run
        ensembles = _ensembles(records, out)
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
        records, out, *_ , test_docs, test_labels = small_run
        ensembles = _ensembles(records, out)
        with pytest.raises(ValueError):
            S.top_k_report(ensembles, [99], {"godin": test_docs, "shin": test_docs},
                           test_labels)


class TestStreamingSearch:
    """Each fold is one unit, in plan order at every process count; its
    model is saved once it is trained and freed before the next unit."""

    def _search(self, out_dir, n_trials=2):
        examples, docs, labels = synth_arrays(303, 60)
        folds = stratified_kfold([ex.label for ex in examples], k=5, seed=303)
        space = S.SearchSpace.from_dict(synth.TOY_SPACE, restricted=False)
        return S.run_search(
            [ex.id for ex in examples], labels, {"godin": docs, "shin": docs},
            space, n_trials, folds, TrainSchedule(max_epochs=2), seed=5,
            out_dir=str(out_dir),
        )

    @staticmethod
    def _plan(records):
        return S.plan_units(sorted((r.trial_id, r.hp) for r in records), 5)

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
        # every fold trains and is saved with no other model alive
        assert alive_in_training == [1] * 10
        assert alive_at_save == [1] * 10
        for r in records:
            assert sorted(os.listdir(tmp_path / "run" / "trials" / str(r.trial_id))) == [
                f"fold{i}.scnn" for i in range(5)] + ["oof.tsv"]

    def test_units_run_in_plan_order(self, tmp_path, monkeypatch):
        real_run_unit = S.run_unit
        seen = []

        def recording_run_unit(inputs, tid, hp, fold, buffers):
            seen.append((tid, fold))
            return real_run_unit(inputs, tid, hp, fold, buffers)

        monkeypatch.setattr(S, "run_unit", recording_run_unit)
        records = self._search(tmp_path / "run", n_trials=3)
        assert seen == [(tid, fold) for tid, _, fold in self._plan(records)]

    def test_each_trial_logged_before_the_next_starts(self, tmp_path, monkeypatch, caplog):
        import logging

        events = []
        real_run_unit = S.run_unit

        def recording_run_unit(inputs, tid, hp, fold, buffers):
            events.append(f"unit {tid}")
            return real_run_unit(inputs, tid, hp, fold, buffers)

        class Recorder(logging.Handler):
            def emit(self, record):
                events.append(record.getMessage().split(" cv_score")[0])

        monkeypatch.setattr(S, "run_unit", recording_run_unit)
        caplog.set_level(logging.INFO, logger=S.logger.name)
        handler = Recorder()
        S.logger.addHandler(handler)
        try:
            records = self._search(tmp_path / "run")
        finally:
            S.logger.removeHandler(handler)
        first, second = [tid for tid, _, fold in self._plan(records) if fold == 0]
        assert events == [f"unit {first}"] * 5 + [f"trial {first}"] + [
            f"unit {second}"] * 5 + [f"trial {second}"]

    def test_failure_after_saved_folds_removes_trial_dir(self, tmp_path, monkeypatch):
        from scnn import ensemble as E
        from scnn.errors import NumericError

        real_train = E.train
        calls = []

        def failing_third_fold(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # the first trial's fold 2: folds 0 and 1 are on disk
                raise NumericError("non-finite loss")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(E, "train", failing_third_fold)
        records = self._search(tmp_path / "run")
        first, second = dict.fromkeys(tid for tid, _, _ in self._plan(records))
        failed = [r for r in records if not r.ok]
        assert [r.trial_id for r in failed] == [first]
        assert "fold 2: non-finite loss" in failed[0].status
        assert len(calls) == 10  # the failing trial's later folds still train
        assert os.listdir(tmp_path / "run" / "trials") == [str(second)]

    def test_report_predicts_each_trial_once(self, small_run, tmp_path, monkeypatch):
        from scnn import ensemble as E

        records, out, _, _, test_docs, test_labels = small_run
        ensembles = _ensembles(records, out)
        docs_by_name = {"godin": test_docs, "shin": test_docs}
        _cpus(monkeypatch, 2)
        log, member_probs = tmp_path / "members.log", E._member_probs

        def logged(trial, member, docs):  # a forked worker inherits it
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {member.path}\n")
            return member_probs(trial, member, docs)

        monkeypatch.setattr(E, "_member_probs", logged)
        calls, predict = [], S.ensemble_predict
        monkeypatch.setattr(S, "ensemble_predict", lambda *args: calls.append(args) or predict(*args))
        text = S.top_k_report(ensembles, [1, 2, 3], docs_by_name, test_labels)
        # one call for every trial, each member predicted once, on the
        # calling process and one worker
        assert [[t.trial_id for t in trials] for trials, _ in calls] == [
            [t.trial_id for t in E.rank(ensembles)]]
        ran = [line.split() for line in log.read_text().splitlines()]
        assert sorted(path for _, path in ran) == sorted(
            m.path for fe in ensembles for m in fe.members)
        assert {pid for pid, _ in ran} - {str(os.getpid())} and len({pid for pid, _ in ran}) == 2
        for line in text.splitlines()[-3:]:  # the stacked rows
            k = int(line.split(",")[1])
            probs = E.stacked_predict(E.stack_top_k(ensembles, k), docs_by_name)
            assert line.split(",")[3] == f"{metrics.micro_f1_12(test_labels, probs):.6f}"


def test_oof_gold_label_out_of_range_named(tmp_path):
    path = tmp_path / "oof.tsv"
    path.write_text("a\t0\t1\t0.2\t0.3\t0.5\n\nb\t1\t7\t0.2\t0.3\t0.5\n")
    with pytest.raises(DataError, match=r"oof.tsv: label out of range at line 3"):
        S.parse_oof_tsv(path)


def test_oof_blank_lines_skipped(tmp_path):
    path = tmp_path / "oof.tsv"
    path.write_text("a\t0\t1\t0.2\t0.3\t0.5\n\nb\t1\t3\t0.25\t0.25\t0.5\n\n")
    ids, labels, folds, probs = S.parse_oof_tsv(path)
    assert ids == ["a", "b"] and labels.tolist() == [1, 3] and folds == [0, 1]
    assert probs.tolist() == [[0.2, 0.3, 0.5], [0.25, 0.25, 0.5]]
