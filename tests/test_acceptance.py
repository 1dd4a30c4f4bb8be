"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or on failure).

The desk-scale pipeline criteria drive the installed CLI through
``python -m scnn`` in mirrored directory layouts so that byte-identity
comparisons are meaningful across runs.
"""

import json
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import NetMember, as_documents, save_net, synth_arrays, toy_hp
from scnn import ensemble as E
from scnn import metrics, model as M, search as S
from scnn.corpus import Example, parse_dataset, stratified_kfold, write_dataset
from scnn.embeddings import load_embeddings, write_embeddings
from scnn.gradcheck import TOLERANCE, run_gradcheck
from scnn.model import TrainSchedule, build_model, load_model, save_model
from scnn.rng import Rng
from scnn.synth import make_embedding_table


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {num:2d} {title}")
        raise
    print(f"[PASS] {num:2d} {title}")


# --------------------------------------------------------------------------
# 1. metric identities against the published precision/recall/F1 triples
# --------------------------------------------------------------------------

def test_01_metric_identities():
    with criterion(1, "micro/per-class F1 identities reproduce published values"):
        micro = [
            (0.725, 0.664, 0.693),  # top-20 stack
            (0.721, 0.661, 0.690),  # top-10 stack
            (0.716, 0.664, 0.689),  # top-3 stack
        ]
        for p, r, want in micro:
            assert abs(metrics.f1_from_pr(p, r) - want) <= 0.0005, (p, r, want)
        assert abs(metrics.f1_from_pr(0.712, 0.690) - 0.701) <= 0.0005


# --------------------------------------------------------------------------
# 2. gradient oracle
# --------------------------------------------------------------------------

def test_02_gradient_oracle():
    with criterion(2, "25 random tiny models match finite differences < 1e-4"):
        start = time.monotonic()
        worst = run_gradcheck(seed=20240817, cases=25, step=1e-5)
        elapsed = time.monotonic() - start
        assert worst < TOLERANCE, f"max relative error {worst:.3e}"
        assert elapsed < 60, f"took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 3. overfit check
# --------------------------------------------------------------------------

def test_03_overfit_separable_corpus():
    with criterion(3, "30-doc separable corpus memorized within 200 epochs"):
        start = time.monotonic()
        _, docs, labels = synth_arrays(99, 30)
        hp = toy_hp(keep_prob=1.0, batch_size=10)
        net = build_model(hp, 16, seed=5)
        tm = M.train(net, docs, labels, docs, labels,
                     TrainSchedule(max_epochs=200, patience=10 ** 9),
                     Rng(5).substream("train"))
        pred = metrics.argmax_labels(M.predict_proba(tm.weights, docs))
        accuracy = float((pred == labels).mean())
        elapsed = time.monotonic() - start
        assert tm.epochs_run <= 200
        assert accuracy == 1.0, f"training accuracy {accuracy}"
        assert elapsed < 30, f"took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 4 + 5. desk-scale CLI pipeline, scores and byte-identical determinism
# --------------------------------------------------------------------------

def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "scnn"] + [str(a) for a in args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, f"{args}\nstdout:{proc.stdout}\nstderr:{proc.stderr}"
    return proc


def _pipeline(root, parallelism=1):
    """synth -> search -> stack -> predict -> evaluate under one root."""
    corpus = root / "corpus"
    emb = f"godin={corpus}/embeddings.txt,shin={corpus}/embeddings.txt"
    _cli("synth", "--out", corpus, "--seed", 42)
    _cli("search", "--train", corpus / "train.tsv", "--embeddings", emb,
         "--trials", 8, "--folds", 5, "--seed", 42, "--out", root / "run",
         "--config", corpus / "space.json", "--unrestricted-space",
         "--parallelism", parallelism)
    _cli("stack", "--run", root / "run", "--top-k", 3, "--out", root / "stacks",
         "--test", corpus / "test.tsv", "--embeddings", emb)
    _cli("predict", "--manifest", root / "stacks" / "stack_top3.json",
         "--test", corpus / "test.tsv", "--embeddings", emb,
         "--out", root / "predictions.tsv")
    _cli("evaluate", "--gold", corpus / "test.tsv", "--pred", root / "predictions.tsv",
         "--out", root / "metrics.json")
    return root


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    runs = {}
    for name, parallelism in (("a", 1), ("b", 1), ("c", 4)):
        root = tmp_path_factory.mktemp("pipe") / "work"
        root.mkdir()
        start = time.monotonic()
        _pipeline(root, parallelism)
        runs[name] = (root, time.monotonic() - start)
    return runs


def test_04_desk_scale_pipeline_scores(pipelines):
    with criterion(4, "desk pipeline: test micro-F1 >= 0.90, stack competitive"):
        root, elapsed = pipelines["a"]
        assert elapsed < 600, f"pipeline took {elapsed:.0f}s"
        report = json.loads((root / "metrics.json").read_text())
        assert report["f1_m"] >= 0.90, f"stacked micro-F1 {report['f1_m']}"
        rows = [line.split(",") for line in
                (root / "stacks" / "report.csv").read_text().strip().split("\n")[1:]]
        individual = [float(r[3]) for r in rows if r[0] == "individual"]
        stacked3 = next(float(r[3]) for r in rows if r[0] == "stacked" and r[1] == "3")
        assert len(individual) == 8
        assert stacked3 >= max(individual) - 0.05, (stacked3, max(individual))
        manifest = json.loads((root / "stacks" / "stack_top3.json").read_text())
        assert len(manifest["members"]) == 15  # 3 fold-ensembles x 5 models


def test_05_byte_identical_determinism(pipelines):
    with criterion(5, "same seed and parallelism 4 both byte-identical"):
        base, _ = pipelines["a"]
        for other_name in ("b", "c"):
            other, _ = pipelines[other_name]
            for rel in ("run/leaderboard.csv", "run/manifest.json",
                        "stacks/stack_top3.json", "predictions.tsv", "metrics.json"):
                a = (base / rel).read_bytes()
                b = (other / rel).read_bytes()
                assert a == b, f"{rel} differs between a and {other_name}"
            for trial in range(8):
                for fold in range(5):
                    rel = f"run/trials/{trial}/fold{fold}.scnn"
                    assert (base / rel).read_bytes() == (other / rel).read_bytes(), rel


# --------------------------------------------------------------------------
# 6. ensemble algebra on randomized instances
# --------------------------------------------------------------------------

class _Stub:
    def __init__(self, probs):
        self.probs = probs

    def predict_proba(self, docs):
        return self.probs[: len(docs)]


def _random_fe(rng, trial_id, n_docs, n_members=5, cv_score=None):
    members = []
    for _ in range(n_members):
        raw = rng.uniform(0.01, 1.0, (n_docs, 3))
        members.append(_Stub(raw / raw.sum(axis=1, keepdims=True)))
    score = cv_score if cv_score is not None else float(rng.random())
    return E.Trial(hp=toy_hp(), members=members, cv_score=score,
                   trial_id=trial_id)


def test_06_ensemble_algebra_randomized():
    with criterion(6, "ensemble algebra properties hold on 200 random instances"):
        docs = np.zeros((6, 1, 1), dtype=np.float32)
        root = Rng(606)
        for case in range(200):
            rng = root.substream(case)
            n_trials = int(rng.integers(2, 7))
            trials = [_random_fe(rng.substream(i), i, len(docs)) for i in range(n_trials)]
            k = int(rng.integers(1, n_trials + 1))
            se = E.stack_top_k(trials, k)

            # ordering respects (-cv_score, trial_id); prefix monotonicity
            keys = [(-fe.cv_score, fe.trial_id) for fe in se]
            assert keys == sorted(keys)
            if k < n_trials:
                bigger = E.stack_top_k(trials, k + 1)
                assert [f.trial_id for f in bigger[:k]] == [
                    f.trial_id for f in se
                ]

            # singleton stack == best trial
            top1 = E.stack_top_k(trials, 1)
            np.testing.assert_array_equal(
                E.stacked_predict(top1, {"godin": docs}),
                E.ensemble_predict(top1, {"godin": docs})[0],
            )

            # mean-of-means == flat mean over all underlying models
            stacked = E.stacked_predict(se, {"godin": docs})
            flat = np.mean([m.predict_proba(docs)
                            for fe in se for m in fe.members], axis=0)
            assert np.abs(stacked - flat).max() <= 1e-6

            # identical members collapse to one member's prediction
            clone_members = se[0].members
            clones = [E.Trial(hp=toy_hp(), members=clone_members,
                              cv_score=0.5, trial_id=i) for i in range(3)]
            ce = E.stack_top_k(clones, 3)
            np.testing.assert_allclose(
                E.stacked_predict(ce, {"godin": docs}),
                E.ensemble_predict(clones[:1], {"godin": docs})[0], atol=1e-12,
            )

            # ties broken by ascending trial_id
            tied = [E.Trial(hp=toy_hp(), members=clone_members,
                            cv_score=0.7, trial_id=t) for t in (5, 3)]
            assert [fe.trial_id for fe in E.stack_top_k(tied, 2)] == [3, 5]


# --------------------------------------------------------------------------
# 7. fold stratification
# --------------------------------------------------------------------------

def _fake_examples(class_counts):
    out = []
    for label, count in class_counts.items():
        out += [Example(f"c{label}-{i}", "x", label) for i in range(count)]
    return out


def test_07_fold_stratification():
    with criterion(7, "per-class per-fold counts differ by <= 1 (500 random cases)"):
        root = Rng(707)
        for case in range(500):
            rng = root.substream(case)
            k = int(rng.integers(2, 7))
            counts = {c: int(rng.integers(k, 80)) for c in (1, 2, 3)}
            examples = _fake_examples(counts)
            fa = stratified_kfold([ex.label for ex in examples], k=k,
                                  seed=int(rng.integers(0, 2 ** 31)))
            per = {c: Counter({f: 0 for f in range(k)}) for c in counts}
            for ex, fold in zip(examples, fa.fold_of):
                per[ex.label][fold] += 1
            for c, fold_counts in per.items():
                values = list(fold_counts.values())
                assert max(values) - min(values) <= 1
                assert sum(values) == counts[c]

        # published training-set class distribution over 5 folds
        examples = _fake_examples({1: 1847, 2: 3027, 3: 4789})
        fa = stratified_kfold([ex.label for ex in examples], k=5, seed=1)
        per = {c: Counter() for c in (1, 2, 3)}
        for ex, fold in zip(examples, fa.fold_of):
            per[ex.label][fold] += 1
        for c, total in ((1, 1847), (2, 3027), (3, 4789)):
            for fold_count in per[c].values():
                assert abs(fold_count - total / 5) <= 1


# --------------------------------------------------------------------------
# 8. statistical suites
# --------------------------------------------------------------------------

def test_08_statistical_suites():
    with criterion(8, "init variance, dropout mean, sampler uniformity"):
        from scipy import stats

        from scnn.nn_core import dropout, xavier_init

        # Xavier: sample variance within 5% of b^2/3
        samples = xavier_init(100, 100, (100_000,), Rng(801))
        target = (6.0 / 200.0) / 3.0
        assert abs(samples.var() - target) <= 0.05 * target

        # inverted dropout preserves the mean within 2% at 10^4 samples
        ones = np.ones(10_000, dtype=np.float64)
        dropped, _ = dropout(ones, 0.5, Rng(802))
        assert abs(dropped.mean() - 1.0) <= 0.02

        # sampler per-field uniformity: chi-square at significance 0.01
        space = S.SearchSpace.default()
        rng = Rng(803).substream("sampler")
        draws = [S.sample_config(space, rng, seen=None) for _ in range(10_000)]
        for name in M.HP_FIELDS:
            counts = Counter(getattr(hp, name) for hp in draws)
            observed = [counts[v] for v in space.domains[name]]
            assert stats.chisquare(observed).pvalue > 0.01, name


# --------------------------------------------------------------------------
# 9. annealing schedule
# --------------------------------------------------------------------------

def test_09_annealing_schedule_trace():
    with criterion(9, "stagnant dev metric: exactly 2 restarts then stop"):
        docs = as_documents(Rng(901).uniform(-1, 1, (20, 12, 8)).astype(np.float32))
        labels = np.asarray(Rng(902).integers(1, 4, 20))
        hp = toy_hp(batch_size=8)
        net = build_model(hp, 8, seed=9)
        scores = iter([0.5] * 30)
        events = []

        def watch(epoch, m, rec):
            events.append((epoch, rec["lr"], rec["restarted"],
                           {k: v.copy() for k, v in m.params.items()}))

        tm = M.train(net, docs, labels, docs[:2], labels[:2],
                     TrainSchedule(max_epochs=30, patience=2),
                     Rng(903).substream("train"),
                     dev_scorer=lambda m: next(scores), callback=watch)

        lr0 = hp.learning_rate
        assert tm.restart_count == 2
        assert tm.epochs_run == 7
        assert [(e, lr, r) for e, lr, r, _ in events] == [
            (1, lr0, False), (2, lr0, False), (3, lr0, True),
            (4, lr0 / 2, False), (5, lr0 / 2, True),
            (6, lr0 / 4, False), (7, lr0 / 4, False),
        ]
        best = events[0][3]  # epoch 1 is the best (first) snapshot
        for e, lr, restarted, params in events:
            if restarted:  # live weights equal the best snapshot after restore
                for name in best:
                    np.testing.assert_array_equal(params[name], best[name])
        for name in best:  # returned weights are the best snapshot
            np.testing.assert_array_equal(tm.weights.params[name], best[name])


# --------------------------------------------------------------------------
# 10. format round trips
# --------------------------------------------------------------------------

def test_10_format_round_trips(tmp_path):
    with criterion(10, "model, manifest, dataset, embedding files round-trip"):
        # model file: bit-identical tensors and metadata
        _, docs, labels = synth_arrays(1001, 30)
        net = build_model(toy_hp(), 16, seed=4)
        tm = M.train(net, docs, labels, docs[:5], labels[:5],
                     TrainSchedule(max_epochs=2, patience=5), Rng(4).substream("t"))
        save_model(tm, tmp_path / "m.scnn")
        again = load_model(tmp_path / "m.scnn")
        for name in tm.weights.params:
            np.testing.assert_array_equal(again.params[name], tm.weights.params[name])
        assert again.hp == tm.weights.hp
        save_model(replace(tm, weights=again), tmp_path / "m2.scnn")  # same metadata
        assert (tmp_path / "m2.scnn").read_bytes() == (tmp_path / "m.scnn").read_bytes()

        # ensemble manifest: identical stacked predictions after reload
        trials = []
        on_disk = []
        for tid in range(2):
            members = []
            paths = []
            for fold in range(2):
                fold_net = build_model(toy_hp(), 16, seed=10 * tid + fold)
                path = tmp_path / f"t{tid}f{fold}.scnn"
                save_net(fold_net, path)
                members.append(NetMember(fold_net))
                paths.append(str(path))
            trials.append(E.Trial(hp=toy_hp(), members=members,
                                  cv_score=0.6 + tid / 10, trial_id=tid))
            on_disk.append(replace(trials[-1], members=[E.ModelFile(p) for p in paths]))
        se = E.stack_top_k(trials, 2)
        E.save_ensemble(E.stack_top_k(on_disk, 2), tmp_path / "stack.json",
                        fold_seed=1, space_descriptor="d")
        loaded = E.load_ensemble(tmp_path / "stack.json")
        np.testing.assert_array_equal(E.stacked_predict(loaded, {"godin": docs[:9]}),
                                      E.stacked_predict(se, {"godin": docs[:9]}))

        # dataset TSV: byte round trip
        examples = [Example("a", "some tweet text", 1), Example("b", "another", 3)]
        write_dataset(examples, tmp_path / "d.tsv")
        assert parse_dataset(tmp_path / "d.tsv") == examples
        write_dataset(parse_dataset(tmp_path / "d.tsv"), tmp_path / "d2.tsv")
        assert (tmp_path / "d.tsv").read_bytes() == (tmp_path / "d2.tsv").read_bytes()

        # embedding text file: value-exact round trip
        table = make_embedding_table(Rng(10), dim=8)
        write_embeddings(table, tmp_path / "e.txt")
        back = load_embeddings(tmp_path / "e.txt", table.name)
        assert back.vocab == table.vocab
        np.testing.assert_array_equal(back.vectors, table.vectors)
