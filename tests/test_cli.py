"""CLI behavior: exit codes, artifact formats, determinism of outputs.

The desk-scale end-to-end pipeline lives in test_acceptance.py; these tests
exercise the command surface with the smallest corpora that still train.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from scnn.cli import main


def run_cli(*args):
    """In-process invocation; returns (exit_code)."""
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run_cli("synth", "--out", out, "--seed", 7,
                   "--train-size", 90, "--test-size", 30)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("work") / "run"
    emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
    code = run_cli(
        "search", "--train", corpus_dir / "train.tsv", "--embeddings", emb,
        "--trials", 3, "--folds", 5, "--seed", 21, "--out", out,
        "--config", corpus_dir / "space.json", "--unrestricted-space",
        "--max-epochs", 4,
    )
    assert code == 0
    return out


class TestSynth:
    def test_outputs_exist(self, corpus_dir):
        for name in ("train.tsv", "test.tsv", "embeddings.txt", "space.json"):
            assert (corpus_dir / name).exists()

    def test_deterministic(self, tmp_path, corpus_dir):
        assert run_cli("synth", "--out", tmp_path / "again", "--seed", 7,
                       "--train-size", 90, "--test-size", 30) == 0
        for name in ("train.tsv", "test.tsv", "embeddings.txt", "space.json"):
            assert (tmp_path / "again" / name).read_bytes() == (corpus_dir / name).read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "x") == 1
        assert "--seed" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_unknown_flag(self, corpus_dir):
        assert run_cli("synth", "--out", "x", "--seed", 1, "--bogus") == 1

    def test_bad_embeddings_spec(self, corpus_dir, tmp_path):
        code = run_cli("predict", "--manifest", "m.json", "--test",
                       corpus_dir / "test.tsv", "--embeddings", "notapair",
                       "--out", tmp_path / "p.tsv")
        assert code == 1


class TestDataErrors:
    def test_missing_train_file(self, corpus_dir, tmp_path):
        emb = f"godin={corpus_dir}/embeddings.txt"
        code = run_cli("search", "--train", tmp_path / "nope.tsv",
                       "--embeddings", emb, "--trials", 1, "--seed", 1,
                       "--out", tmp_path / "run")
        assert code == 2

    def test_malformed_dataset(self, tmp_path, corpus_dir):
        bad = tmp_path / "bad.tsv"
        bad.write_text("id-only-line\n", encoding="utf-8")
        code = run_cli("evaluate", "--gold", bad, "--pred", bad)
        assert code == 2

    def test_partial_outputs_removed(self, tmp_path, corpus_dir):
        emb = f"godin={corpus_dir}/embeddings.txt"
        out = tmp_path / "run"
        # space demands an embedding name that is not registered -> data error
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"word_embedding": ["godin", "shin"]}))
        code = run_cli("search", "--train", corpus_dir / "train.tsv",
                       "--embeddings", emb, "--trials", 1, "--seed", 1,
                       "--out", out, "--config", space)
        assert code == 2
        assert not out.exists()


class TestTrainCommand:
    def test_train_single_config(self, tmp_path, corpus_dir):
        hp = {
            "adam_b2": 0.999, "n_dense_output": 8, "keep_prob": 0.9,
            "batch_size": 25, "learning_rate": 0.001, "word_embedding": "godin",
            "n_filters": 4, "filter_sizes": [1, 2, 2, 2, 3],
        }
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps(hp))
        out = tmp_path / "one"
        code = run_cli("train", "--train", corpus_dir / "train.tsv",
                       "--embeddings", f"godin={corpus_dir}/embeddings.txt",
                       "--config", cfg, "--seed", 5, "--out", out,
                       "--unrestricted-space", "--max-epochs", 3)
        assert code == 0
        assert (out / "result.json").exists() and (out / "oof.tsv").exists()
        for fold in range(5):
            assert (out / f"fold{fold}.scnn").exists()
        result = json.loads((out / "result.json").read_text())
        assert 0.0 <= result["cv_score"] <= 1.0

    def test_numeric_failure_exits_3(self, tmp_path, corpus_dir):
        hp = {
            "adam_b2": 0.999, "n_dense_output": 4, "keep_prob": 1.0,
            "batch_size": 50, "learning_rate": 1e30, "word_embedding": "godin",
            "n_filters": 2, "filter_sizes": [1, 2, 2, 2, 3],
        }
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps(hp))
        out = tmp_path / "boom"
        with np.errstate(all="ignore"):
            code = run_cli("train", "--train", corpus_dir / "train.tsv",
                           "--embeddings", f"godin={corpus_dir}/embeddings.txt",
                           "--config", cfg, "--seed", 5, "--out", out,
                           "--unrestricted-space", "--max-epochs", 2)
        assert code == 3
        assert not out.exists()  # partial outputs removed

    def test_restricted_space_rejects_toy_config(self, tmp_path, corpus_dir):
        hp = {
            "adam_b2": 0.999, "n_dense_output": 8, "keep_prob": 0.9,
            "batch_size": 25, "learning_rate": 0.001, "word_embedding": "godin",
            "n_filters": 4, "filter_sizes": [1, 2, 2, 2, 3],
        }
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps(hp))
        code = run_cli("train", "--train", corpus_dir / "train.tsv",
                       "--embeddings", f"godin={corpus_dir}/embeddings.txt",
                       "--config", cfg, "--seed", 5, "--out", tmp_path / "x")
        assert code == 2


class TestStackPredictEvaluate:
    def test_stack_outputs(self, run_dir, corpus_dir, tmp_path):
        out = tmp_path / "stacks"
        emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
        code = run_cli("stack", "--run", run_dir, "--top-k", "1,2", "--out", out,
                       "--test", corpus_dir / "test.tsv", "--embeddings", emb)
        assert code == 0
        assert (out / "stack_top1.json").exists()
        assert (out / "stack_top2.json").exists()
        report = (out / "report.csv").read_text().strip().split("\n")
        assert len(report) == 1 + 3 + 2  # header + individuals + stacked rows
        for k in (1, 2):  # one member entry per model file: folds x K
            doc = json.loads((out / f"stack_top{k}.json").read_text())
            assert doc["K"] == k and len(doc["members"]) == 5 * k

    def test_stack_top_k_too_big(self, run_dir, tmp_path):
        assert run_cli("stack", "--run", run_dir, "--top-k", "50",
                       "--out", tmp_path / "s") == 2

    def test_predict_and_evaluate(self, run_dir, corpus_dir, tmp_path):
        emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
        stacks = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", "2",
                       "--out", stacks) == 0
        pred = tmp_path / "pred.tsv"
        assert run_cli("predict", "--manifest", stacks / "stack_top2.json",
                       "--test", corpus_dir / "test.tsv", "--embeddings", emb,
                       "--out", pred) == 0
        lines = pred.read_text().strip().split("\n")
        assert len(lines) == 30
        first = lines[0].split("\t")
        assert len(first) == 5 and first[0] == "te0000"
        assert first[1] in ("1", "2", "3")
        assert all(len(v.split(".")[1]) == 6 for v in first[2:])
        # order matches input order
        gold_ids = [line.split("\t")[0] for line in
                    (corpus_dir / "test.tsv").read_text().strip().split("\n")]
        assert [line.split("\t")[0] for line in lines] == gold_ids

        metrics_path = tmp_path / "metrics.json"
        assert run_cli("evaluate", "--gold", corpus_dir / "test.tsv",
                       "--pred", pred, "--out", metrics_path) == 0
        report = json.loads(metrics_path.read_text())
        assert set(report) == {
            "precision_1", "precision_2", "precision_3",
            "recall_1", "recall_2", "recall_3",
            "f1_1", "f1_2", "f1_3", "precision_m", "recall_m", "f1_m",
        }

    def test_predict_manifest_without_members(self, corpus_dir, tmp_path, capsys):
        manifest = tmp_path / "stack.json"
        manifest.write_text(json.dumps({"format_version": 1, "K": 1}))
        pred = tmp_path / "pred.tsv"
        code = run_cli("predict", "--manifest", manifest, "--test", corpus_dir / "test.tsv",
                       "--embeddings", f"godin={corpus_dir}/embeddings.txt", "--out", pred)
        err = capsys.readouterr().err
        assert code == 2
        assert "stack.json" in err and "members" in err
        assert "Traceback" not in err
        assert not pred.exists()

    def test_predict_unlabeled_input(self, run_dir, corpus_dir, tmp_path):
        emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
        stacks = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", "1",
                       "--out", stacks) == 0
        unlabeled = tmp_path / "unlabeled.tsv"
        rows = [line.split("\t") for line in
                (corpus_dir / "test.tsv").read_text().strip().split("\n")]
        unlabeled.write_text("".join(f"{r[0]}\t{r[2]}\n" for r in rows))
        out_a = tmp_path / "a.tsv"
        out_b = tmp_path / "b.tsv"
        assert run_cli("predict", "--manifest", stacks / "stack_top1.json",
                       "--test", unlabeled, "--embeddings", emb, "--out", out_a) == 0
        assert run_cli("predict", "--manifest", stacks / "stack_top1.json",
                       "--test", corpus_dir / "test.tsv", "--embeddings", emb,
                       "--out", out_b) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_evaluate_perfect_predictions(self, tmp_path, corpus_dir):
        rows = [line.split("\t") for line in
                (corpus_dir / "test.tsv").read_text().strip().split("\n")]
        pred = tmp_path / "perfect.tsv"
        pred.write_text("".join(
            f"{r[0]}\t{r[1]}\t0.333333\t0.333333\t0.333333\n" for r in rows
        ))
        out = tmp_path / "m.json"
        assert run_cli("evaluate", "--gold", corpus_dir / "test.tsv",
                       "--pred", pred, "--out", out) == 0
        report = json.loads(out.read_text())
        assert all(v == 1.0 for v in report.values())

    def test_evaluate_id_mismatch(self, tmp_path, corpus_dir):
        pred = tmp_path / "short.tsv"
        pred.write_text("te0000\t1\t1.0\t0.0\t0.0\n")
        assert run_cli("evaluate", "--gold", corpus_dir / "test.tsv",
                       "--pred", pred) == 2


class TestGradcheckCommand:
    def test_pass_and_deterministic_output(self, capsys):
        assert run_cli("gradcheck", "--seed", 7, "--cases", 2) == 0
        first = capsys.readouterr().out
        assert run_cli("gradcheck", "--seed", 7, "--cases", 2) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "max relative gradient error" in first

    def test_seed_required(self):
        assert run_cli("gradcheck") == 1

    def test_failure_exits_numeric(self, monkeypatch):
        import scnn.cli

        monkeypatch.setattr(scnn.cli, "run_gradcheck", lambda *a, **k: 1.0)
        assert run_cli("gradcheck", "--seed", 7, "--cases", 1) == 3


def test_module_entry_point(corpus_dir):
    # `python -m scnn` works for subprocess callers
    proc = subprocess.run(
        [sys.executable, "-m", "scnn", "gradcheck", "--seed", "3", "--cases", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "max relative gradient error" in proc.stdout
