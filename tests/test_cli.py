"""CLI behavior: exit codes, artifact formats, determinism of outputs.

The desk-scale end-to-end pipeline lives in test_acceptance.py; these tests
exercise the command surface with the smallest corpora that still train.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import rewrite_model_header
from scnn.cli import main
from scnn.errors import DataError


def _replace_in(path, old, new, count):
    path.write_text(path.read_text().replace(old, new, count))


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


    @pytest.mark.parametrize("command,flag,value", [
        ("search", "--trials", 0), ("search", "--folds", 1),
        ("search", "--max-epochs", 0), ("search", "--max-epochs", -3),
        ("search", "--patience", 0), ("train", "--folds", 1),
        ("train", "--max-epochs", 0), ("train", "--patience", 0),
        ("synth", "--dim", 0), ("synth", "--dim", 3), ("synth", "--train-size", -1),
        ("synth", "--test-size", -1), ("gradcheck", "--cases", 0),
        ("gradcheck", "--step", 0), ("gradcheck", "--step", -0.5),
        ("gradcheck", "--step", "nan"),
    ])
    def test_out_of_range_value(self, corpus_dir, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        train = ["--train", corpus_dir / "train.tsv", "--seed", 1, "--out", out,
                 "--embeddings", f"godin={corpus_dir}/embeddings.txt"]
        argv = {
            "search": ["search", "--trials", 1] + train,
            "train": ["train", "--config", corpus_dir / "space.json"] + train,
            "synth": ["synth", "--out", out, "--seed", 1],
            "gradcheck": ["gradcheck", "--seed", 1],
        }[command]
        assert run_cli(*argv, flag, value) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [0, -2])
    def test_parallelism_below_one(self, corpus_dir, tmp_path, capsys, bad):
        out = tmp_path / "run"
        code = run_cli("search", "--train", corpus_dir / "train.tsv",
                       "--embeddings", f"godin={corpus_dir}/embeddings.txt",
                       "--trials", 1, "--seed", 1, "--out", out, "--parallelism", bad)
        assert code == 1
        assert "--parallelism" in capsys.readouterr().err
        assert not out.exists()


class TestInternalErrors:
    def test_unexpected_exception_exits_4_and_discards(self, corpus_dir, tmp_path,
                                                       capsys, monkeypatch):
        import scnn.search

        def boom(records):
            raise RuntimeError("leaderboard writer broke")

        # fails after the trials have written their files
        monkeypatch.setattr(scnn.search, "format_leaderboard_csv", boom)
        out = tmp_path / "run"
        emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
        code = run_cli("search", "--train", corpus_dir / "train.tsv",
                       "--embeddings", emb, "--trials", 1, "--seed", 1, "--out", out,
                       "--config", corpus_dir / "space.json", "--unrestricted-space",
                       "--max-epochs", 1)
        err = capsys.readouterr().err
        assert code == 4
        assert "internal error: RuntimeError: leaderboard writer broke" in err
        assert "Traceback" not in err
        assert not out.exists()


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


def _second_line_not_utf8(src, dst):
    """``src``'s bytes with a 0xff byte ending the second line, at ``dst``."""
    lines = src.read_bytes().split(b"\n")
    lines[1] += b"\xff"
    dst.write_bytes(b"\n".join(lines))
    return dst


@pytest.mark.parametrize("case", [
    "evaluate-gold", "evaluate-pred", "predict-test", "predict-manifest",
    "search-config", "search-train", "search-embeddings", "train-config",
])
def test_not_utf8_input_exits_2(run_dir, corpus_dir, tmp_path, capsys, case):
    command, what = case.split("-")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "adam_b2": 0.999, "n_dense_output": 8, "keep_prob": 0.9, "batch_size": 25,
        "learning_rate": 0.001, "word_embedding": "godin", "n_filters": 4,
        "filter_sizes": [1, 2, 2, 2, 3]} if command == "train" else {"n_filters": [4]},
        indent=1))
    pred = tmp_path / "pred.tsv"
    pred.write_text("te0000\t1\t1.0\t0.0\t0.0\nte0001\t1\t1.0\t0.0\t0.0\n")
    if command == "predict":
        assert run_cli("stack", "--run", run_dir, "--top-k", "1",
                       "--out", tmp_path / "stacks") == 0
    files = {"gold": corpus_dir / "test.tsv", "pred": pred, "test": corpus_dir / "test.tsv",
             "manifest": tmp_path / "stacks" / "stack_top1.json", "config": config,
             "train": corpus_dir / "train.tsv", "embeddings": corpus_dir / "embeddings.txt"}
    files[what] = _second_line_not_utf8(files[what], tmp_path / f"bad-{what}")
    emb = f"godin={files['embeddings']},shin={files['embeddings']}"
    out = tmp_path / "out"
    argv = {
        "evaluate": ["--gold", files["gold"], "--pred", files["pred"]],
        "predict": ["--manifest", files["manifest"], "--test", files["test"],
                    "--embeddings", emb],
        "search": ["--train", files["train"], "--embeddings", emb, "--trials", 1,
                   "--seed", 1, "--config", files["config"], "--unrestricted-space"],
        "train": ["--train", files["train"], "--embeddings", emb, "--seed", 1,
                  "--config", files["config"], "--unrestricted-space"],
    }[command]
    capsys.readouterr()
    code = run_cli(command, *argv, "--out", out)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"bad-{what}: not UTF-8 text at line 2" in err
    assert "Traceback" not in err
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

    @pytest.mark.parametrize("where,key,value", [
        ("top", "K", "3"),
        ("top", "K", 0),
        ("top", "K", True),
        ("top", "format_version", "1"),
        ("member", "trial_id", "x"),
        ("member", "trial_id", 1.5),
        ("member", "cv_score", "high"),
        ("member", "cv_score", None),
        ("member", "path", 5),
        ("member", "path", ["fold0.scnn"]),
        ("member", "sha256", None),
    ])
    def test_predict_manifest_value_types(self, run_dir, corpus_dir, tmp_path, capsys,
                                          where, key, value):
        stacks = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", "1", "--out", stacks) == 0
        manifest = stacks / "stack_top1.json"
        doc = json.loads(manifest.read_text())
        (doc if where == "top" else doc["members"][2])[key] = value
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        pred = tmp_path / "pred.tsv"
        code = run_cli("predict", "--manifest", manifest, "--test", corpus_dir / "test.tsv",
                       "--embeddings", f"godin={corpus_dir}/embeddings.txt,"
                                       f"shin={corpus_dir}/embeddings.txt", "--out", pred)
        err = capsys.readouterr().err
        assert code == 2
        assert "stack_top1.json" in err and key in err
        if where == "member":
            assert "member 2" in err
        assert "Traceback" not in err
        assert not pred.exists()

    @pytest.mark.parametrize("edit,named", [
        (lambda h: h.update(dtype="float16"), "float16"),
        (lambda h: h["tensors"][0][1].reverse(), "conv0_w"),
    ] + [
        (lambda h, key=key: h.pop(key), key)
        for key in ("hp", "dtype", "tensors", "embedding_dim", "init_seed")
    ], ids=["dtype-float16", "conv0_w-transposed", "no-hp", "no-dtype", "no-tensors",
            "no-embedding_dim", "no-init_seed"])
    def test_predict_bad_model_header(self, run_dir, corpus_dir, tmp_path, capsys,
                                      edit, named):
        stacks = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", "1", "--out", stacks) == 0
        manifest = stacks / "stack_top1.json"
        doc = json.loads(manifest.read_text())
        member = doc["members"][0]
        model = tmp_path / "edited.scnn"
        rewrite_model_header(stacks / member["path"], model, edit)
        member["path"] = os.path.relpath(model, stacks)
        member["sha256"] = hashlib.sha256(model.read_bytes()).hexdigest()
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        pred = tmp_path / "pred.tsv"
        code = run_cli("predict", "--manifest", manifest, "--test", corpus_dir / "test.tsv",
                       "--embeddings", f"godin={corpus_dir}/embeddings.txt,"
                                       f"shin={corpus_dir}/embeddings.txt", "--out", pred)
        err = capsys.readouterr().err
        assert code == 2, err
        assert "edited.scnn" in err and named in err
        assert "Traceback" not in err
        assert not pred.exists()

    def test_predict_flipped_last_member(self, run_dir, corpus_dir, tmp_path, capsys):
        # members are checked when used: the first 14 predict before this fails
        stacks = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", "3", "--out", stacks) == 0
        manifest = stacks / "stack_top3.json"
        doc = json.loads(manifest.read_text())
        member = doc["members"][-1]
        raw = bytearray((stacks / member["path"]).read_bytes())
        raw[-5] ^= 0x10  # a tensor byte
        flipped = tmp_path / "flipped.scnn"
        flipped.write_bytes(raw)
        member["path"] = os.path.relpath(flipped, stacks)
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        pred = tmp_path / "pred.tsv"
        code = run_cli("predict", "--manifest", manifest, "--test", corpus_dir / "test.tsv",
                       "--embeddings", f"godin={corpus_dir}/embeddings.txt,"
                                       f"shin={corpus_dir}/embeddings.txt", "--out", pred)
        err = capsys.readouterr().err
        assert code == 2, err
        assert "hash mismatch for member" in err and "flipped.scnn" in err
        assert "Traceback" not in err
        assert not pred.exists()

    @pytest.mark.parametrize("edit,named", [
        (lambda run: _replace_in(run / "trials" / "0" / "oof.tsv", "\t", "\tx", 1),
         "oof.tsv: malformed number at line 1"),
        (lambda run: (run / "trials" / "0" / "oof.tsv").unlink(), "oof.tsv"),
        (lambda run: _replace_in(run / "manifest.json", '"folds_k"', '"k"', 1),
         "manifest.json: run manifest lacks folds_k"),
        (lambda run: _replace_in(run / "leaderboard.csv", "\n", "\nx", 1),
         "leaderboard.csv: malformed row at line 2"),
    ], ids=["oof-fold", "oof-missing", "manifest-folds-k", "leaderboard-trial-id"])
    def test_stack_bad_run_directory(self, run_dir, tmp_path, capsys, edit, named):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        edit(run)
        capsys.readouterr()
        out = tmp_path / "stacks"
        code = run_cli("stack", "--run", run, "--top-k", "3", "--out", out)
        err = capsys.readouterr().err
        assert code == 2, err
        assert named in err
        assert "Traceback" not in err
        assert not out.exists()

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

    def test_evaluate_only_lf_ends_a_line(self, tmp_path, corpus_dir, capsys):
        rows = [line.split("\t") for line in
                (corpus_dir / "test.tsv").read_text().strip().split("\n")]
        lines = [f"{r[0]}\t{r[1]}\t0.333333\t0.333333\t0.333333" for r in rows]
        gold, pred = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
        gold.write_bytes((corpus_dir / "test.tsv").read_bytes().replace(b"\n", b"\r\n"))
        pred.write_bytes("".join(line + "\r\n" for line in lines).encode())
        assert run_cli("evaluate", "--gold", gold, "--pred", pred) == 0
        pred.write_bytes(("\r".join(lines) + "\n").encode())
        capsys.readouterr()
        assert run_cli("evaluate", "--gold", gold, "--pred", pred) == 2
        assert "pred.tsv: expected 5 fields at line 1" in capsys.readouterr().err

    def test_sniff_labeled_only_lf_ends_a_line(self, tmp_path):
        from scnn.cli import _sniff_labeled

        path = tmp_path / "d.tsv"
        path.write_bytes(b"a\tx y\r\nb\tz\r\n")
        assert _sniff_labeled(path) is False
        path.write_bytes(b"a\t1\tx y\r\n")
        assert _sniff_labeled(path) is True
        path.write_bytes(b"a\tx\rb\t1\ty\n")
        with pytest.raises(DataError, match="first data line has 4 fields"):
            _sniff_labeled(path)


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
    # `python -m scnn` works for subprocess callers, from this source tree
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "scnn", "gradcheck", "--seed", "3", "--cases", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "max relative gradient error" in proc.stdout
