"""CLI behavior: exit codes, artifact formats, determinism of outputs.

The desk-scale end-to-end pipeline lives in test_acceptance.py; these tests
exercise the command surface with the smallest corpora that still train.
"""

import contextlib
import hashlib
import itertools
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_child_process, rewrite_model_header, save_net, set_usable_cpus
from scnn import cli
from scnn.cli import _build_parser, main
from scnn.ensemble import ModelFile, Trial, save_ensemble, stack_top_k
from scnn.model import HyperParams, build_model


def _replace_in(path, old, new, count):
    path.write_text(path.read_text().replace(old, new, count))


def _set_cell(path, line, column, value, sep=","):
    """Set one ``sep``-separated cell of the text file ``path`` (1-based line)."""
    lines = path.read_text().split("\n")
    cells = lines[line - 1].split(sep)
    cells[column] = value
    lines[line - 1] = sep.join(cells)
    path.write_text("\n".join(lines))


def _duplicate_line(path, line):
    """Repeat one line of the text file ``path`` (1-based) right after itself."""
    lines = path.read_text().split("\n")
    lines.insert(line, lines[line - 1])
    path.write_text("\n".join(lines))


def _delete_line(path, line):
    """Remove one line of the text file ``path`` (1-based)."""
    lines = path.read_text().split("\n")
    del lines[line - 1]
    path.write_text("\n".join(lines))


def run_cli(*args):
    """In-process invocation; returns (exit_code)."""
    return main([str(a) for a in args])


_TRAIN_HP = {"adam_b2": 0.999, "n_dense_output": 8, "keep_prob": 0.9, "batch_size": 25,
             "learning_rate": 0.001, "word_embedding": "godin", "n_filters": 4,
             "filter_sizes": [1, 2, 2, 2, 3]}


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


def _files_under(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))


class TestInterrupts:
    @pytest.mark.parametrize("command", ["search", "predict"])
    def test_keyboard_interrupt_exits_130_and_discards(self, run_dir, corpus_dir, tmp_path,
                                                       capsys, monkeypatch, command):
        import scnn.kernels

        emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
        if command == "predict":
            assert run_cli("stack", "--run", run_dir, "--top-k", 1, "--out", tmp_path / "s") == 0
        before = _files_under(tmp_path)
        out = tmp_path / ("run" if command == "search" else "pred.tsv")
        forward = scnn.kernels.conv_pool_forward

        def interrupted(*args):
            # search: once the first fold model is saved; predict: at once
            if command == "predict" or any(out.glob("trials/*/fold*.scnn")):
                raise KeyboardInterrupt
            return forward(*args)

        monkeypatch.setattr(scnn.kernels, "conv_pool_forward", interrupted)
        if command == "search":
            code = run_cli("search", "--train", corpus_dir / "train.tsv", "--embeddings", emb,
                           "--trials", 2, "--seed", 1, "--out", out, "--parallelism", 1,
                           "--config", corpus_dir / "space.json", "--unrestricted-space",
                           "--max-epochs", 2)
        else:
            code = run_cli("predict", "--manifest", tmp_path / "s" / "stack_top1.json",
                           "--test", corpus_dir / "test.tsv", "--embeddings", emb,
                           "--out", out)
        err = capsys.readouterr().err
        assert code == 130
        assert err.rstrip().endswith("interrupted") and "Traceback" not in err
        assert _files_under(tmp_path) == before  # no output and no .tmp

    def test_ctrl_c_during_member_predict_exits_130(self, run_dir, corpus_dir, tmp_path,
                                                    capsys, monkeypatch):
        from scnn import model as M

        emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
        assert run_cli("stack", "--run", run_dir, "--top-k", 1, "--out", tmp_path / "s") == 0
        log = tmp_path / "forwards.log"
        log.write_text("")
        before = _files_under(tmp_path)
        monkeypatch.setattr(M, "_PREDICT_CHUNK", 8)  # 30 tweets: 4 chunks
        # 10 usable CPUs: each of the 5 members on a process of its own
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(10)),
                            raising=False)
        caller, forward = os.getpid(), M.forward_batch
        started = itertools.count()

        def interrupting(*args, **kwargs):  # the forked workers inherit it
            _log_forward(log)
            if os.getpid() == caller:
                if next(started) == 0:  # Ctrl-C during the caller's first chunk
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                time.sleep(0.1)  # slow chunks: the signal lands before the last
            return forward(*args, **kwargs)

        monkeypatch.setattr(M, "forward_batch", interrupting)
        threads = set(threading.enumerate())
        code = run_cli("predict", "--manifest", tmp_path / "s" / "stack_top1.json",
                       "--test", corpus_dir / "test.tsv", "--embeddings", emb,
                       "--out", tmp_path / "pred.tsv")
        err = capsys.readouterr().err
        assert code == 130
        assert err.rstrip().endswith("interrupted") and "Traceback" not in err
        ran = _logged_forwards(log)
        assert sum(pid == str(caller) for pid, _ in ran) < 4  # its member stopped its chunks
        assert_no_child_process()  # its 4 workers ended with it
        assert set(threading.enumerate()) == threads
        assert _files_under(tmp_path) == before

    def test_sigint_during_search_exits_130_and_discards(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        with _search_process(corpus_dir, out, parallelism=1) as proc:
            _wait_for_folds(proc, out, lambda names: names)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130, err
        assert err.rstrip().endswith("interrupted") and "Traceback" not in err
        assert not out.exists()
        assert _files_under(tmp_path) == []

    def test_ctrl_c_during_parallel_search_exits_130_and_leaves_no_process(self, corpus_dir,
                                                                           tmp_path):
        # Ctrl-C in a terminal signals the whole process group: the worker
        # ignores it and stops after its current unit, as the scnn process asks
        out = tmp_path / "run"
        with _search_process(corpus_dir, out, parallelism=2) as proc:
            _wait_for_folds(proc, out, lambda names: names)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
            _assert_group_ends(proc.pid)
        assert proc.returncode == 130, err
        assert err.rstrip().endswith("interrupted") and "Traceback" not in err
        assert not out.exists()
        assert _files_under(tmp_path) == []

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_sigterm_during_search_exits_143_and_leaves_no_process(self, corpus_dir, tmp_path,
                                                                   parallelism):
        out = tmp_path / "run"
        with _search_process(corpus_dir, out, parallelism) as proc:
            _wait_for_folds(proc, out, lambda names: names)
            proc.terminate()  # the scnn process alone, which stops its worker
            _, err = proc.communicate(timeout=60)
            _assert_group_ends(proc.pid)
        assert proc.returncode == 143, err
        assert err.rstrip().endswith("terminated") and "Traceback" not in err
        assert not out.exists()
        assert _files_under(tmp_path) == []

    def test_killed_search_leaves_no_idle_worker(self, corpus_dir, tmp_path):
        # one trial of five folds at --parallelism 2: the scnn process trains
        # folds 0, 2 and 4, its worker 1 and 3 and then waits for work
        out = tmp_path / "run"
        with _search_process(corpus_dir, out, 2, trials=1, epochs=500) as proc:
            _wait_for_folds(proc, out, lambda names: {"fold1.scnn", "fold3.scnn"} <= names)
            proc.kill()
            proc.communicate(timeout=60)  # the worker holds the pipes until it ends
            _assert_group_ends(proc.pid)
        assert proc.returncode == -signal.SIGKILL

    def test_ctrl_c_during_parallel_predict_exits_130_and_leaves_no_process(
            self, run_dir, corpus_dir, tmp_path):
        # the worker ignores the group's SIGINT and ends its current member
        with _predict_process(run_dir, corpus_dir, tmp_path, sleep=0.5) as (proc, out):
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
            _assert_group_ends(proc.pid)
        assert proc.returncode == 130, err
        assert err.rstrip().endswith("interrupted") and "Traceback" not in err
        assert not out.exists()

    def test_sigterm_during_parallel_predict_exits_143_and_leaves_no_process(
            self, run_dir, corpus_dir, tmp_path):
        with _predict_process(run_dir, corpus_dir, tmp_path, sleep=0.5) as (proc, out):
            proc.terminate()  # the scnn process alone, which stops its worker
            _, err = proc.communicate(timeout=60)
            _assert_group_ends(proc.pid)
        assert proc.returncode == 143, err
        assert err.rstrip().endswith("terminated") and "Traceback" not in err
        assert not out.exists()

    def test_killed_predict_leaves_no_worker(self, run_dir, corpus_dir, tmp_path):
        # the worker's member would take a minute: the kernel ends it instead
        with _predict_process(run_dir, corpus_dir, tmp_path, sleep=60) as (proc, out):
            proc.kill()
            proc.communicate(timeout=60)  # the worker holds the pipes until it ends
            _assert_group_ends(proc.pid)
        assert proc.returncode == -signal.SIGKILL
        assert not out.exists()


@contextlib.contextmanager
def _scnn_process(*argv, script=None, env=None):
    """A running ``scnn`` with ``argv``, or ``script`` with them, which calls
    cli.main, in ``env`` added to this process's environment. It runs in a
    session of its own, so that its pid is its process group's id; the
    group is killed when the block exits."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    entry = [str(script)] if script else ["-m", "scnn"]
    proc = subprocess.Popen(
        [sys.executable, *entry, *map(str, argv)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        yield proc
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate(timeout=60)


def _search_process(corpus_dir, out, parallelism, trials=4, epochs=30):
    """A running ``scnn search`` of ``trials`` trials of 5 folds on the
    module's corpus (_scnn_process)."""
    emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
    return _scnn_process(
        "search", "--train", corpus_dir / "train.tsv", "--embeddings", emb,
        "--trials", trials, "--seed", 1, "--out", out, "--config", corpus_dir / "space.json",
        "--unrestricted-space", "--max-epochs", epochs, "--patience", epochs,
        "--parallelism", parallelism)


_SLOW_PREDICT = """
import os, sys, time
from scnn import cli, model

forward = model.forward_batch


def slow_forward(*args, **kwargs):
    with open(os.environ["FORWARD_LOG"], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(float(os.environ["FORWARD_SLEEP"]))
    return forward(*args, **kwargs)


if __name__ == "__main__":
    os.sched_getaffinity = lambda pid: {0, 1}  # two processes on any machine
    model.forward_batch = slow_forward  # the forked worker inherits it
    sys.exit(cli.main(sys.argv[1:]))
"""


@contextlib.contextmanager
def _predict_process(run_dir, corpus_dir, tmp_path, sleep):
    """A running ``scnn predict`` of a top-1 stack (5 members of one
    forward each) on 2 processes, each forward ``sleep`` seconds long
    (_scnn_process); the block starts once both processes are in a forward.
    Yields the process and its --out."""
    assert run_cli("stack", "--run", run_dir, "--top-k", 1, "--out", tmp_path / "s") == 0
    script, log, out = tmp_path / "slow_predict.py", tmp_path / "forwards.log", tmp_path / "p.tsv"
    script.write_text(_SLOW_PREDICT)
    log.write_text("")
    emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
    with _scnn_process("predict", "--manifest", tmp_path / "s" / "stack_top1.json",
                       "--test", corpus_dir / "test.tsv", "--embeddings", emb, "--out", out,
                       script=script, env={"FORWARD_LOG": str(log),
                                           "FORWARD_SLEEP": str(sleep)}) as proc:
        while proc.poll() is None and len(set(log.read_text().split())) < 2:
            time.sleep(0.01)
        assert proc.poll() is None, "the predict ended before the signal"
        yield proc, out


def _wait_for_folds(proc, out, ready):
    """Poll, without sleeping past it, until ``ready`` holds for the names
    of the fold models saved under ``out``; the search must still run."""
    while proc.poll() is None and not ready({p.name for p in out.glob("trials/*/fold*.scnn")}):
        time.sleep(0.01)
    assert proc.poll() is None, "the search ended before the signal"


def _assert_group_ends(pgid, seconds=30):
    """Every process of the group ``pgid`` ends within ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    pytest.fail("a process of the search outlived it")


class TestFailureInAnExistingOut:
    """A command that fails leaves an --out directory that existed before it
    as it was: every file it wrote there is removed, and no .tmp is left."""

    @pytest.fixture
    def out(self, tmp_path):
        out = tmp_path / "existing"
        out.mkdir()
        (out / "marker").write_text("kept\n")
        yield out
        assert _files_under(out) == ["marker"]
        assert (out / "marker").read_text() == "kept\n"

    def test_train_terminated_after_its_first_fold(self, corpus_dir, tmp_path, out):
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps(_TRAIN_HP))
        with _scnn_process("train", "--train", corpus_dir / "train.tsv",
                           "--embeddings", f"godin={corpus_dir}/embeddings.txt",
                           "--config", cfg, "--seed", 5, "--out", out, "--unrestricted-space",
                           "--max-epochs", 200, "--patience", 200) as proc:
            while proc.poll() is None and not (out / "fold0.scnn").exists():
                time.sleep(0.01)
            assert proc.poll() is None, "the train ended before the signal"
            proc.terminate()  # the scnn process alone, which stops its worker
            _, err = proc.communicate(timeout=60)
            _assert_group_ends(proc.pid)
        assert proc.returncode == 143, err
        assert err.rstrip().endswith("terminated") and "Traceback" not in err

    def test_stack_report_without_a_used_embedding(self, run_dir, corpus_dir, capsys, out):
        # the manifests are written before the report finds that trials use
        # shin, which --embeddings does not name
        assert "shin" in (run_dir / "leaderboard.csv").read_text()
        capsys.readouterr()
        code = run_cli("stack", "--run", run_dir, "--top-k", "1,3", "--out", out,
                       "--test", corpus_dir / "test.tsv",
                       "--embeddings", f"godin={corpus_dir}/embeddings.txt")
        err = capsys.readouterr().err
        assert code == 2, err
        assert "word_embedding 'shin' is not in the --embeddings registry" in err

    def test_search_failing_after_its_trials(self, corpus_dir, capsys, monkeypatch, out):
        import scnn.search

        def boom(records):
            raise RuntimeError("leaderboard writer broke")

        (out / "trials").mkdir()  # so the trials' own directories are the outputs
        monkeypatch.setattr(scnn.search, "format_leaderboard_csv", boom)
        code = run_cli("search", "--train", corpus_dir / "train.tsv", "--embeddings",
                       f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt",
                       "--trials", 2, "--seed", 1, "--out", out, "--max-epochs", 1,
                       "--config", corpus_dir / "space.json", "--unrestricted-space")
        assert code == 4, capsys.readouterr().err
        (out / "trials").rmdir()  # fails unless the trials' directories were removed

    def test_synth_over_the_file_size_limit(self, out):
        # train.tsv and test.tsv fit in 60 kB; the 400-dim embeddings.txt does not
        proc = _run_python(
            "-c", "import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_FSIZE, (60000, 60000))\n"
                  "from scnn import cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))",
            "synth", "--out", str(out), "--seed", "1", "--train-size", "90",
            "--test-size", "30", "--dim", "400")
        assert proc.returncode != 0 and "File too large" in proc.stderr, proc.stderr


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

    @pytest.mark.parametrize("command,lines,named", [
        ("search", 0, "small.tsv: no examples"),
        ("train", 0, "small.tsv: no examples"),
        ("search", 6, "small.tsv: class 1 has 2 examples, fewer than k=5"),
    ], ids=["search-empty", "train-empty", "search-class-below-k"])
    def test_too_few_training_examples(self, corpus_dir, tmp_path, capsys, command,
                                       lines, named):
        train = tmp_path / "small.tsv"
        train.write_text("".join((corpus_dir / "train.tsv").read_text()
                                 .splitlines(keepends=True)[:lines]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_TRAIN_HP))
        argv = {"search": ["--trials", 1, "--config", corpus_dir / "space.json"],
                "train": ["--config", config]}[command]
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli(command, "--train", train, "--embeddings",
                       f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt",
                       "--seed", 1, "--unrestricted-space", "--out", out, *argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stack", "evaluate"])
    def test_empty_scoring_file_exits_2(self, run_dir, corpus_dir, tmp_path, capsys, command):
        # a score over no examples is no score
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "out"
        argv = {"stack": ["--run", run_dir, "--top-k", 1, "--test", empty, "--embeddings",
                          f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"],
                "evaluate": ["--gold", empty, "--pred", empty]}[command]
        capsys.readouterr()
        code = run_cli(command, "--out", out, *argv)
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert f"{empty}: no examples" in captured.err
        assert captured.out == "" and not out.exists()


def _make_out(tmp_path, kind):
    """An existing path of ``kind`` under tmp_path, or one whose directory
    is "missing" or a "file_parent"."""
    out = tmp_path / "out"
    if kind == "missing":
        return tmp_path / "missing" / "out"
    if kind == "file_parent":
        out.write_text("kept\n")
        return out / "out"
    if kind == "file":
        out.write_text("kept\n")
    elif kind == "dir":
        out.mkdir()
    elif kind == "fifo":
        os.mkfifo(out)
    else:  # a symlink to a regular file, or one that points nowhere
        target = tmp_path / "target.txt"
        if kind == "symlink":
            target.write_text("kept\n")
        out.symlink_to(target)
    return out


def _entries(root):
    return sorted((str(p.relative_to(root)), p.is_symlink(), p.is_fifo(),
                   p.read_bytes() if p.is_file() else None) for p in root.rglob("*"))


@pytest.mark.parametrize("command,kind", [
    ("synth", "file"), ("search", "file"), ("train", "file"), ("stack", "fifo"),
    ("search", "dangling"), ("predict", "dir"), ("predict", "symlink"),
    ("evaluate", "symlink"), ("evaluate", "fifo"), ("evaluate", "dangling"),
    ("predict", "missing"), ("evaluate", "missing"), ("evaluate", "file_parent"),
])
def test_out_of_the_wrong_kind_exits_2_and_writes_nothing(run_dir, corpus_dir, tmp_path,
                                                          capsys, command, kind):
    emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_TRAIN_HP))
    argv = {
        "synth": ["--seed", 1],
        "search": ["--train", corpus_dir / "train.tsv", "--embeddings", emb, "--trials", 1,
                   "--seed", 1, "--config", corpus_dir / "space.json", "--unrestricted-space"],
        "train": ["--train", corpus_dir / "train.tsv", "--embeddings", emb, "--config", config,
                  "--seed", 1, "--unrestricted-space"],
        "stack": ["--run", run_dir, "--top-k", 1],
        "predict": ["--manifest", tmp_path / "none.json", "--test", corpus_dir / "test.tsv",
                    "--embeddings", emb],
        "evaluate": ["--gold", corpus_dir / "test.tsv", "--pred", tmp_path / "none.tsv"],
    }[command]
    out = _make_out(tmp_path, kind)
    before = _entries(tmp_path)
    capsys.readouterr()
    code = run_cli(command, "--out", out, *argv)
    err = capsys.readouterr().err
    assert code == 2, err
    want = "a directory" if command in ("synth", "search", "train", "stack") else "a regular file"
    if kind in ("missing", "file_parent"):
        assert err == f"data error: --out {out}: {out.parent} is not a directory\n"
    else:
        assert err == f"data error: --out {out} exists and is not {want}\n"
    assert _entries(tmp_path) == before  # the entry, its target and no .tmp


@pytest.mark.parametrize("command,config,named", [
    ("search", {"n_filters": ["x"]}, "n_filters='x' must be a positive integer"),
    ("search", {"filter_sizes": [5]}, "filter_sizes=5 must be exactly 5 positive integers"),
    ("search", {"filter_sizes": [[1, "a", 2, 2, 3]]}, "filter_sizes=(1, 'a', 2, 2, 3)"),
    ("search", {"adam_b2": ["x"]}, "adam_b2='x' must be a number in (0, 1)"),
    ("search", {"n_filters": [4.7]}, "n_filters=4.7 must be a positive integer"),
    ("search", {"filter_sizes": [[1, 2, 3, 4, 48]]},
     "filter_sizes=(1, 2, 3, 4, 48) must be exactly 5 positive integers of at most 47"),
    ("train", {**_TRAIN_HP, "n_filters": True}, "n_filters must be a positive integer"),
    ("train", {**_TRAIN_HP, "keep_prob": "x"}, "keep_prob must be a number in (0, 1]"),
    ("train", {**_TRAIN_HP, "filter_sizes": [1, "a", 2, 2, 3]}, "got [1, 'a', 2, 2, 3]"),
    ("train", {**_TRAIN_HP, "filter_sizes": [1.5, 2, 2, 2, 3]}, "got [1.5, 2, 2, 2, 3]"),
    ("train", {**_TRAIN_HP, "learning_rate": float("inf")}, "a positive finite number"),
    ("train", {**_TRAIN_HP, "filter_sizes": [1, 2, 3, 4, 48]}, "of at most 47, the document "
     "length, got [1, 2, 3, 4, 48]"),
], ids=["search-n_filters-str", "search-filter_sizes-flat", "search-filter_sizes-str",
        "search-adam_b2-str", "search-n_filters-float", "search-filter_sizes-above-47",
        "train-n_filters-bool", "train-keep_prob-str", "train-filter_sizes-str",
        "train-filter_sizes-float", "train-learning_rate-inf", "train-filter_sizes-above-47"])
def test_malformed_hp_config_exits_2(corpus_dir, tmp_path, capsys, command, config, named):
    path = tmp_path / "bad-config.json"
    path.write_text(json.dumps(config))
    argv = {"search": ["--trials", 1], "train": []}[command]
    out = tmp_path / "out"
    capsys.readouterr()
    code = run_cli(command, "--train", corpus_dir / "train.tsv", "--embeddings",
                   f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt",
                   "--seed", 1, "--config", path, "--unrestricted-space", "--out", out, *argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"{path}: " in err and named in err
    assert "Traceback" not in err
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


_PAPER_HP = {"adam_b2": 0.999, "n_dense_output": 100, "keep_prob": 0.5, "batch_size": 50,
             "learning_rate": 0.001, "word_embedding": "godin", "n_filters": 400,
             "filter_sizes": [3, 4, 5, 6, 7]}


def _assert_train_is_trial_0(tmp_path, monkeypatch, hp, dim, train_size, folds, max_epochs,
                             parallelisms):
    """train with ``hp`` writes the same bytes on 1 and on 2 usable CPUs:
    the fold files, oof.tsv and cv score of trial 0 of a search over the
    one-point space of ``hp`` with the same seed, at each of
    ``parallelisms``."""
    assert run_cli("synth", "--out", tmp_path / "c", "--seed", 11, "--dim", dim,
                   "--train-size", train_size, "--test-size", 0) == 0
    config, space = tmp_path / "hp.json", tmp_path / "space.json"
    config.write_text(json.dumps(hp))
    space.write_text(json.dumps({name: [v] for name, v in hp.items()}))
    common = ["--train", tmp_path / "c" / "train.tsv", "--embeddings",
              f"godin={tmp_path}/c/embeddings.txt", "--seed", 3,
              "--folds", folds, "--max-epochs", max_epochs, "--unrestricted-space"]
    written = []
    for cpus in (1, 2):
        set_usable_cpus(monkeypatch, cpus)
        assert run_cli("train", "--config", config, "--out", tmp_path / f"one{cpus}", *common) == 0
        written.append(_tree(tmp_path / f"one{cpus}"))
    assert written[0] == written[1]
    names = [f"fold{i}.scnn" for i in range(folds)] + ["oof.tsv"]
    trained = {name: written[1][name] for name in names}
    cv_score = json.loads(written[1]["result.json"])["cv_score"]
    for parallelism in parallelisms:
        run = tmp_path / f"run{parallelism}"
        assert run_cli("search", "--config", space, "--trials", 1, "--out", run,
                       "--parallelism", parallelism, *common) == 0
        assert {name: (run / "trials" / "0" / name).read_bytes()
                for name in names} == trained
        row = (run / "leaderboard.csv").read_text().splitlines()[1].split(",")
        assert (row[0], float(row[1])) == ("0", cv_score)


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

    def test_train_equals_trial_0_of_a_search(self, tmp_path, monkeypatch):
        # one-point space, one trial, same seed: the search's trial 0 trains
        # the config train trains, with the same fold code
        _assert_train_is_trial_0(tmp_path, monkeypatch, _TRAIN_HP, 16, 200, 5, 4, (1, 2))

    def test_train_equals_trial_0_of_a_search_at_paper_shape(self, tmp_path, monkeypatch):
        # every process runs BLAS on one thread: train and the search in
        # the scnn process and its worker
        _assert_train_is_trial_0(tmp_path, monkeypatch, _PAPER_HP, 400, 60, 2, 1, (2,))

    def test_train_runs_fold_j_on_process_j_mod_the_usable_cpus(self, tmp_path, corpus_dir,
                                                               monkeypatch):
        from scnn import search

        log, train_unit = tmp_path / "folds.log", search.train_unit

        def logged(inputs, tid, hp, fold, buffers, out):  # the forked worker inherits it
            with open(log, "a") as fh:
                fh.write(f"{fold} {os.getpid()}\n")
            return train_unit(inputs, tid, hp, fold, buffers, out)

        monkeypatch.setattr(search, "train_unit", logged)
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps(_TRAIN_HP))
        for cpus in (1, 2):  # the bytes: _assert_train_is_trial_0
            set_usable_cpus(monkeypatch, cpus)
            log.write_text("")
            assert run_cli("train", "--train", corpus_dir / "train.tsv",
                           "--embeddings", f"godin={corpus_dir}/embeddings.txt",
                           "--config", cfg, "--seed", 5, "--out", tmp_path / f"cpus{cpus}",
                           "--unrestricted-space", "--max-epochs", 3) == 0
            pid_of = dict(line.split() for line in log.read_text().splitlines())
            assert sorted(pid_of) == ["0", "1", "2", "3", "4"]
            assert [pid_of[str(j)] == str(os.getpid()) for j in range(5)] == [
                j % cpus == 0 for j in range(5)]  # fold j on process j % cpus
            assert len(set(pid_of.values())) == cpus
            assert_no_child_process()

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

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_numeric_failure_names_fold_0_at_any_cpu_count(self, tmp_path, corpus_dir, capsys,
                                                           monkeypatch, cpus):
        # every fold fails: the error is fold 0's, the lowest, however many
        # processes ran the folds
        set_usable_cpus(monkeypatch, cpus)
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps({**_TRAIN_HP, "learning_rate": 1e30}))
        out = tmp_path / "boom"
        capsys.readouterr()
        with np.errstate(all="ignore"):  # the forked worker inherits it
            code = run_cli("train", "--train", corpus_dir / "train.tsv",
                           "--embeddings", f"godin={corpus_dir}/embeddings.txt",
                           "--config", cfg, "--seed", 5, "--out", out,
                           "--unrestricted-space", "--max-epochs", 2)
        err = capsys.readouterr().err
        assert code == 3, err
        assert "numeric failure: fold 0: " in err and "Traceback" not in err
        assert not out.exists()
        assert_no_child_process()

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

    def test_stack_hashes_each_member_once(self, run_dir, tmp_path, monkeypatch):
        import scnn.ensemble
        from scnn import search

        log, real = tmp_path / "hashed.log", scnn.ensemble.file_sha256

        def logged(path):  # the forked hashing workers inherit it
            with open(log, "a") as fh:
                fh.write(f"{path}\n")
            return real(path)

        monkeypatch.setattr(scnn.ensemble, "file_sha256", logged)
        out = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", "1,2,3", "--out", out) == 0
        hashed = log.read_text().splitlines()
        assert len(hashed) == len(set(hashed)) == 3 * 5  # the top 3 trials' fold files
        # each manifest as save_ensemble writes its own top-K stack, hashing it
        monkeypatch.undo()
        run_manifest, records = search.load_run(run_dir)
        loaded = [search.load_trial_ensemble(run_dir, r, run_manifest["folds_k"])
                  for r in records[:3]]
        for k in (1, 2, 3):
            ref = tmp_path / "ref" / f"stack_top{k}.json"
            ref.parent.mkdir(exist_ok=True)
            save_ensemble(stack_top_k(loaded, k), ref, fold_seed=run_manifest["fold_seed"],
                          space_descriptor=run_manifest["space_descriptor"])
            assert (out / ref.name).read_bytes() == ref.read_bytes()

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
        (lambda h: h.update(dtype="float64"), "float64"),
        (lambda h: h.update(train_meta=None), "train_meta"),
        (lambda h: h["tensors"][0][1].reverse(), "conv0_w"),
        (lambda h: h["hp"].update(filter_sizes=[1, 2, 2, 2, 48]), "at most 47"),
    ] + [
        (lambda h, key=key: h.pop(key), key)
        for key in ("hp", "dtype", "tensors", "embedding_dim", "init_seed", "train_meta")
    ], ids=["dtype-float16", "dtype-float64", "train_meta-null", "conv0_w-transposed",
            "filter_sizes-48", "no-hp", "no-dtype", "no-tensors", "no-embedding_dim", "no-init_seed",
            "no-train_meta"])
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

    def test_predict_member_not_a_model_file(self, run_dir, corpus_dir, tmp_path, capsys):
        # the first member's header is read while the manifest loads
        stacks = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", "3", "--out", stacks) == 0
        manifest = stacks / "stack_top3.json"
        doc = json.loads(manifest.read_text())
        doc["members"][0]["path"] = os.path.relpath(run_dir / "manifest.json", stacks)
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        pred = tmp_path / "pred.tsv"
        code = run_cli("predict", "--manifest", manifest, "--test", corpus_dir / "test.tsv",
                       "--embeddings", f"godin={corpus_dir}/embeddings.txt,"
                                       f"shin={corpus_dir}/embeddings.txt", "--out", pred)
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{manifest}: " in err and "run/manifest.json: " in err
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

    @pytest.mark.parametrize("broken", [(1, 2), (0, 3)], ids=["worker-first", "caller-first"])
    def test_predict_names_the_first_broken_member_at_any_process_count(
            self, run_dir, corpus_dir, tmp_path, capsys, monkeypatch, broken):
        # on 2 CPUs the scnn process predicts members 0, 2 and 4 and its
        # worker 1 and 3: the two broken members fail on different processes
        stacks = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", "1", "--out", stacks) == 0
        manifest = stacks / "stack_top1.json"
        doc = json.loads(manifest.read_text())
        for j in broken:
            member = doc["members"][j]
            raw = bytearray((stacks / member["path"]).read_bytes())
            raw[-5] ^= 0x10  # a tensor byte
            flipped = tmp_path / f"flipped{j}.scnn"
            flipped.write_bytes(raw)
            member["path"] = os.path.relpath(flipped, stacks)
        manifest.write_text(json.dumps(doc))
        pred = tmp_path / "pred.tsv"
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            capsys.readouterr()
            code = run_cli("predict", "--manifest", manifest, "--test", corpus_dir / "test.tsv",
                           "--embeddings", f"godin={corpus_dir}/embeddings.txt,"
                                           f"shin={corpus_dir}/embeddings.txt", "--out", pred)
            err = capsys.readouterr().err
            assert code == 2, err
            assert f"hash mismatch for member {tmp_path / f'flipped{broken[0]}.scnn'}" in err
            assert f"flipped{broken[1]}" not in err and "Traceback" not in err
            assert not pred.exists()

    @pytest.mark.parametrize("value,unchecked", [
        (np.inf, "RuntimeWarning: invalid value encountered in subtract"),
        (np.nan, "numeric failure: "),
    ], ids=["forward-warns", "forward-raises"])
    def test_predict_reports_only_the_hash_mismatch(self, run_dir, corpus_dir, tmp_path,
                                                    value, unchecked):
        # a member's sha256 is checked before it predicts: on a mismatch its
        # forward on the edited weights never runs, so nothing it would print
        # or raise is reported
        stacks = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", "1", "--out", stacks) == 0
        manifest = stacks / "stack_top1.json"
        doc = json.loads(manifest.read_text())
        member = doc["members"][-1]
        raw = (stacks / member["path"]).read_bytes()
        edited = tmp_path / "edited.scnn"
        edited.write_bytes(raw[:-4] + np.float32(value).tobytes())  # out_b[2]
        member["path"] = os.path.relpath(edited, stacks)
        emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
        argv = ["-m", "scnn", "predict", "--manifest", str(manifest),
                "--test", str(corpus_dir / "test.tsv"), "--embeddings", emb,
                "--out", str(tmp_path / "pred.tsv")]

        member["sha256"] = hashlib.sha256(edited.read_bytes()).hexdigest()
        manifest.write_text(json.dumps(doc))
        proc = _run_python(*argv)  # the digest matches: the forward's output shows
        assert unchecked in proc.stderr, proc.stderr
        (tmp_path / "pred.tsv").unlink(missing_ok=True)

        member["sha256"] = hashlib.sha256(raw).hexdigest()
        manifest.write_text(json.dumps(doc))
        proc = _run_python(*argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            f"data error: {manifest}: hash mismatch for member {edited}"]
        assert not (tmp_path / "pred.tsv").exists()

    def test_predict_restores_the_blas_thread_count(self, run_dir, corpus_dir, tmp_path,
                                                     monkeypatch):
        # cli.main runs every command on one BLAS thread: predict and search here
        import scnn.search

        threads = cli._openblas_threads()
        if threads is None:
            pytest.skip("numpy's OpenBLAS does not export its thread count")
        get, set_count = threads
        stacks = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", "1", "--out", stacks) == 0
        emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
        during = []
        for module, name in ((cli, "stacked_predict"), (scnn.search, "run_search")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, **kwargs:
                                during.append(get()) or real(*args, **kwargs))
        predict = ["predict", "--manifest", stacks / "stack_top1.json", "--embeddings", emb,
                   "--out", tmp_path / "pred.tsv", "--test"]
        search = ["search", "--embeddings", emb, "--trials", 1, "--folds", 2, "--seed", 1,
                  "--out", tmp_path / "run", "--config", corpus_dir / "space.json",
                  "--unrestricted-space", "--max-epochs", 1, "--parallelism", 1, "--train"]
        before = get()
        try:
            set_count(2)
            for argv, code in ((predict + [corpus_dir / "test.tsv"], 0),
                               (predict + [tmp_path / "absent.tsv"], 2),
                               (search + [corpus_dir / "train.tsv"], 0),
                               (search + [tmp_path / "absent.tsv"], 2)):
                assert run_cli(*argv) == code
                assert get() == 2  # after a command that returned, and one that failed
        finally:
            set_count(before)
        assert during == [1, 1]

    @pytest.mark.parametrize("edit,named", [
        (lambda run: _replace_in(run / "trials" / "0" / "oof.tsv", "\t", "\tx", 1),
         "oof.tsv: malformed number at line 1"),
        (lambda run: (run / "trials" / "0" / "oof.tsv").unlink(), "oof.tsv"),
        (lambda run: _set_cell(run / "trials" / "0" / "oof.tsv", 1, 2, "7", sep="\t"),
         "oof.tsv: label out of range at line 1"),
        (lambda run: _replace_in(run / "manifest.json", '"folds_k"', '"k"', 1),
         "manifest.json: run manifest lacks folds_k"),
        (lambda run: _replace_in(run / "manifest.json", '"format_version": 1',
                                 '"format_version": 2', 1),
         "manifest.json: run manifest format_version must be an integer <= 1, got 2"),
        (lambda run: _replace_in(run / "leaderboard.csv", "\n", "\nx", 1),
         "leaderboard.csv: malformed row at line 2"),
        (lambda run: _set_cell(run / "leaderboard.csv", 3, 4, "7.0"),
         "leaderboard.csv: malformed row at line 3: hp adam_b2 must be a number in (0, 1)"),
        (lambda run: _duplicate_line(run / "leaderboard.csv", 2),
         "leaderboard.csv: malformed row at line 3: duplicate trial"),
        (lambda run: _set_cell(run / "leaderboard.csv", 3, 11, "1-2-3-4-48"),
         "leaderboard.csv: malformed row at line 3: hp filter_sizes must be exactly 5 "
         "positive integers of at most 47"),
    ] + [
        (lambda run, score=score: _set_cell(run / "leaderboard.csv", 2, 1, score),
         f"leaderboard.csv: malformed row at line 2: cv_score {score} is not in [0, 1]")
        for score in ("nan", "inf", "-1", "1e309")
    ] + [
        # line 2 holds trial 0, the best; each edit used to stack trial 2
        (lambda run: _delete_line(run / "leaderboard.csv", 2),
         "leaderboard.csv: trial ids must be 0 to 2 (the n_trials of "),
        (lambda run: _set_cell(run / "leaderboard.csv", 2, 1, "0.100000"),
         "leaderboard.csv: trial 0's cv_score 0.100000 does not match the 0.457627 "
         "of its out-of-fold predictions in "),
        (lambda run: _set_cell(run / "leaderboard.csv", 2, 2, "okay"),
         "leaderboard.csv: malformed row at line 2: status 'okay' is neither ok nor "
         "failed: <reason>"),
    ], ids=["oof-fold", "oof-missing", "oof-label", "manifest-folds-k",
            "manifest-format-version", "leaderboard-trial-id",
            "leaderboard-adam_b2", "leaderboard-duplicate", "leaderboard-filter_sizes-48",
            "cv-nan", "cv-inf", "cv-minus-1", "cv-1e309", "leaderboard-missing-trial", "leaderboard-cv-score",
            "leaderboard-status"])
    def test_stack_bad_run_directory(self, run_dir, tmp_path, capsys, edit, named):
        # every row is checked, not only the top trial that --top-k 1 loads
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        edit(run)
        capsys.readouterr()
        out = tmp_path / "stacks"
        code = run_cli("stack", "--run", run, "--top-k", "1", "--out", out)
        err = capsys.readouterr().err
        assert code == 2, err
        assert named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("with_test", [False, True], ids=["manifest", "report"])
    def test_stack_ranks_leaderboard_rows_itself(self, run_dir, corpus_dir, tmp_path,
                                                 with_test):
        emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
        extra = ["--test", corpus_dir / "test.tsv", "--embeddings", emb] if with_test else []
        for name in ("clean", "swapped"):
            run = tmp_path / name / "run"
            shutil.copytree(run_dir, run)
            if name == "swapped":  # the best trial's row moves below the second's
                board = run / "leaderboard.csv"
                lines = board.read_text().split("\n")
                assert float(lines[1].split(",")[1]) > float(lines[2].split(",")[1])
                lines[1], lines[2] = lines[2], lines[1]
                board.write_text("\n".join(lines))
            assert run_cli("stack", "--run", run, "--top-k", 1,
                           "--out", tmp_path / name / "stacks", *extra) == 0
        # the runs sit at the same place relative to their stacks, so the
        # manifests' member paths are equal too
        for out in ["stack_top1.json"] + (["report.csv"] if with_test else []):
            assert ((tmp_path / "swapped" / "stacks" / out).read_bytes()
                    == (tmp_path / "clean" / "stacks" / out).read_bytes())

    def test_stack_ranks_by_unrounded_scores(self, run_dir, tmp_path, monkeypatch):
        import scnn.search

        # trials 0 and 1 tie at 6 decimals; trial 1's true score is higher,
        # so neither the tie-break by id nor the rounded scores would pick it
        scores = {0: 0.4000001, 1: 0.4000004, 2: 0.3}
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        board = run / "leaderboard.csv"
        for line, row in enumerate(board.read_text().split("\n")[1:4], 2):
            _set_cell(board, line, 1, f"{scores[int(row.split(',')[0])]:.6f}")
        # stack scores each trial's oof.tsv, known here by its probabilities
        by_probs = {scnn.search.parse_oof_tsv(run / "trials" / str(tid) / "oof.tsv")[3]
                    .tobytes(): score for tid, score in scores.items()}
        monkeypatch.setattr(scnn.search.metrics, "micro_f1_12",
                            lambda labels, probs: by_probs[probs.tobytes()])
        assert run_cli("stack", "--run", run, "--top-k", 1, "--out", tmp_path / "s") == 0
        doc = json.loads((tmp_path / "s" / "stack_top1.json").read_text())
        assert {(m["trial_id"], m["cv_score"]) for m in doc["members"]} == {(1, 0.4)}

    def test_stack_builds_the_fold_split_once(self, run_dir, tmp_path, monkeypatch):
        import scnn.search

        real, calls = scnn.search.stratified_kfold, []
        monkeypatch.setattr(scnn.search, "stratified_kfold",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        assert run_cli("stack", "--run", run_dir, "--top-k", 3, "--out", tmp_path / "s") == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("column", [0, 2], ids=["id", "label"])
    def test_stack_oof_columns_differ_between_trials(self, run_dir, tmp_path, capsys, column):
        # swap two rows' cells in trial 1's oof.tsv: both rows have the same
        # predicted class and different gold labels, so its score stays
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        oof = run / "trials" / "1" / "oof.tsv"
        rows = [line.split("\t") for line in oof.read_text().splitlines()]
        pred = [int(np.argmax([float(p) for p in row[3:]])) for row in rows]
        i, j = next((i, j) for i in range(len(rows)) for j in range(i)
                    if pred[i] == pred[j] and rows[i][2] != rows[j][2])
        rows[i][column], rows[j][column] = rows[j][column], rows[i][column]
        oof.write_text("".join("\t".join(row) + "\n" for row in rows))
        capsys.readouterr()
        out = tmp_path / "stacks"
        code = run_cli("stack", "--run", run, "--top-k", 1, "--out", out)
        err = capsys.readouterr().err
        assert code == 2, err
        assert (f"{oof}: its ids, labels or folds differ from those of "
                f"{run / 'trials' / '0' / 'oof.tsv'}") in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "stack"])
    def test_embedding_dimension_mismatch_exits_2(self, run_dir, corpus_dir, tmp_path,
                                                  capsys, command):
        small = tmp_path / "dim8"
        assert run_cli("synth", "--out", small, "--seed", 7, "--dim", 8,
                       "--train-size", 0, "--test-size", 0) == 0
        emb8 = f"godin={small}/embeddings.txt,shin={small}/embeddings.txt"
        test = ["--test", corpus_dir / "test.tsv", "--embeddings", emb8]
        out = tmp_path / "out"
        if command == "predict":
            stacks = tmp_path / "stacks"
            assert run_cli("stack", "--run", run_dir, "--top-k", 1, "--out", stacks) == 0
            argv = ["predict", "--manifest", stacks / "stack_top1.json", *test, "--out", out]
        else:
            argv = ["stack", "--run", run_dir, "--top-k", 1, "--out", out, *test]
        capsys.readouterr()
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert ".scnn: takes 16-dim embeddings, the " in err and " table has 8" in err
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def _nan_embeddings(corpus_dir, tmp_path):
        """The corpus's embeddings file with a NaN in markerone's vector, a
        word of every class-1 tweet; --embeddings naming it twice."""
        path = tmp_path / "nan_embeddings.txt"
        lines = (corpus_dir / "embeddings.txt").read_text().split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("markerone "))
        fields = lines[at].split(" ")
        fields[2] = "nan"
        lines[at] = " ".join(fields)
        path.write_text("\n".join(lines))
        return f"godin={path},shin={path}"

    def test_nan_in_a_used_embedding_fails_its_trials(self, corpus_dir, tmp_path, capsys):
        emb = self._nan_embeddings(corpus_dir, tmp_path)
        out = tmp_path / "run"
        code = run_cli("search", "--train", corpus_dir / "train.tsv", "--embeddings", emb,
                       "--trials", 2, "--seed", 1, "--out", out, "--parallelism", 2,
                       "--config", corpus_dir / "space.json", "--unrestricted-space",
                       "--max-epochs", 1)
        assert code == 0, capsys.readouterr().err
        rows = (out / "leaderboard.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[2] for row in rows] == [
            "failed: fold 0: softmax input contains NaN"] * 2
        assert not (out / "trials" / "0").exists()

    def test_nan_in_a_used_embedding_fails_predict_with_exit_3(self, run_dir, corpus_dir,
                                                              tmp_path):
        stacks = tmp_path / "stacks"
        assert run_cli("stack", "--run", run_dir, "--top-k", 1, "--out", stacks) == 0
        out = tmp_path / "predictions.tsv"
        proc = _run_python("-m", "scnn", "predict", "--manifest",
                           str(stacks / "stack_top1.json"), "--test",
                           str(corpus_dir / "test.tsv"), "--embeddings",
                           self._nan_embeddings(corpus_dir, tmp_path), "--out", str(out))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.rstrip().endswith("numeric failure: softmax input contains NaN")
        assert "Traceback" not in proc.stderr
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

    @pytest.mark.parametrize("probs,problem", [
        ("nan\t0.0\t0.0", "probability outside [0, 1]"),
        ("inf\t0.0\t0.0", "probability outside [0, 1]"),
        ("1.000001\t0.0\t0.0", "probability outside [0, 1]"),
        ("0.6\t-0.1\t0.5", "probability outside [0, 1]"),
        ("0.4\t0.400001\t0.2", "label 1 is not the most probable class"),
    ], ids=["nan", "inf", "above-1", "negative", "not-argmax"])
    def test_evaluate_checks_probabilities(self, tmp_path, corpus_dir, capsys, probs,
                                           problem):
        ids = [line.split("\t")[0] for line in
               (corpus_dir / "test.tsv").read_text().strip().split("\n")]
        pred = tmp_path / "pred.tsv"
        lines = [f"{ex_id}\t3\t0.0\t0.0\t1.0\n" for ex_id in ids]
        lines[1] = f"{ids[1]}\t1\t{probs}\n"
        pred.write_text("".join(lines))
        capsys.readouterr()
        assert run_cli("evaluate", "--gold", corpus_dir / "test.tsv", "--pred", pred) == 2
        assert f"{pred}: {problem} at line 2" in capsys.readouterr().err

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
        assert ("pred.tsv: expected 5 tab-separated fields at line 1, got "
                in capsys.readouterr().err)


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
        import scnn.gradcheck

        monkeypatch.setattr(scnn.gradcheck, "run_gradcheck", lambda *a, **k: 1.0)
        assert run_cli("gradcheck", "--seed", 7, "--cases", 1) == 3


def _run_python(*args, env=None):
    """A fresh interpreter that imports scnn from this source tree, in
    ``env`` (default: this process's environment)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point(corpus_dir):
    # `python -m scnn` works for subprocess callers, from this source tree
    proc = _run_python("-m", "scnn", "gradcheck", "--seed", "3", "--cases", "1")
    assert proc.returncode == 0, proc.stderr
    assert "max relative gradient error" in proc.stdout


def test_predict_bytes_do_not_depend_on_blas_threading(tmp_path):
    # at 400 dims OpenBLAS rounds some products differently on one thread
    # than on two (400 tweets of one random member: 26 rows of 6-decimal
    # probabilities), so predict runs BLAS on one thread whatever the
    # environment says
    corpus = tmp_path / "corpus"
    assert run_cli("synth", "--out", corpus, "--seed", 7, "--dim", 400,
                   "--train-size", 0, "--test-size", 400) == 0
    hp = HyperParams(adam_b2=0.999, n_dense_output=100, keep_prob=0.5, batch_size=50,
                     learning_rate=0.001, word_embedding="godin", n_filters=400,
                     filter_sizes=(3, 4, 5, 6, 7))
    member = tmp_path / "member.scnn"
    save_net(build_model(hp, 400, seed=0), member)
    manifest = tmp_path / "stack.json"
    save_ensemble([Trial(0, hp, 0.5, members=[ModelFile(str(member))])], manifest,
                  fold_seed=0, space_descriptor="paper shape")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    written = {}
    for threads in (None, "1", "2"):
        out = tmp_path / f"pred-{threads}.tsv"
        proc = _run_python("-m", "scnn", "predict", "--manifest", str(manifest),
                           "--test", str(corpus / "test.tsv"),
                           "--embeddings", f"godin={corpus}/embeddings.txt", "--out", str(out),
                           env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        written[threads] = out.read_bytes()
    assert written["1"] == written[None] == written["2"]


def _log_forward(log):
    """Append this process's pid, and whether this is its main thread, to
    ``log``: one line per forward, from every process."""
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {threading.current_thread() is threading.main_thread()}\n")


def _logged_forwards(log):
    """(pid, whether on its main thread) of each forward ``log`` holds."""
    return [(pid, main == "True") for pid, main in map(str.split, log.read_text().splitlines())]


def test_stack_and_predict_bytes_do_not_depend_on_the_usable_cpus(run_dir, corpus_dir,
                                                                 tmp_path, monkeypatch):
    from scnn import model as M

    monkeypatch.setattr(M, "_PREDICT_CHUNK", 8)  # 30 tweets: 4 chunks
    log, forward = tmp_path / "forwards.log", M.forward_batch

    def logged(*args, **kwargs):  # the forked workers inherit it
        _log_forward(log)
        return forward(*args, **kwargs)

    monkeypatch.setattr(M, "forward_batch", logged)
    emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
    written = {}
    for cpus in (1, 2, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        out = tmp_path / str(cpus)
        for argv in (["stack", "--run", run_dir, "--top-k", "1,3", "--out", out / "stacks",
                      "--test", corpus_dir / "test.tsv", "--embeddings", emb],
                     ["predict", "--manifest", out / "stacks" / "stack_top3.json",
                      "--test", corpus_dir / "test.tsv", "--embeddings", emb,
                      "--out", out / "pred.tsv"]):
            log.write_text("")
            assert run_cli(*argv) == 0
            # 3 trials x 5 folds x 4 chunks, on min(cpus, 15) processes, each
            # forward on its process's main thread, the one thread scnn runs
            ran = _logged_forwards(log)
            pids = {pid for pid, _ in ran}
            assert len(ran) == 60 and all(main for _, main in ran)
            assert str(os.getpid()) in pids and len(pids) <= cpus
            assert (len(pids) > 1) == (cpus > 1)
        written[cpus] = _tree(out)
    assert written[1] == written[2] == written[4]


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_search_bytes_do_not_depend_on_parallelism_or_blas_threading(tmp_path):
    # at 400 dims OpenBLAS gives other last bits on two threads than on one,
    # so every scnn process runs BLAS on one thread, as every worker does
    assert run_cli("synth", "--out", tmp_path / "c", "--seed", 7, "--dim", 400,
                   "--train-size", 60, "--test-size", 0) == 0
    space = tmp_path / "space.json"
    space.write_text(json.dumps({**{name: [v] for name, v in _PAPER_HP.items()},
                                 "learning_rate": [0.001, 0.0001]}))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    runs = {}
    for parallelism, threads in ((1, None), (2, None), (4, None), (1, "1"), (1, "2")):
        out = tmp_path / f"run-p{parallelism}-{threads}"
        proc = _run_python("-m", "scnn", "search", "--train", str(tmp_path / "c" / "train.tsv"),
                           "--embeddings", f"godin={tmp_path}/c/embeddings.txt",
                           "--trials", "2", "--folds", "2", "--seed", "1", "--out", str(out),
                           "--config", str(space), "--unrestricted-space", "--max-epochs", "1",
                           "--parallelism", str(parallelism),
                           env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        runs[parallelism, threads] = _tree(out)
    first = runs[1, None]
    assert len(first) == 2 * 3 + 2  # two trials' folds and oof.tsv, leaderboard, manifest
    assert all(run == first for run in runs.values())


_FAILING_SEARCH = """
import os, sys
from scnn import cli, search

real_run_unit = search.run_unit


def run_unit(inputs, tid, hp, fold, buffers):
    with open(os.environ["UNIT_LOG"], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    return real_run_unit(inputs, tid, hp, fold, buffers)


def write_oof(inputs, trial_dir, rows):
    raise RuntimeError("oof writer broke")


if __name__ == "__main__":
    search.run_unit = run_unit  # forked workers inherit it
    search.write_oof = write_oof
    sys.exit(cli.main(sys.argv[1:]))
"""


def test_search_failure_stops_workers_after_their_current_unit(corpus_dir, tmp_path):
    # the scnn process fails on the first trial it finishes, while its
    # worker has units left: the worker starts none of them, and the command
    # exits as any failure does, with no process left behind
    script, log, out = tmp_path / "failing_search.py", tmp_path / "units.log", tmp_path / "run"
    script.write_text(_FAILING_SEARCH)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "UNIT_LOG": str(log),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
    proc = subprocess.Popen(
        [sys.executable, str(script), "search", "--train", str(corpus_dir / "train.tsv"),
         "--embeddings", emb, "--trials", "8", "--folds", "2", "--seed", "1", "--out", str(out),
         "--config", str(corpus_dir / "space.json"), "--unrestricted-space",
         "--max-epochs", "2", "--parallelism", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=120)  # a worker left running holds the pipe open
    assert proc.returncode == 4, err
    assert "internal error: RuntimeError: oof writer broke" in err
    assert "Traceback" not in err
    assert not out.exists()
    pids = log.read_text().split()
    worker_units = [pid for pid in pids if pid != str(proc.pid)]
    assert 1 <= len(worker_units) < 8  # its share is 8 of the 16 units
    for pid in set(worker_units):
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


def test_cli_loads_search_synth_and_gradcheck_only_when_used():
    # predict and evaluate start without them
    proc = _run_python("-c", "import sys, scnn.cli; print(sorted(m for m in sys.modules "
                             "if m in ('scnn.search', 'scnn.synth', 'scnn.gradcheck')))")
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stdout + proc.stderr


_MODULES_AFTER = """
import os, sys
from scnn import cli

os.sched_getaffinity = lambda pid: {0, 1}  # two processes on any machine
code = cli.main(sys.argv[1:])
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("multiprocessing", "concurrent")))
sys.exit(code)
"""


@pytest.mark.parametrize("command", ["search", "predict"])
def test_parallel_commands_load_no_multiprocessing(run_dir, corpus_dir, tmp_path, command):
    # the workers are forked directly: neither multiprocessing nor
    # concurrent.futures is loaded, on two processes
    emb = f"godin={corpus_dir}/embeddings.txt,shin={corpus_dir}/embeddings.txt"
    if command == "search":
        argv = ["search", "--train", corpus_dir / "train.tsv", "--embeddings", emb,
                "--trials", 1, "--seed", 1, "--out", tmp_path / "run", "--parallelism", 2,
                "--config", corpus_dir / "space.json", "--unrestricted-space",
                "--max-epochs", 1]
    else:
        assert run_cli("stack", "--run", run_dir, "--top-k", 1, "--out", tmp_path / "s") == 0
        argv = ["predict", "--manifest", tmp_path / "s" / "stack_top1.json",
                "--test", corpus_dir / "test.tsv", "--embeddings", emb,
                "--out", tmp_path / "pred.tsv"]
    proc = _run_python("-c", _MODULES_AFTER, *map(str, argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n", proc.stdout


def test_import_scnn_loads_nothing():
    # the package re-exports nothing, so importing it loads no submodule
    proc = _run_python("-c", "import scnn, sys; assert 'numpy' not in sys.modules, "
                             "sorted(m for m in sys.modules if m.startswith('scnn'))")
    assert proc.returncode == 0, proc.stderr


def test_readme_walkthrough_parses():
    # a flag renamed or removed in the CLI fails here instead of going stale
    # in the README's CLI walkthrough
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1].split("```")[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["scnn"]]
    assert {argv[0] for argv in commands} == {"synth", "search", "stack", "predict",
                                              "evaluate", "gradcheck"}
    for argv in commands:
        _build_parser().parse_args(argv)
