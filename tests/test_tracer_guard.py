"""The benchmark's tracer still wraps every function it names.

perfbench/tracer.py wraps ``scnn`` functions where their callers look them
up and counts some of them from their arguments, so a renamed function or a
changed call breaks every traced benchmark run. This runs it on a tiny
search, stack, predict and train and checks that each wrapped name is
entered, that train enters the fold code the search trials run, and that
the traced ``embeddings.doc_bytes`` is the size of the documents each step
embeds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from scnn.corpus import parse_dataset, to_token_seqs
from scnn.embeddings import load_embeddings, lookup_docs

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
EMB = "godin=corpus/embeddings.txt,shin=corpus/embeddings.txt"


def _run(argv, cwd, spans=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = ([sys.executable, "-m", "scnn"] if spans is None
           else [sys.executable, str(TRACER), str(spans), "--"])
    proc = subprocess.run(cmd + argv, cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, f"{argv[0]}: {proc.stderr[-2000:]}"


def test_tracer_enters_every_target(tmp_path):
    sys.path.insert(0, str(TRACER.parent))
    try:
        import tracer
    finally:
        sys.path.remove(str(TRACER.parent))
    _run(["synth", "--out", "corpus", "--seed", "3", "--train-size", "40",
          "--test-size", "20"], tmp_path)
    hp = {name: values[0] for name, values in
          json.loads((tmp_path / "corpus" / "space.json").read_text()).items()}
    (tmp_path / "hp.json").write_text(json.dumps(hp))
    steps = [
        ["search", "--train", "corpus/train.tsv", "--embeddings", EMB, "--trials", "1",
         "--folds", "2", "--seed", "5", "--out", "run", "--config", "corpus/space.json",
         "--unrestricted-space", "--max-epochs", "2", "--parallelism", "1"],
        ["stack", "--run", "run", "--top-k", "1", "--out", "stacks",
         "--test", "corpus/test.tsv", "--embeddings", EMB],
        ["predict", "--manifest", "stacks/stack_top1.json", "--test", "corpus/test.tsv",
         "--embeddings", EMB, "--out", "predictions.tsv"],
        ["train", "--train", "corpus/train.tsv", "--embeddings", EMB, "--config", "hp.json",
         "--folds", "2", "--seed", "5", "--out", "one", "--unrestricted-space",
         "--max-epochs", "2"],
    ]
    entered, doc_bytes = [], []
    for i, argv in enumerate(steps):
        spans = tmp_path / f"spans{i}.json"
        _run(argv, tmp_path, spans)
        traced = json.loads(spans.read_text())
        entered.append(set(traced["entered"]))
        doc_bytes.append(traced["counts"].get("embeddings.doc_bytes"))
    assert sorted(set(tracer.TARGET_NAMES) - set().union(*entered)) == []
    # train trains and saves its folds through the functions search's units call
    assert {"scnn.search.train_fold_ensemble", "scnn.search.save_model"} <= entered[-1]
    # each step embeds its input once (godin and shin name one file): the
    # nbytes of its Documents, ids and rows
    table = load_embeddings(tmp_path / "corpus" / "embeddings.txt", "godin")
    embedded = {name: lookup_docs(table, to_token_seqs(parse_dataset(
        tmp_path / "corpus" / name))).nbytes for name in ("train.tsv", "test.tsv")}
    assert doc_bytes == [embedded["train.tsv"], embedded["test.tsv"], embedded["test.tsv"],
                         embedded["train.tsv"]]
