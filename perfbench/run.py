#!/usr/bin/env python3
"""The scnn benchmark: runs the real CLI the way a user does and checks it.

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is used from ``src/`` through
PYTHONPATH, not installed. With ``--trace 0`` each workload is set up at
least three times (the median is ``setup_s``), then its timed CLI steps
repeat for ``--seconds`` seconds (at least twice), each step a child
process. With ``--trace 1`` the workload runs twice traced and once
untraced, every traced step in a child that wraps the package's functions
(perfbench/tracer.py), and the per-layer metrics are reported. Every run
checks the outputs; a failed check is printed by name and counted in
``failed``. Human-readable lines come first; the last line of stdout is the
JSON result. perfbench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Set-up repeats at least MIN_SETUPS times and, while it is short, until
# SETUP_SECONDS have passed: one synth process is too noisy to time once.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 10, 2.0
MIN_ITERATIONS = 2
DEADLINE_S = 150  # stop repeating early so a run always ends within 180 s
F1_THRESHOLD = 0.90
EMB = "godin=corpus/embeddings.txt,shin=corpus/embeddings.txt"
# The workload seed picks the corpus. Searches keep the acceptance
# pipeline's seed, so every seed trains the same configurations and the
# amount of work does not depend on the seed.
SEARCH_SEED = "42"
# Paper shape: 400 filters of widths 3..7 and batch 50 (the cost-setting
# fields); n_dense_output is pinned too so one trial's work is fixed.
PAPER_SPACE = {"n_filters": [400], "filter_sizes": [[3, 4, 5, 6, 7]],
               "batch_size": [50], "n_dense_output": [100]}


def _search(trials, epochs, config, *extra):
    return ["search", "--train", "corpus/train.tsv", "--embeddings", EMB,
            "--trials", str(trials), "--folds", "5", "--seed", SEARCH_SEED,
            "--out", "run", "--config", config, "--max-epochs", str(epochs), *extra]


def _predict(k):
    return ["predict", "--manifest", f"stacks/stack_top{k}.json",
            "--test", "corpus/test.tsv", "--embeddings", EMB, "--out", "predictions.tsv"]


def _synth_paper(train, test):
    return ["synth", "--out", "corpus", "--seed", "{seed}", "--dim", "400",
            "--train-size", str(train), "--test-size", str(test)]


@dataclass
class Workload:
    name: str
    setup: list        # CLI steps; "{seed}" is replaced by the workload seed
    timed: list        # CLI steps measured by wall_s
    outputs: list      # paths the timed steps create, removed before each repeat
    paper_space: bool = False
    predict_samples: int = 1  # predict runs this often per repeat
    unreached: set = field(default_factory=set)  # wrapped names it never calls


WORKLOADS = {w.name: w for w in [
    Workload(
        name="desk_pipeline",
        setup=[["synth", "--out", "corpus", "--seed", "{seed}", "--test-size", "4000"]],
        timed=[
            # patience = max epochs: every model trains exactly 12 epochs, so
            # the work does not depend on the corpus; 12 epochs keep test
            # micro-F1 well above the 0.90 gate
            _search(3, 12, "corpus/space.json", "--unrestricted-space", "--parallelism", "2",
                    "--patience", "12"),
            ["stack", "--run", "run", "--top-k", "3", "--out", "stacks",
             "--test", "corpus/test.tsv", "--embeddings", EMB],
            _predict(3),
            ["evaluate", "--gold", "corpus/test.tsv", "--pred", "predictions.tsv",
             "--out", "metrics.json"],
        ],
        outputs=["run", "stacks", "predictions.tsv", "metrics.json"],
        # one short predict process is too noisy to time once
        predict_samples=5,
    ),
    Workload(
        name="paper_trial",
        setup=[_synth_paper(100, 40)],
        timed=[_search(1, 1, "space.json"),
               ["stack", "--run", "run", "--top-k", "1", "--out", "stacks"],
               _predict(1)],
        outputs=["run", "stacks", "predictions.tsv"],
        paper_space=True,
        predict_samples=3,
        unreached={"scnn.search.ensemble_predict"},
    ),
    Workload(
        name="paper_predict",
        setup=[_synth_paper(20, 100), _search(3, 1, "space.json"),
               ["stack", "--run", "run", "--top-k", "3", "--out", "stacks"]],
        timed=[_predict(3)],
        outputs=["predictions.tsv"],
        paper_space=True,
        unreached={"scnn.search.ensemble_predict"},
    ),
]}


class Gates:
    """Counts CLI steps and correctness checks; failures are kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
            print(f"FAILED: {name}", file=sys.stderr)
        return ok


@dataclass
class Step:
    command: str
    wall_s: float
    rss_mb: float
    ok: bool
    trace: Path = None
    spawned: float = 0.0


def run_step(argv, cwd: Path, logs: Path, gates: Gates, trace_file: Path = None) -> Step:
    """One CLI step in a child process; its peak RSS comes from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if trace_file is None:
        cmd = [sys.executable, "-m", "scnn", *argv]
    else:
        cmd = [sys.executable, str(Path(tracer.__file__)), str(trace_file), "--", *argv]
    log = logs / f"{argv[0]}.log"
    with open(log, "wb") as err:
        spawned = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                 stdout=err, stderr=err)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - spawned
    child.returncode = os.waitstatus_to_exitcode(status)
    ok = gates.check(f"{argv[0]} exits 0", child.returncode == 0)
    if not ok:
        sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-2000:])
    return Step(argv[0], wall, usage.ru_maxrss / 1024.0, ok, trace_file, spawned)


def run_steps(steps, cwd: Path, logs: Path, gates: Gates, seed: int, traced=False) -> list:
    done = []
    for i, argv in enumerate(steps):
        argv = [a.replace("{seed}", str(seed)) for a in argv]
        trace_file = logs / f"spans{i}-{argv[0]}.json" if traced else None
        step = run_step(argv, cwd, logs, gates, trace_file)
        done.append(step)
        if not step.ok:
            break
    return done


def setup_workspace(wl: Workload, ws: Path, logs: Path, gates: Gates, seed: int,
                    traced=False) -> list:
    if ws.exists():
        shutil.rmtree(ws)
    ws.mkdir(parents=True)
    if wl.paper_space:
        (ws / "space.json").write_text(json.dumps(PAPER_SPACE, indent=2) + "\n")
    return run_steps(wl.setup, ws, logs, gates, seed, traced)


def digest(root: Path, names=None) -> str:
    """sha256 over the relative paths and bytes of the files under root."""
    h = hashlib.sha256()
    tops = [root / n for n in names] if names is not None else [root]
    files = []
    for top in tops:
        if top.is_file():
            files.append(top)
        elif top.is_dir():
            files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _epochs_run(model_path: Path) -> int:
    with open(model_path, "rb") as fh:
        fh.read(4)
        _, header_len = struct.unpack("<II", fh.read(8))
        return json.loads(fh.read(header_len))["train_meta"]["epochs_run"]


def train_examples(run_dir: Path) -> int:
    """Sum over every trained model of its fold's train size x epochs_run."""
    total = 0
    for trial in (run_dir / "trials").iterdir():
        folds = [line.split("\t")[1] for line in
                 (trial / "oof.tsv").read_text(encoding="utf-8").splitlines()]
        for model in trial.glob("fold*.scnn"):
            held_out = folds.count(model.stem[len("fold"):])
            total += (len(folds) - held_out) * _epochs_run(model)
    return total


def check_outputs(wl: Workload, ws: Path, gates: Gates) -> dict:
    """Output gates of one pass; returns the quality figures it read."""
    found = {}
    test_ids = [line.split("\t")[0] for line in
                (ws / "corpus" / "test.tsv").read_text(encoding="utf-8").splitlines() if line]
    rows = [line.split("\t") for line in
            (ws / "predictions.tsv").read_text(encoding="utf-8").splitlines() if line]
    found["tweets"] = len(rows)
    gates.check("prediction ids and row count match the input",
                [r[0] for r in rows] == test_ids)
    gates.check("probability rows sum to 1 within 1e-5",
                all(len(r) == 5 and abs(sum(map(float, r[2:])) - 1.0) <= 1e-5 for r in rows))
    if (ws / "metrics.json").exists():
        f1 = json.loads((ws / "metrics.json").read_text())["f1_m"]
        found["test_micro_f1"] = f1
        gates.check(f"test_micro_f1 >= {F1_THRESHOLD}", f1 >= F1_THRESHOLD)
    return found


def _train_rate(done, ws: Path):
    search = [s for s in done if s.command == "search"]
    return train_examples(ws / "run") / search[0].wall_s if search else None


def timed_run(wl: Workload, seed: int, seconds: float, work: Path, gates: Gates):
    logs = work / "logs"
    logs.mkdir(parents=True)
    samples = {k: [] for k in ("setup_s", "wall_s", "train_examples_per_s",
                               "predict_tweets_per_s", "peak_rss_mb")}
    quality = []
    setup_digests = []
    began = time.perf_counter()
    ws = None
    while len(setup_digests) < MIN_SETUPS or (
            time.perf_counter() - began < SETUP_SECONDS and len(setup_digests) < MAX_SETUPS):
        if ws is not None:
            shutil.rmtree(ws)
        ws = work / f"setup{len(setup_digests)}"
        started = time.perf_counter()
        done = setup_workspace(wl, ws, logs, gates, seed)
        samples["setup_s"].append(time.perf_counter() - started)
        if not all(s.ok for s in done):
            return samples, quality
        setup_digests.append(digest(ws))
        rate = _train_rate(done, ws)
        if rate is not None:
            samples["train_examples_per_s"].append(rate)
    gates.check("set-up outputs identical across set-ups", len(set(setup_digests)) == 1)

    predict = next(argv for argv in wl.timed if argv[0] == "predict")
    output_digests, prediction_digests = [], []
    began = time.perf_counter()
    while (len(output_digests) < MIN_ITERATIONS
           or time.perf_counter() - began < seconds):
        for name in wl.outputs:
            path = ws / name
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        done = run_steps(wl.timed, ws, logs, gates, seed)
        if not all(s.ok for s in done):
            return samples, quality
        samples["wall_s"].append(sum(s.wall_s for s in done))
        found = check_outputs(wl, ws, gates)
        quality.append(found)
        output_digests.append(digest(ws, wl.outputs))
        rate = _train_rate(done, ws)
        if rate is not None:
            samples["train_examples_per_s"].append(rate)
        # extra predict samples are timed but left out of wall_s
        for _ in range(wl.predict_samples - 1):
            done += run_steps([predict], ws, logs, gates, seed)
            if not done[-1].ok:
                return samples, quality
            prediction_digests.append(digest(ws, ["predictions.tsv"]))
        samples["peak_rss_mb"].append(max(s.rss_mb for s in done))
        samples["predict_tweets_per_s"] += [found["tweets"] / s.wall_s
                                            for s in done if s.command == "predict"]
        if time.perf_counter() - STARTED + samples["wall_s"][-1] > DEADLINE_S:
            break
    gates.check("outputs identical across repeats (run/, stacks/, predictions.tsv)",
                len(set(output_digests)) == 1)
    if prediction_digests:
        gates.check("repeated predicts write identical predictions",
                    set(prediction_digests) == {digest(ws, ["predictions.tsv"])})
    return samples, quality


def traced_run(wl: Workload, seed: int, work: Path, gates: Gates):
    """Two traced passes and one untraced pass over set-up plus timed steps."""
    passes = []
    # the untraced pass runs between the traced ones, so neither side is
    # always the first pass of the run
    for label in ("traced0", "plain", "traced1"):
        traced = label != "plain"
        ws, logs = work / label, work / f"logs-{label}"
        logs.mkdir(parents=True)
        began = time.perf_counter()
        done = setup_workspace(wl, ws, logs, gates, seed, traced)
        if all(s.ok for s in done):
            done += run_steps(wl.timed, ws, logs, gates, seed, traced)
        took = time.perf_counter() - began
        if not all(s.ok for s in done):
            return None, {}
        check_outputs(wl, ws, gates)
        passes.append((took, digest(ws), done))
        shutil.rmtree(ws)
    gates.check("traced and untraced passes write identical outputs",
                len({d for _, d, _ in passes}) == 1)

    parallelism = 1
    for argv in wl.setup + wl.timed:
        if "--parallelism" in argv:
            parallelism = int(argv[argv.index("--parallelism") + 1])
    plain = passes.pop(1)
    results = []
    expected = set(tracer.TARGET_NAMES) - wl.unreached
    for _, _, done in passes:
        steps, entered = [], set()
        for s in done:
            data = json.loads(s.trace.read_text())
            data["startup_s"] = data["ready"] - s.spawned
            entered.update(data["entered"])
            steps.append(data)
        missing = sorted(expected - entered)
        gates.check("every wrapped name is entered" + (f" (never: {missing})" if missing else ""),
                    not missing)
        results.append(tracer.layer_metrics(steps, parallelism))
    gates.check("deterministic counts repeat exactly across traced passes",
                results[0][1] == results[1][1])
    metrics = {}
    for name, first in results[0][0].items():
        # counts repeat exactly (checked above); times take the median
        same = all(r[0].get(name) == first for r in results)
        metrics[name] = first if same else statistics.median(r[0][name] for r in results)
    metrics["trace_overhead_s"] = statistics.median(p[0] for p in passes) - plain[0]
    return metrics, results[0][2]


# --------------------------------------------------------------------------
# facts and report
# --------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts() -> dict:
    sys.path.insert(0, str(SRC))
    import numpy as np
    from scnn import kernels

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "backend": kernels.BACKEND,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _git_commit(),
    }


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scnn" / "cli.py").is_file():
        print(f"error: no scnn sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    declared = declared_metrics(bool(args.trace))
    facts = machine_facts()
    gates = Gates()
    work = WORK / f"{wl.name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    values, notes = {}, {}
    try:
        if args.trace:
            layer, notes = traced_run(wl, args.seed, work, gates)
            for name, value in sorted((layer or {}).items()):
                # per-width times not in BENCHMARK.json take their parent's unit
                unit = declared.get(name, declared.get(name.rsplit(".", 1)[0], {})).get("unit", "")
                note = f" ({notes[name]})" if name in notes else ""
                print(f"{name} {value:.6g} {unit}{note}")
                values[name] = value
            if "self-time shares" in notes:
                print(f"self-time shares: {notes['self-time shares']}")
        else:
            samples, quality = timed_run(wl, args.seed, args.seconds, work, gates)
            for name, got in samples.items():
                if got:
                    values[name] = statistics.median(got)
                    print(f"{name} {values[name]:.6g} {declared[name]['unit']} "
                          f"(median, {_spread(got)})")
            f1 = [q["test_micro_f1"] for q in quality if "test_micro_f1" in q]
            if f1:
                print(f"test_micro_f1 {min(f1):.6f} (lowest of {len(f1)}; gate >= {F1_THRESHOLD})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    missing = sorted(set(declared) - set(values))
    gates.check("every declared metric measured" + (f" (missing: {missing})" if missing else ""),
                not missing)
    failed = len(gates.failures)
    attempted = gates.attempted
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} steps and checks)")
    print("facts " + json.dumps({"workload": wl.name, "seed": args.seed, **facts}))
    correct = not gates.failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]["unit"]}
                    for name in declared if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
