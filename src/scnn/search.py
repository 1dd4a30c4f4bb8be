"""Random hyperparameter search: sampling, trial execution, leaderboard.

Each trial trains a full fold ensemble for one sampled configuration. Trials
are independent, so ``--parallelism n`` splits them over n processes: the
calling process and n - 1 spawned workers, capped at the trial count and the
CPU count. Trial j of the planned list runs on process j % n, and every
process runs the same ``run_trial``; each worker gets the training inputs
once, when it starts, and its BLAS is pinned to one thread. Every trial's
random streams derive from (seed, trial_id) and configs are sampled up front
from a dedicated substream, which makes the leaderboard and all trial
artifacts byte-identical regardless of the process count.

Run directory layout::

    run/
      manifest.json        search configuration + input fingerprints
      leaderboard.csv      ranked trials (see LEADERBOARD_HEADER)
      trials/<id>/fold0..fold{k-1}.scnn
      trials/<id>/oof.tsv  out-of-fold predictions (id, fold, gold, p1..p3)

Wall-clock timings are logged, not stored: every artifact in the run
directory is required to be bit-reproducible, so the leaderboard's
wall_time_s column is left empty.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .corpus import FoldAssignment
from .ensemble import (
    FoldEnsemble,
    ModelFile,
    ensemble_predict,
    mean_probs,
    rank_key,
    stack_top_k,
    train_fold_ensemble,
)
from .errors import DataError, ScnnError
from .fileio import atomic_write, check_fields, is_int, open_text, read_json
from .model import (
    DEFAULT_SEARCH_DOMAINS,
    HP_FIELDS,
    HyperParams,
    TrainSchedule,
    load_model,
    save_model,
    validate_hyperparams,
)
from .rng import Rng

logger = logging.getLogger(__name__)

_PROBE_HP = HyperParams(
    adam_b2=0.999, n_dense_output=100, keep_prob=0.5, batch_size=50,
    learning_rate=0.001, word_embedding="godin", n_filters=100,
    filter_sizes=(1, 2, 3, 4, 5),
)


@dataclass(frozen=True)
class SearchSpace:
    """Finite per-field domains; the default is the standard 16,128-point space."""

    domains: dict

    @classmethod
    def default(cls) -> "SearchSpace":
        return cls(domains=dict(DEFAULT_SEARCH_DOMAINS))

    @classmethod
    def from_dict(cls, overrides: dict, restricted: bool = True) -> "SearchSpace":
        """Build a space from per-field value lists; unlisted fields keep
        their default domains. ``restricted`` additionally requires every
        value to belong to the standard domain."""
        unknown = sorted(set(overrides) - set(HP_FIELDS))
        if unknown:
            raise DataError(f"unknown search-space fields: {unknown}")
        domains = dict(DEFAULT_SEARCH_DOMAINS)
        for name, values in overrides.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise DataError(f"search-space field {name} must be a non-empty list")
            if name == "filter_sizes":
                values = [tuple(int(w) for w in v) for v in values]
            elif name in ("n_dense_output", "batch_size", "n_filters"):
                values = [int(v) for v in values]
            if len(set(values)) != len(values):
                raise DataError(f"search-space field {name} has duplicate values")
            for v in values:
                probe = replace(_PROBE_HP, **{name: v})
                problems = [
                    p for p in validate_hyperparams(probe, restricted=restricted)
                    if p.startswith(f"{name}=")
                ]
                if problems:
                    raise DataError(f"search-space value rejected: {problems[0]}")
            domains[name] = tuple(values)
        return cls(domains=domains)

    def size(self) -> int:
        n = 1
        for name in HP_FIELDS:
            n *= len(self.domains[name])
        return n

    def to_jsonable(self) -> dict:
        out = {}
        for name in HP_FIELDS:
            values = self.domains[name]
            if name == "filter_sizes":
                out[name] = [list(v) for v in values]
            else:
                out[name] = list(values)
        return out

    def descriptor(self) -> str:
        canon = json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def sample_config(space: SearchSpace, rng: Rng, seen: Optional[set]) -> HyperParams:
    """One uniform draw per field; with ``seen`` given, resamples until the
    config is new and records it there. ``seen=None`` disables dedup."""
    if seen is not None and len(seen) >= space.size():
        raise DataError(
            f"search space exhausted: all {space.size()} configurations sampled"
        )
    while True:
        values = {}
        for name in HP_FIELDS:  # fixed field order keeps the draw sequence stable
            domain = space.domains[name]
            values[name] = domain[int(rng.integers(0, len(domain)))]
        hp = HyperParams(**values)
        if seen is None:
            return hp
        if hp not in seen:
            seen.add(hp)
            return hp


# --------------------------------------------------------------------------
# trials and leaderboard
# --------------------------------------------------------------------------

@dataclass
class TrialRecord:
    trial_id: int
    hp: HyperParams
    cv_score: float  # NaN when the trial failed
    status: str      # "ok" or "failed: <reason>"
    wall_time: float
    ensemble: Optional[FoldEnsemble] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def leaderboard_order(records: Sequence[TrialRecord]) -> list:
    """Descending cv_score, ties by ascending trial id; failures sink last."""
    def key(r: TrialRecord):
        score = r.cv_score if r.ok else float("-inf")
        return (-score, r.trial_id)
    return sorted(records, key=key)


LEADERBOARD_HEADER = ["trial_id", "cv_score", "status", "wall_time_s"] + list(HP_FIELDS)


def _hp_csv_cells(hp: HyperParams) -> list:
    cells = []
    for name in HP_FIELDS:
        value = getattr(hp, name)
        if name == "filter_sizes":
            cells.append("-".join(str(w) for w in value))
        else:
            cells.append(repr(value) if isinstance(value, float) else str(value))
    return cells


def format_leaderboard_csv(records: Sequence[TrialRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LEADERBOARD_HEADER)
    for r in leaderboard_order(records):
        status = r.status.replace("\n", " ").replace("\r", " ")
        cv = f"{r.cv_score:.6f}" if r.ok else ""
        writer.writerow([r.trial_id, cv, status, ""] + _hp_csv_cells(r.hp))
    return buf.getvalue()


def _hp_from_csv(row: dict) -> HyperParams:
    return HyperParams(
        adam_b2=float(row["adam_b2"]),
        n_dense_output=int(row["n_dense_output"]),
        keep_prob=float(row["keep_prob"]),
        batch_size=int(row["batch_size"]),
        learning_rate=float(row["learning_rate"]),
        word_embedding=row["word_embedding"],
        n_filters=int(row["n_filters"]),
        filter_sizes=tuple(int(w) for w in row["filter_sizes"].split("-")),
    )


def parse_leaderboard_csv(text: str) -> list:
    """TrialRecords of a leaderboard; a DataError names the bad line."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != LEADERBOARD_HEADER:
        raise DataError(
            f"leaderboard header {reader.fieldnames} != expected {LEADERBOARD_HEADER}"
        )
    records = []
    for row in reader:
        status = row["status"]
        try:  # a short row reads None for its missing fields
            records.append(TrialRecord(
                trial_id=int(row["trial_id"]),
                hp=_hp_from_csv(row),
                cv_score=float(row["cv_score"]) if status == "ok" else float("nan"),
                status=status,
                wall_time=0.0,
            ))
        except (AttributeError, TypeError, ValueError) as exc:
            raise DataError(f"malformed row at line {reader.line_num}: {exc}") from None
    return records


# --------------------------------------------------------------------------
# out-of-fold prediction files
# --------------------------------------------------------------------------

def format_oof_tsv(ids: Sequence[str], labels: np.ndarray,
                   fold_of: Sequence[int], oof_probs: np.ndarray) -> str:
    """id, fold, gold, p1..p3 per example; probabilities are written with
    shortest exact float64 strings so scores recompute exactly on load."""
    lines = []
    for i, ex_id in enumerate(ids):
        p = [repr(float(v)) for v in oof_probs[i]]
        lines.append(f"{ex_id}\t{fold_of[i]}\t{labels[i]}\t{p[0]}\t{p[1]}\t{p[2]}\n")
    return "".join(lines)


def parse_oof_tsv(path):
    """Returns (ids, labels, folds, probs) from a trial's oof.tsv."""
    ids, labels, folds, probs = [], [], [], []
    with open_text(path, "out-of-fold predictions") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, 1):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 6:
            raise DataError(f"{path}: expected 6 fields at line {lineno}")
        try:
            folds.append(int(parts[1]))
            labels.append(int(parts[2]))
            probs.append([float(v) for v in parts[3:6]])
        except ValueError:
            raise DataError(f"{path}: malformed number at line {lineno}") from None
        ids.append(parts[0])
    return ids, np.asarray(labels, dtype=np.int64), folds, np.asarray(probs)


# --------------------------------------------------------------------------
# search driver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialInputs:
    """Everything a trial reads besides its id and config; sent to each
    worker process once."""

    ids: Sequence[str]
    labels: np.ndarray
    docs_by_name: dict
    folds: FoldAssignment
    sched: TrainSchedule
    seed: int
    out_dir: Optional[str]
    keep_models: bool


def member_saver(out_dir):
    """An ``on_member`` for train_fold_ensemble that saves fold i as
    ``<out_dir>/fold<i>.scnn`` and keeps a ModelFile of it."""
    os.makedirs(out_dir, exist_ok=True)

    def on_member(i: int, trained) -> ModelFile:
        path = os.path.join(out_dir, f"fold{i}.scnn")
        save_model(trained, path)
        return ModelFile(path)
    return on_member


def run_trial(inputs: TrialInputs, tid: int, hp: HyperParams) -> TrialRecord:
    """Train trial ``tid``'s fold ensemble. With an ``out_dir``, each fold
    model is written once it is trained, then its oof.tsv; a trial that
    fails leaves no ``trials/<tid>/``. A training failure becomes a failed
    record."""
    started = time.perf_counter()
    trial_dir = on_member = None
    if inputs.out_dir is not None:
        trial_dir = os.path.join(inputs.out_dir, "trials", str(tid))
        on_member = member_saver(trial_dir)
    try:
        fe = train_fold_ensemble(
            hp, inputs.docs_by_name[hp.word_embedding], inputs.labels, inputs.folds,
            inputs.sched, Rng(inputs.seed).substream(tid), trial_id=tid,
            on_member=on_member,
        )
        if trial_dir is not None:
            with atomic_write(os.path.join(trial_dir, "oof.tsv")) as fh:
                fh.write(format_oof_tsv(inputs.ids, inputs.labels, inputs.folds.fold_of,
                                        fe.oof_probs))
    except BaseException as exc:
        if trial_dir is not None:
            shutil.rmtree(trial_dir, ignore_errors=True)
        if not isinstance(exc, (ScnnError, ValueError, ArithmeticError)):
            raise
        elapsed = time.perf_counter() - started
        logger.warning("trial %d failed after %.1fs: %s", tid, elapsed, exc)
        return TrialRecord(tid, hp, float("nan"), f"failed: {exc}", elapsed)
    elapsed = time.perf_counter() - started
    logger.info("trial %d done in %.1fs, cv_score %.6f", tid, elapsed, fe.cv_score)
    cv = fe.cv_score
    if trial_dir is not None and not inputs.keep_models:
        fe = None
    return TrialRecord(tid, hp, cv, "ok", elapsed, ensemble=fe)


def process_count(parallelism: int, n_trials: int) -> int:
    """Processes a search uses, the caller included: ``parallelism`` capped
    at the trial count and the CPU count."""
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    return min(parallelism, n_trials, os.cpu_count() or 1)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOG_FORMAT = "%(levelname)s %(message)s"


@contextmanager
def single_thread_blas_env():
    """Set the BLAS thread variables to 1 for processes started inside the
    block, then restore this process's values. A worker reads them when it
    imports numpy, which happens before any initializer runs."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


_worker_inputs: Optional[TrialInputs] = None  # set in each worker process


def _init_worker(inputs: TrialInputs, log_level: int) -> None:
    global _worker_inputs
    _worker_inputs = inputs
    logging.basicConfig(level=log_level, stream=sys.stderr, format=LOG_FORMAT)


def _run_worker_share(share) -> list:
    return [run_trial(_worker_inputs, tid, hp) for tid, hp in share]


def _run_trials(inputs: TrialInputs, planned: list, n_procs: int) -> list:
    """Records of every planned trial. With ``n_procs`` > 1 the calling
    process runs its own share while spawned workers run theirs."""
    shares = [planned[w::n_procs] for w in range(n_procs)]
    if n_procs == 1:
        return [run_trial(inputs, tid, hp) for tid, hp in shares[0]]
    # imported here: loading multiprocessing costs every other command
    # ~0.07 s of start-up and ~1 MB of RSS
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=n_procs - 1, mp_context=multiprocessing.get_context("spawn"),
        initializer=_init_worker, initargs=(inputs, logger.getEffectiveLevel()),
    )
    with pool:
        # workers start inside submit, one per share
        with single_thread_blas_env():
            futures = [pool.submit(_run_worker_share, share) for share in shares[1:]]
        records = [run_trial(inputs, tid, hp) for tid, hp in shares[0]]
        for future in futures:
            records += future.result()
    return records


def run_search(ids: Sequence[str], labels: np.ndarray, docs_by_name: dict,
               space: SearchSpace, n_trials: int, folds: FoldAssignment,
               sched: TrainSchedule, seed: int, parallelism: int = 1,
               out_dir=None, keep_models: bool = False,
               dataset_info: Optional[dict] = None) -> list:
    """Sample ``n_trials`` distinct configs and train a fold ensemble each.

    Returns TrialRecords in leaderboard order. With ``out_dir`` set, writes
    the run directory described in the module docstring, saving each model
    as soon as it is trained, so a process holds at most one trained model
    besides the one in training; ``keep_models`` keeps each trial's
    FoldEnsemble (of ModelFiles) on its record. Without ``out_dir``, records keep their ensembles in
    memory. A failed trial is recorded on the leaderboard and the search
    continues.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    n_procs = process_count(parallelism, n_trials)
    for name in space.domains["word_embedding"]:
        if name not in docs_by_name:
            raise DataError(f"no embedded documents for word_embedding={name!r}")

    sampler = Rng(seed).substream("sampler")
    seen: set = set()
    planned = [(tid, sample_config(space, sampler, seen)) for tid in range(n_trials)]

    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "trials"), exist_ok=True)
    inputs = TrialInputs(
        ids=ids, labels=np.asarray(labels, dtype=np.int64),
        docs_by_name=docs_by_name, folds=folds, sched=sched, seed=seed,
        out_dir=out_dir, keep_models=keep_models,
    )
    ranked = leaderboard_order(_run_trials(inputs, planned, n_procs))
    if out_dir is not None:
        with atomic_write(os.path.join(out_dir, "leaderboard.csv")) as fh:
            fh.write(format_leaderboard_csv(ranked))
        manifest = {
            "format_version": 1,
            "seed": seed,
            "n_trials": n_trials,
            "folds_k": folds.k,
            "fold_seed": folds.seed,
            "space": space.to_jsonable(),
            "space_descriptor": space.descriptor(),
            "schedule": {
                "max_epochs": sched.max_epochs,
                "patience": sched.patience,
                "restarts_allowed": sched.restarts_allowed,
                "lr_decay": sched.lr_decay,
            },
            "dataset": dataset_info or {},
        }
        with atomic_write(os.path.join(out_dir, "manifest.json")) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return ranked


def load_trial_ensemble(run_dir, record: TrialRecord, k: int) -> FoldEnsemble:
    """Rebuild one trial's FoldEnsemble from its saved artifacts, checking
    that the stored cv score matches the out-of-fold predictions. Each fold
    model is loaded once to validate it; the ensemble keeps ModelFiles."""
    trial_dir = os.path.join(run_dir, "trials", str(record.trial_id))
    members = []
    for i in range(k):
        path = os.path.join(trial_dir, f"fold{i}.scnn")
        if not os.path.exists(path):
            raise DataError(f"missing model file {path} for trial {record.trial_id}")
        load_model(path)
        members.append(ModelFile(path))
    _, labels, _, oof = parse_oof_tsv(os.path.join(trial_dir, "oof.tsv"))
    recomputed = metrics.micro_f1_12(labels, oof)
    if abs(recomputed - record.cv_score) > 1e-6:
        raise DataError(
            f"trial {record.trial_id}: leaderboard cv_score {record.cv_score:.6f} "
            f"does not match out-of-fold predictions ({recomputed:.6f})"
        )
    return FoldEnsemble(hp=record.hp, members=members, oof_probs=oof,
                        cv_score=recomputed, trial_id=record.trial_id)


def load_leaderboard(run_dir) -> list:
    path = os.path.join(run_dir, "leaderboard.csv")
    with open_text(path, "leaderboard") as fh:
        text = fh.read()
    try:
        return parse_leaderboard_csv(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


# key -> (check, what the value must be), for the run-manifest values that
# stacking reads
_RUN_MANIFEST_TYPES = {
    "folds_k": (lambda v: is_int(v) and v >= 1, "a positive integer"),
    "fold_seed": (is_int, "an integer"),
    "space_descriptor": (lambda v: isinstance(v, str), "a string"),
}


def load_run_manifest(run_dir) -> dict:
    """A run directory's manifest.json; DataError naming the file unless it
    holds every value stacking reads, each of the expected type."""
    path = os.path.join(run_dir, "manifest.json")
    doc = read_json(path, "run manifest")
    check_fields(path, "run manifest", doc, _RUN_MANIFEST_TYPES)
    return doc


# --------------------------------------------------------------------------
# top-K report
# --------------------------------------------------------------------------

def top_k_report(trials: Sequence[FoldEnsemble], k_values: Sequence[int],
                 test_docs_by_name: dict, test_labels: np.ndarray) -> str:
    """CSV with one row per trial (cv and test score) and one per stacked K.

    Mirrors the three ranking curves: individual CV score, individual test
    score, and stacked-top-K test score.
    """
    ranked = sorted(trials, key=rank_key)
    if k_values and max(k_values) > len(ranked):
        raise ValueError(f"top-k {max(k_values)} exceeds trial count {len(ranked)}")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "key", "cv_score", "test_micro_f1_12"])
    probs = {}  # each trial predicts once; stacked rows average these
    for fe in ranked:
        probs[fe.trial_id] = ensemble_predict(fe, test_docs_by_name[fe.hp.word_embedding])
        writer.writerow(["individual", fe.trial_id, f"{fe.cv_score:.6f}",
                         f"{metrics.micro_f1_12(test_labels, probs[fe.trial_id]):.6f}"])
    for k in sorted(k_values):
        se = stack_top_k(ranked, k)
        stacked = mean_probs([probs[fe.trial_id] for fe in se.ranked_members])
        writer.writerow(["stacked", k, "", f"{metrics.micro_f1_12(test_labels, stacked):.6f}"])
    return buf.getvalue()
