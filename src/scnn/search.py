"""Random hyperparameter search: sampling, trial execution, leaderboard.

Each trial trains a fold ensemble for one sampled configuration, one unit
per fold. The units are planned longest first by n_filters x
sum(filter_sizes), ties by (trial, fold), and run by workers.run_plan, the
runner that ensemble_predict uses for a stack's members: unit j runs on
process j % n, the calling process, which takes the longest unit of each
round and starts at once, or one of n - 1 workers forked from it (n is
workers.process_count's of ``--parallelism``; n = 1 forks nothing). A worker inherits the training inputs from the fork and sends each
unit's result back as the unit ends. When the caller fails or is
interrupted, each worker stops after its current unit; when the caller
dies, the kernel ends its workers with SIGTERM. Each process
keeps one set of training buffers for consecutive units of one shape. A
unit (train_unit) saves its fold model and returns its held-out rows; once a
trial's last unit is in, the caller merges the rows and writes its oof.tsv
(write_oof). ``scnn train`` runs the same two functions on the k folds of
one config, on the same runner (workers.map_on_processes), into its --out.

A leaderboard row is an ensemble.Trial without members; load_trial_ensemble
adds its fold models. ensemble.rank orders the leaderboard, the report and
every stack, a plain list of Trials. Stacking reads a run through load_run:
manifest.json and leaderboard.csv once each, then each ok row's oof.tsv
(fileio.read_tsv, as every tab-separated file), whose recomputed score ranks
the row. The manifest's fold split is built once and checked against the
lowest ok trial's fold column; every other oof.tsv must hold the same ids,
labels and folds, as write_oof writes them for every trial.

Every fold's random streams derive from (seed, trial_id, fold) and configs
are sampled up front from a dedicated substream, which makes the
leaderboard and all trial artifacts byte-identical regardless of the
process count, as long as the caller runs BLAS on one thread, which the
workers inherit (cli.main pins it for every command; at paper shape
OpenBLAS gives other last bits on several threads). At 400
dims the conv forward picks its path, and so its last bits, by the distinct
rows of each batch (kernels.py); the seed fixes the batches, so reruns
still repeat byte for byte.

Run directory layout::

    run/
      manifest.json        search configuration + input fingerprints
      leaderboard.csv      ranked trials (see LEADERBOARD_HEADER)
      trials/<id>/fold0..fold{k-1}.scnn
      trials/<id>/oof.tsv  out-of-fold predictions (id, fold, gold, p1..p3)

Wall-clock timings are logged, not stored: the caller logs one line per
trial with its cv score, the summed seconds of its units and the pids that
ran them. Every artifact in the run directory is required to be
bit-reproducible, so the leaderboard's wall_time_s column is left empty.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import shutil
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .corpus import CLASSES, FoldAssignment, stratified_kfold
from .ensemble import (
    ModelFile,
    Trial,
    ensemble_predict,
    mean_probs,
    rank,
    train_fold_ensemble,
)
from .errors import DataError, ScnnError
from .fileio import atomic_write, check_fields, is_int, open_text, read_json, read_tsv
from .model import (
    DEFAULT_SEARCH_DOMAINS,
    HP_FIELDS,
    LR_DECAY,
    RESTARTS_ALLOWED,
    HyperParams,
    SharedBuffers,
    TrainSchedule,
    hp_problem,
    load_model,
    save_model,
)
from .rng import Rng
from .workers import run_plan

logger = logging.getLogger(__name__)


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
        their default domains. Every value must pass its field's HP_RULES
        rule, and with ``restricted`` belong to the standard domain."""
        if not isinstance(overrides, dict):
            raise DataError("search space is not a JSON object")
        unknown = sorted(set(overrides) - set(HP_FIELDS))
        if unknown:
            raise DataError(f"unknown search-space fields: {unknown}")
        domains = dict(DEFAULT_SEARCH_DOMAINS)
        for name, values in overrides.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise DataError(f"search-space field {name} must be a non-empty list")
            values = tuple(tuple(v) if isinstance(v, list) else v for v in values)
            for v in values:
                problem = hp_problem(name, v, restricted)
                if problem:
                    raise DataError(f"search-space value rejected: {problem}")
            if len(set(values)) != len(values):
                raise DataError(f"search-space field {name} has duplicate values")
            domains[name] = values
        return cls(domains=domains)

    def size(self) -> int:
        n = 1
        for name in HP_FIELDS:
            n *= len(self.domains[name])
        return n

    def to_jsonable(self) -> dict:
        return {name: [list(v) if isinstance(v, tuple) else v for v in self.domains[name]]
                for name in HP_FIELDS}

    def descriptor(self) -> str:
        return space_descriptor(self.to_jsonable())


def space_descriptor(space: dict) -> str:
    """The sha256 of a space's canonical JSON (its to_jsonable form)."""
    canon = json.dumps(space, sort_keys=True, separators=(",", ":"))
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

LEADERBOARD_HEADER = ["trial_id", "cv_score", "status", "wall_time_s"] + list(HP_FIELDS)
RUN_FORMAT_VERSION = 1  # the format_version of a run's manifest.json


def _hp_csv_cells(hp: HyperParams) -> list:
    """One cell per field; filter_sizes reads like 1-2-3-4-5."""
    return ["-".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for v in (getattr(hp, name) for name in HP_FIELDS)]


def format_leaderboard_csv(records: Sequence[Trial]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LEADERBOARD_HEADER)
    for r in rank(records):
        status = r.status.replace("\n", " ").replace("\r", " ")
        cv = f"{r.cv_score:.6f}" if r.ok else ""
        writer.writerow([r.trial_id, cv, status, ""] + _hp_csv_cells(r.hp))
    return buf.getvalue()


def _hp_from_csv(row: dict) -> HyperParams:
    """The checked hyperparameters of a row; each cell is parsed as the kind
    (float, int, str or widths) of its field's standard domain."""
    d = {}
    for name in HP_FIELDS:
        kind = type(DEFAULT_SEARCH_DOMAINS[name][0])
        d[name] = [int(w) for w in row[name].split("-")] if kind is tuple else kind(row[name])
    return HyperParams.from_dict(d)


def parse_leaderboard_csv(text: str) -> list:
    """The Trials (without members) of a leaderboard, in file order; a
    DataError names the bad line. Trial ids must be distinct, a status must
    be ok or start with "failed: ", and an ok row's cv_score must lie in
    [0, 1]."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != LEADERBOARD_HEADER:
        raise DataError(
            f"leaderboard header {reader.fieldnames} != expected {LEADERBOARD_HEADER}"
        )
    records = {}
    for row in reader:
        status = row["status"]
        try:  # a short row reads None for its missing fields
            record = Trial(
                trial_id=int(row["trial_id"]),
                hp=_hp_from_csv(row),
                cv_score=float(row["cv_score"]) if status == "ok" else float("nan"),
                status=status,
            )
            if record.trial_id in records:
                raise ValueError(f"duplicate trial {record.trial_id}")
            if not (record.ok or status.startswith("failed: ")):
                raise ValueError(f"status {status!r} is neither ok nor failed: <reason>")
            if record.ok and not 0 <= record.cv_score <= 1:  # NaN fails too
                raise ValueError(f"cv_score {row['cv_score']} is not in [0, 1]")
        except (AttributeError, TypeError, ValueError, DataError) as exc:
            raise DataError(f"malformed row at line {reader.line_num}: {exc}") from None
        records[record.trial_id] = record
    return list(records.values())


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
    """Returns (ids, labels, folds, probs) from a trial's oof.tsv; a
    DataError names the file and the line of a malformed number or a gold
    label outside {1,2,3}."""
    ids, labels, folds, probs = [], [], [], []
    for lineno, fields in read_tsv(path, "out-of-fold predictions", (6,)):
        try:
            folds.append(int(fields[1]))
            label = int(fields[2])
            probs.append([float(v) for v in fields[3:6]])
        except ValueError:
            raise DataError(f"{path}: malformed number at line {lineno}") from None
        if label not in CLASSES:
            raise DataError(f"{path}: label out of range at line {lineno}")
        labels.append(label)
        ids.append(fields[0])
    return ids, np.asarray(labels, dtype=np.int64), folds, np.asarray(probs)


# --------------------------------------------------------------------------
# search driver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialInputs:
    """Everything a trial reads besides its id and config; each worker
    inherits it from the caller when it is forked. ``docs_by_name`` maps
    each word_embedding name to the training set's embeddings.Documents,
    token ids over the rows of the words they use; a unit's batches gather
    their float rows from them."""

    ids: Sequence[str]
    labels: np.ndarray
    docs_by_name: dict
    folds: FoldAssignment
    sched: TrainSchedule
    seed: int
    out_dir: str


def train_unit(inputs: TrialInputs, tid: int, hp: HyperParams, fold: int,
               buffers: SharedBuffers, trial_dir: str) -> np.ndarray:
    """Train fold ``fold`` of trial ``tid`` in ``buffers``, save it as
    ``<trial_dir>/fold<fold>.scnn`` and return its held-out rows'
    probabilities as float64, in example order. Errors are raised."""
    trained = train_fold_ensemble(
        hp, inputs.docs_by_name[hp.word_embedding], inputs.labels, inputs.folds, fold,
        inputs.sched, Rng(inputs.seed).substream(tid), buffers,
    )
    os.makedirs(trial_dir, exist_ok=True)
    save_model(trained, os.path.join(trial_dir, f"fold{fold}.scnn"))
    return trained.dev_probs.astype(np.float64)


def write_oof(inputs: TrialInputs, trial_dir: str, rows: list) -> float:
    """Merge the held-out rows of every fold (``rows[i]`` is fold i's) into
    ``<trial_dir>/oof.tsv`` and return their cv score."""
    fold_of = np.asarray(inputs.folds.fold_of)
    oof = np.zeros((len(fold_of), 3), dtype=np.float64)
    for fold, fold_rows in enumerate(rows):
        oof[fold_of == fold] = fold_rows
    with atomic_write(os.path.join(trial_dir, "oof.tsv")) as fh:
        fh.write(format_oof_tsv(inputs.ids, inputs.labels, inputs.folds.fold_of, oof))
    return metrics.micro_f1_12(inputs.labels, oof)


def _trial_dir(inputs: TrialInputs, tid: int) -> str:
    return os.path.join(inputs.out_dir, "trials", str(tid))


@dataclass
class UnitResult:
    """One unit's outcome: the unit is one fold of one trial."""

    trial_id: int
    fold: int
    oof_rows: Optional[np.ndarray]  # the held-out rows' probabilities, in example order
    error: Optional[str]  # the fold's message when it failed
    seconds: float
    pid: int


def run_unit(inputs: TrialInputs, tid: int, hp: HyperParams, fold: int,
             buffers: SharedBuffers) -> UnitResult:
    """train_unit into trials/<tid>/; a training failure is reported, not
    raised."""
    started = time.perf_counter()
    trial_dir = _trial_dir(inputs, tid)
    rows = error = None
    try:
        rows = train_unit(inputs, tid, hp, fold, buffers, trial_dir)
    except (ScnnError, ValueError, ArithmeticError) as exc:
        error = str(exc)
    except BaseException:
        shutil.rmtree(trial_dir, ignore_errors=True)
        raise
    return UnitResult(tid, fold, rows, error, time.perf_counter() - started, os.getpid())


def finish_trial(inputs: TrialInputs, tid: int, hp: HyperParams, units: list) -> Trial:
    """Trial ``tid``'s record from the results of its units, one per fold,
    whose rows write_oof merges into oof.tsv. When a fold failed,
    trials/<tid>/ is removed and the status is the lowest failing fold's
    message."""
    units = sorted(units, key=lambda u: u.fold)
    seconds = sum(u.seconds for u in units)
    pids = ",".join(str(pid) for pid in sorted({u.pid for u in units}))
    trial_dir = _trial_dir(inputs, tid)
    failed = [u.error for u in units if u.error is not None]
    if failed:
        shutil.rmtree(trial_dir, ignore_errors=True)
        logger.warning("trial %d failed (%.1fs of units on pids %s): %s",
                       tid, seconds, pids, failed[0])
        return Trial(tid, hp, float("nan"), f"failed: {failed[0]}")
    try:
        cv_score = write_oof(inputs, trial_dir, [u.oof_rows for u in units])
    except BaseException:
        shutil.rmtree(trial_dir, ignore_errors=True)
        raise
    logger.info("trial %d cv_score %.6f (%.1fs of units on pids %s)",
                tid, cv_score, seconds, pids)
    return Trial(tid, hp, cv_score)


def plan_units(planned: list, k: int) -> list:
    """(trial id, hp, fold) of every fold of every planned trial, longest
    first by n_filters x sum(filter_sizes), ties by (trial, fold)."""
    units = [(tid, hp, i) for tid, hp in planned for i in range(k)]
    return sorted(units, key=lambda u: (-u[1].n_filters * sum(u[1].filter_sizes), u[0], u[2]))


def _run_units(inputs: TrialInputs, units: list, stopped=lambda: False):
    """Results of ``units``, (trial id, hp, fold) each, run in turn in one
    set of training buffers and yielded as each ends: a process's share.
    No unit starts once ``stopped()`` is true."""
    buffers = SharedBuffers()
    for tid, hp, fold in units:
        if stopped():
            return
        yield run_unit(inputs, tid, hp, fold, buffers)


def _run_trials(inputs: TrialInputs, planned: list, parallelism: Optional[int]) -> list:
    """Records of every planned trial, in trial order, its units run by
    workers.run_plan at ``parallelism``. A trial is finished as soon as its
    last unit's result is in."""
    k = inputs.folds.k
    hp_of = dict(planned)
    pending = {tid: [] for tid, _ in planned}
    records = {}

    def collect(result: UnitResult) -> None:
        tid = result.trial_id
        pending[tid].append(result)
        if len(pending[tid]) == k:
            records[tid] = finish_trial(inputs, tid, hp_of[tid], pending.pop(tid))

    run_plan(partial(_run_units, inputs), plan_units(planned, k), collect, parallelism)
    return [records[tid] for tid, _ in planned]


def run_search(ids: Sequence[str], labels: np.ndarray, docs_by_name: dict,
               space: SearchSpace, n_trials: int, folds: FoldAssignment,
               sched: TrainSchedule, seed: int, out_dir, parallelism: Optional[int] = 1,
               dataset_info: Optional[dict] = None) -> list:
    """Sample ``n_trials`` distinct configs, train a fold ensemble each on
    ``parallelism`` processes (None: the usable CPUs) and write the run
    directory described in the module docstring to ``out_dir``. Each fold
    model is saved as soon as it is trained, so a process holds one trained
    model at a time.

    Returns the Trials, without members, in rank order; a trial's members
    are read back with load_trial_ensemble. A failed trial is recorded on the
    leaderboard and the search continues.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    for name in space.domains["word_embedding"]:
        if name not in docs_by_name:
            raise DataError(f"no embedded documents for word_embedding={name!r}")

    sampler = Rng(seed).substream("sampler")
    seen: set = set()
    planned = [(tid, sample_config(space, sampler, seen)) for tid in range(n_trials)]

    os.makedirs(os.path.join(out_dir, "trials"), exist_ok=True)
    inputs = TrialInputs(
        ids=ids, labels=np.asarray(labels, dtype=np.int64),
        docs_by_name=docs_by_name, folds=folds, sched=sched, seed=seed,
        out_dir=out_dir,
    )
    ranked = rank(_run_trials(inputs, planned, parallelism))
    with atomic_write(os.path.join(out_dir, "leaderboard.csv")) as fh:
        fh.write(format_leaderboard_csv(ranked))
    manifest = {
        "format_version": RUN_FORMAT_VERSION,
        "seed": seed,
        "n_trials": n_trials,
        "folds_k": folds.k,
        "fold_seed": folds.seed,
        "space": space.to_jsonable(),
        "space_descriptor": space.descriptor(),
        "schedule": {
            "max_epochs": sched.max_epochs,
            "patience": sched.patience,
            "restarts_allowed": RESTARTS_ALLOWED,
            "lr_decay": LR_DECAY,
        },
        "dataset": dataset_info or {},
    }
    with atomic_write(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ranked


def load_trial_ensemble(run_dir, record: Trial, k: int) -> Trial:
    """The leaderboard row ``record`` with its k fold models as ModelFile
    members. Each fold model is loaded once to validate it, and its
    hyperparameters must be the row's."""
    trial_dir = os.path.join(run_dir, "trials", str(record.trial_id))
    members = []
    for i in range(k):
        path = os.path.join(trial_dir, f"fold{i}.scnn")
        if not os.path.exists(path):
            raise DataError(f"missing model file {path} for trial {record.trial_id}")
        loaded = load_model(path)
        if loaded.hp != record.hp:
            raise DataError(f"{os.path.join(run_dir, 'leaderboard.csv')}: trial "
                            f"{record.trial_id}'s hyperparameters differ from those of {path}")
        del loaded  # before the next fold's load: one model alive at a time
        members.append(ModelFile(path))
    return replace(record, members=members)


# key -> (check, what the value must be), for the run-manifest values that
# stacking reads
_RUN_MANIFEST_TYPES = {
    "format_version": (lambda v: is_int(v) and v <= RUN_FORMAT_VERSION,
                       f"an integer <= {RUN_FORMAT_VERSION}"),
    "n_trials": (lambda v: is_int(v) and v >= 1, "a positive integer"),
    "folds_k": (lambda v: is_int(v) and v >= 2, "an integer >= 2"),
    "fold_seed": (is_int, "an integer"),
    "space": (lambda v: isinstance(v, dict), "a JSON object"),
    "space_descriptor": (lambda v: isinstance(v, str), "a string"),
}


def load_run(run_dir) -> tuple:
    """(manifest, trials): a run directory's manifest.json, and the ok rows
    of its leaderboard.csv, each scored from its oof.tsv, in rank order.
    DataError naming the file unless the manifest holds every value stacking
    reads, with space_descriptor the hash of its space; the trial ids are 0
    to n_trials - 1; each ok row's score is its oof.tsv's within 1e-6; the
    lowest ok trial's fold column is the split folds_k and fold_seed make
    of its labels; and every ok trial's ids, labels and folds are the same.
    """
    manifest_path = os.path.join(run_dir, "manifest.json")
    board_path = os.path.join(run_dir, "leaderboard.csv")
    manifest = read_json(manifest_path, "run manifest")
    check_fields(f"{manifest_path}: run manifest", manifest, _RUN_MANIFEST_TYPES)
    if space_descriptor(manifest["space"]) != manifest["space_descriptor"]:
        raise DataError(f"{manifest_path}: run manifest space_descriptor is not the hash "
                        f"of its space")
    with open_text(board_path, "leaderboard") as fh:
        text = fh.read()
    try:
        records = parse_leaderboard_csv(text)
    except DataError as exc:
        raise DataError(f"{board_path}: {exc}") from None
    n_trials = manifest["n_trials"]
    want, ids = set(range(n_trials)), {r.trial_id for r in records}
    if ids != want:
        raise DataError(f"{board_path}: trial ids must be 0 to {n_trials - 1} (the n_trials of "
                        f"{manifest_path}); missing {sorted(want - ids)}, unexpected "
                        f"{sorted(ids - want)}")

    trials, first = [], None  # the lowest ok trial's oof.tsv and its columns
    for record in sorted((r for r in records if r.ok), key=lambda r: r.trial_id):
        path = os.path.join(run_dir, "trials", str(record.trial_id), "oof.tsv")
        ex_ids, labels, folds, oof = parse_oof_tsv(path)
        score = metrics.micro_f1_12(labels, oof)
        if not abs(score - record.cv_score) <= 1e-6:  # a NaN score fails too
            raise DataError(f"{board_path}: trial {record.trial_id}'s cv_score "
                            f"{record.cv_score:.6f} does not match the {score:.6f} of its "
                            f"out-of-fold predictions in {path}")
        columns = (ex_ids, labels.tolist(), folds)
        if first is None:
            try:
                split = stratified_kfold(labels, manifest["folds_k"], manifest["fold_seed"])
            except DataError as exc:  # a class with fewer rows than folds_k
                raise DataError(f"{path}: {exc} ({manifest_path}'s folds_k)") from None
            if list(split.fold_of) != folds:
                raise DataError(f"{path}: the fold column is not the split that folds_k and "
                                f"fold_seed of {manifest_path} make of its labels")
            first = (path, columns)
        elif columns != first[1]:
            raise DataError(f"{path}: its ids, labels or folds differ from those of {first[0]}")
        trials.append(replace(record, cv_score=score))
    return manifest, rank(trials)


# --------------------------------------------------------------------------
# top-K report
# --------------------------------------------------------------------------

def top_k_report(trials: Sequence[Trial], k_values: Sequence[int],
                 test_docs_by_name: dict, test_labels: np.ndarray) -> str:
    """CSV with one row per trial (cv and test score) and one per stacked K.

    Mirrors the three ranking curves: individual CV score, individual test
    score, and stacked-top-K test score.
    """
    ranked = rank(trials)
    if k_values and max(k_values) > len(ranked):
        raise ValueError(f"top-k {max(k_values)} exceeds trial count {len(ranked)}")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "key", "cv_score", "test_micro_f1_12"])
    # each trial predicts once, in rank order; stacked rows average these
    probs = ensemble_predict(ranked, test_docs_by_name)
    for trial, trial_probs in zip(ranked, probs):
        writer.writerow(["individual", trial.trial_id, f"{trial.cv_score:.6f}",
                         f"{metrics.micro_f1_12(test_labels, trial_probs):.6f}"])
    for k in sorted(k_values):
        stacked = mean_probs(probs[:k])
        writer.writerow(["stacked", k, "", f"{metrics.micro_f1_12(test_labels, stacked):.6f}"])
    return buf.getvalue()
