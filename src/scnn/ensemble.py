"""Trials (one model per fold of k-fold CV), their one ranking, top-K stacks.

A Trial holds a search trial's id, hyperparameters, CV score and status
and, once loaded, its members: one model per fold, each validated on its
held-out fold (train_fold_ensemble trains one). Its prediction is the mean
of its members'. The CV score of the merged held-out rows (search.write_oof)
ranks the trials, and rank is the one order: descending score, ties by
ascending trial id, failed trials last. A stack is a list of the top K
trials in that order and predicts the mean of theirs. All means are plain
arithmetic in probability space, summed in float64 in a fixed order.

A member is a ModelFile on disk, loaded only while ensemble_predict uses
it, so a process predicting with a stack of any size holds one member's
tensors at a time; tests may pass any object with predict_proba(docs)
instead. ensemble_predict runs the members of all the trials it is given
on workers.map_on_processes, one member per process at a time, and
averages their probabilities in the caller in member order, so the bytes
do not depend on the process count. The documents are
embeddings.Documents, token ids over the rows of the words they use,
which the workers inherit from the fork.
A member is checked against its sha256 as it is loaded, before it
predicts; it then predicts its 512-document chunks in turn on its
process's one thread, each chunk's float rows gathered just before its
forward. hash_members hashes a stack's member files on the same
processes, so stack hashes each file once for all its K values.
save_ensemble writes a stack's JSON manifest; load_ensemble checks it and
each member with fileio.check_fields tables, as search.load_run checks a
run manifest, so format_version is a required integer no newer than the
supported one.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import model
from .corpus import FoldAssignment
from .embeddings import Documents
from .errors import DataError, ScnnError
from .fileio import atomic_write, check_fields, file_sha256, is_int, is_number, read_json
from .model import (
    HyperParams,
    SharedBuffers,
    TrainSchedule,
    TrainedModel,
    build_model,
    load_model,
    load_model_hp,
    train,
)
from .rng import Rng

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModelFile:
    """A member model on disk; ``sha256``, when given, is checked over the
    bytes loaded."""

    path: str
    sha256: Optional[str] = None


@dataclass
class Trial:
    """One search trial. A leaderboard row has no members; a loaded trial
    has one per fold, in fold order."""

    trial_id: int
    hp: HyperParams
    cv_score: float  # NaN when the trial failed
    status: str = "ok"  # or "failed: <reason>"
    members: list = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def rank(trials) -> list:
    """Descending cv_score, ties by ascending trial id; failed trials last."""
    return sorted(trials, key=lambda t: (-t.cv_score if t.ok else float("inf"), t.trial_id))


def train_fold_ensemble(hp: HyperParams, docs: Documents, labels: np.ndarray,
                        folds: FoldAssignment, fold: int, sched: TrainSchedule, rng: Rng,
                        buffers: SharedBuffers) -> TrainedModel:
    """Train fold ``fold`` of a fold ensemble: one model, with the held-out
    fold as its dev set, in the training buffers ``buffers`` carries.

    The model's init and training streams derive from ``rng`` and the fold
    index, so each fold replays bit-identically, alone or after others. Its
    dev_probs, the held-out fold's probabilities at the best epoch, are that
    fold's out-of-fold rows, in example order. The training and held-out
    sets are id subsets of ``docs`` over its rows, so no float is copied.
    """
    fold_of = np.asarray(folds.fold_of, dtype=np.int64)
    if len(fold_of) != len(docs):
        raise ValueError(f"fold assignment covers {len(fold_of)} examples, got {len(docs)}")
    labels = np.asarray(labels, dtype=np.int64)
    held_out = np.flatnonzero(fold_of == fold)
    train_idx = np.flatnonzero(fold_of != fold)
    fold_seed = rng.derive_seed("fold", fold)
    net = build_model(hp, docs.dim, seed=fold_seed)
    try:
        return train(
            net, docs[train_idx], labels[train_idx], docs[held_out], labels[held_out],
            sched, Rng(fold_seed).substream("train"), buffers=buffers.for_model(net),
        )
    except (ScnnError, ValueError, ArithmeticError) as exc:
        raise type(exc)(f"fold {fold}: {exc}") from exc


def mean_probs(parts: list) -> np.ndarray:
    """Mean of (N, 3) probability arrays, summed in float64 in list order."""
    acc = np.zeros((len(parts[0]), 3), dtype=np.float64)
    for part in parts:
        acc += part
    return acc / len(parts)


def _member_probs(trial: Trial, member, docs: Documents) -> np.ndarray:
    """One member's probabilities. A ModelFile is loaded, and its sha256
    checked, for this call only, and must match the trial's hyperparameters
    and the documents' dimension before it predicts."""
    if not isinstance(member, ModelFile):
        return member.predict_proba(docs)
    net = load_model(member.path, member.sha256)
    if net.hp != trial.hp:
        raise DataError(f"{member.path}: hyperparameters differ from those of "
                        f"trial {trial.trial_id}")
    if net.embedding_dim != docs.dim:
        raise DataError(f"{member.path}: takes {net.embedding_dim}-dim embeddings, "
                        f"the {trial.hp.word_embedding} table has {docs.dim}")
    return model.predict_proba(net, docs)


def ensemble_predict(trials: Sequence[Trial], docs_by_name: dict) -> list:
    """Each trial's mean of its members' probabilities, in trial order.

    The members, in trial order and then member order, run on
    workers.map_on_processes, on the usable CPUs capped at the member count,
    so a process predicts one member at a time and the error raised, that of
    the lowest failing member, does not depend on the process count.
    ``docs_by_name`` maps each trial's word_embedding name to the Documents
    embedded with that table."""
    from .workers import map_on_processes  # here, so that synth and evaluate do not load it

    jobs = [(trial, member) for trial in trials for member in trial.members]

    def member_probs(job) -> np.ndarray:
        trial, member = job
        return _member_probs(trial, member, docs_by_name[trial.hp.word_embedding])

    probs = map_on_processes(member_probs, jobs)
    means, start = [], 0
    for trial in trials:
        means.append(mean_probs(probs[start:start + len(trial.members)]))
        start += len(trial.members)
    return means


def stack_top_k(trials: Sequence[Trial], k: int) -> list:
    """The stack of the K best trials, in rank order."""
    if not 1 <= k <= len(trials):
        raise ValueError(f"k must be in 1..{len(trials)}, got {k}")
    return rank(trials)[:k]


def stacked_predict(stack: Sequence[Trial], docs_by_name: dict) -> np.ndarray:
    """Mean over the stack's trials' predictions, in rank order.

    ``docs_by_name`` maps each trial's word_embedding name to the Documents
    embedded with that table. Because every trial has the same member
    count, this equals the flat mean over all underlying models.
    """
    return mean_probs(ensemble_predict(stack, docs_by_name))


# --------------------------------------------------------------------------
# manifest (stacked ensemble serialization)
# --------------------------------------------------------------------------
#
# JSON manifest listing every member model file with its sha256. Model paths
# are stored relative to the manifest's directory. cv scores in the manifest
# are advisory after load: hashes are verified, scores are not recomputable
# without the training data.

MANIFEST_FORMAT_VERSION = 1


def hash_members(trials: Sequence[Trial]) -> list:
    """``trials`` with every member a ModelFile that carries its file's
    sha256. Members without one are hashed on one process per usable CPU
    (workers.map_on_processes)."""
    from .workers import map_on_processes

    paths = [m.path for trial in trials for m in trial.members if not m.sha256]
    digests = iter(map_on_processes(file_sha256, paths))
    return [replace(trial, members=[ModelFile(m.path, m.sha256 or next(digests))
                                    for m in trial.members])
            for trial in trials]


def save_ensemble(stack: Sequence[Trial], manifest_path, fold_seed: int,
                  space_descriptor: str) -> None:
    """Write the manifest of ``stack``, whose trials' members are ModelFiles
    (fold order); each entry takes its member's path and the file's sha256,
    hashed here (hash_members) where the member carries none."""
    manifest_dir = os.path.dirname(os.path.abspath(manifest_path))
    members = []
    for trial in hash_members(stack):
        for member in trial.members:
            members.append({
                "path": os.path.relpath(os.path.abspath(member.path), manifest_dir),
                "sha256": member.sha256,
                "trial_id": trial.trial_id,
                "cv_score": round(trial.cv_score, 6),
            })
    doc = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "K": len(stack),
        "members": members,
        "fold_seed": fold_seed,
        "space_descriptor": space_descriptor,
    }
    with atomic_write(manifest_path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# key -> (check, what the value must be), for the manifest and each member
_MANIFEST_TYPES = {
    "format_version": (lambda v: is_int(v) and v <= MANIFEST_FORMAT_VERSION,
                       f"an integer <= {MANIFEST_FORMAT_VERSION}"),
    "K": (lambda v: is_int(v) and v >= 1, "a positive integer"),
    "members": (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list"),
}
_MEMBER_TYPES = {
    "path": (lambda v: isinstance(v, str), "a string"),
    "sha256": (lambda v: isinstance(v, str), "a string"),
    "trial_id": (is_int, "an integer"),
    "cv_score": (is_number, "a number"),
}


def load_ensemble(manifest_path) -> list:
    """The stack a manifest lists, in rank order, each member a ModelFile
    that ensemble_predict loads and checks against its sha256 when it uses
    it. Only the first member file of each trial is read here, for its
    hyperparameters; errors name the manifest, and the member or its file."""
    doc = read_json(manifest_path, "manifest")
    check_fields(f"{manifest_path}: manifest", doc, _MANIFEST_TYPES)
    for i, entry in enumerate(doc["members"]):
        check_fields(f"{manifest_path}: member {i}", entry, _MEMBER_TYPES)
    manifest_dir = os.path.dirname(os.path.abspath(manifest_path))

    by_trial: dict = {}  # in manifest order
    for entry in doc["members"]:
        path = os.path.normpath(os.path.join(manifest_dir, entry["path"]))
        if not os.path.exists(path):
            raise DataError(f"{manifest_path}: missing member file {entry['path']}")
        tid = entry["trial_id"]
        if tid not in by_trial:
            try:  # the error names the manifest that lists the member
                hp = load_model_hp(path)
            except DataError as exc:
                raise DataError(f"{manifest_path}: {exc}") from None
            by_trial[tid] = Trial(tid, hp, float(entry["cv_score"]))
        by_trial[tid].members.append(ModelFile(path, entry["sha256"]))

    counts = sorted({len(trial.members) for trial in by_trial.values()})
    if len(by_trial) != doc["K"] or len(counts) > 1:  # stacked_predict assumes both
        raise DataError(f"{manifest_path}: K is {doc['K']}, but the members form "
                        f"{len(by_trial)} trials of {counts} members; a stack needs "
                        f"K trials of one member count")
    ranked = rank(by_trial.values())
    if [trial.trial_id for trial in ranked] != list(by_trial):
        logger.warning(
            "%s: member order does not match (-cv_score, trial_id) ranking; "
            "scores are advisory after load, reordering by score", manifest_path,
        )
    return ranked
