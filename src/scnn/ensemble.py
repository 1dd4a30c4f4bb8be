"""Fold ensembles (5 models from 5-fold CV) and top-K stacked ensembles.

A fold ensemble trains one model per fold, each validated on its held-out
fold; averaging the five probability outputs gives the ensemble prediction,
and the out-of-fold predictions give a CV score to rank trials by. A stacked
ensemble averages the top K fold ensembles ranked by that score (descending,
ties broken by ascending trial id). All averaging is plain arithmetic mean
in probability space, accumulated in float64 in a fixed member order.

A member is a TrainedModel in memory or a ModelFile on disk. A ModelFile is
loaded only while ensemble_predict uses it, so predicting with a stack of
any size holds one member's tensors at a time.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .corpus import FoldAssignment
from .errors import DataError, NumericError
from .fileio import atomic_write, check_fields, file_sha256, is_int, read_json
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
class FoldEnsemble:
    hp: HyperParams
    members: list = field(repr=False)  # k TrainedModels or ModelFiles, fold order
    oof_probs: Optional[np.ndarray] = field(default=None, repr=False)
    cv_score: float = float("nan")
    trial_id: int = 0


@dataclass
class StackedEnsemble:
    ranked_members: list  # FoldEnsembles, descending cv_score / ascending trial_id


def train_fold_ensemble(hp: HyperParams, docs: np.ndarray, labels: np.ndarray,
                        folds: FoldAssignment, sched: TrainSchedule, rng: Rng,
                        trial_id: int = 0, on_member=None, fold_ids=None,
                        buffers: Optional[SharedBuffers] = None) -> FoldEnsemble:
    """Train one model per fold; dev set = the held-out fold.

    Each member's init and training streams derive from ``rng`` and its fold
    index, so the whole ensemble replays bit-identically, and so does any
    fold trained alone. ``fold_ids`` (default: all, in order) picks the folds
    to train; the ensemble then holds their members and their out-of-fold
    rows, zeros elsewhere. Out-of-fold rows are the held-out fold's dev
    probabilities at the best epoch. cv_score is the micro-F1 over classes 1
    and 2 of the out-of-fold predictions once every fold is trained, else
    NaN. ``buffers`` carries training buffers across calls. With
    ``on_member`` given, ``on_member(i, trained)`` runs once fold i's
    out-of-fold rows are computed and returns what the ensemble keeps in
    place of the model (a ModelFile, say); while a fold trains, the only
    other model held is then the previous fold's.
    """
    labels = np.asarray(labels, dtype=np.int64)
    fold_of = np.asarray(folds.fold_of, dtype=np.int64)
    if len(fold_of) != len(docs):
        raise ValueError(f"fold assignment covers {len(fold_of)} examples, got {len(docs)}")
    fold_ids = range(folds.k) if fold_ids is None else fold_ids
    buffers = SharedBuffers() if buffers is None else buffers
    members = []
    oof = np.zeros((len(docs), 3), dtype=np.float64)
    for i in fold_ids:
        held_out = np.flatnonzero(fold_of == i)
        train_idx = np.flatnonzero(fold_of != i)
        fold_seed = rng.derive_seed("fold", i)
        net = build_model(hp, docs.shape[2], seed=fold_seed)
        try:
            trained = train(
                net, docs[train_idx], labels[train_idx],
                docs[held_out], labels[held_out],
                sched, Rng(fold_seed).substream("train"), buffers=buffers.for_model(net),
            )
        except (DataError, ValueError, ArithmeticError) as exc:
            raise type(exc)(f"fold {i}: {exc}") from exc
        except NumericError as exc:
            raise NumericError(f"fold {i}: {exc}") from exc
        oof[held_out] = trained.dev_probs.astype(np.float64)
        members.append(trained if on_member is None else on_member(i, trained))
        # with several folds in one call (scnn train), fold i's model is
        # released when fold i + 1's training returns, not before: freed
        # sooner, whether glibc hands its arrays back to the OS depends on
        # the heap layout, and a 3-trial paper-shape search then faulted in
        # up to 7x the pages (benchmarks/BENCH_streaming.json)
    cv = metrics.micro_f1_12(labels, oof) if len(members) == folds.k else float("nan")
    return FoldEnsemble(hp=hp, members=members, oof_probs=oof, cv_score=cv,
                        trial_id=trial_id)


def mean_probs(parts: list) -> np.ndarray:
    """Mean of (N, 3) probability arrays, summed in float64 in list order."""
    acc = np.zeros((len(parts[0]), 3), dtype=np.float64)
    for part in parts:
        acc += part
    return acc / len(parts)


def _member_probs(fe: FoldEnsemble, member, docs: np.ndarray) -> np.ndarray:
    """One member's probabilities; a ModelFile is loaded for this call only."""
    if isinstance(member, ModelFile):
        path = member.path
        member = load_model(path, member.sha256)
        if not isinstance(member, TrainedModel):  # saved without training metadata
            member = TrainedModel(weights=member, best_dev_score=float("nan"),
                                  epochs_run=0, restart_count=0, history=[])
        if member.weights.hp != fe.hp:
            raise DataError(f"{path}: hyperparameters differ from those of "
                            f"trial {fe.trial_id}")
    return member.predict_proba(docs)


def ensemble_predict(fe: FoldEnsemble, docs: np.ndarray) -> np.ndarray:
    """Mean of the members' probabilities, in fixed member order."""
    return mean_probs([_member_probs(fe, member, docs) for member in fe.members])


def rank_key(fe: FoldEnsemble):
    return (-fe.cv_score, fe.trial_id)


def stack_top_k(trials: Sequence[FoldEnsemble], k: int) -> StackedEnsemble:
    """The K best fold ensembles by (-cv_score, trial_id)."""
    if not 1 <= k <= len(trials):
        raise ValueError(f"k must be in 1..{len(trials)}, got {k}")
    ranked = sorted(trials, key=rank_key)
    return StackedEnsemble(ranked_members=ranked[:k])


def stacked_predict(se: StackedEnsemble, docs_by_name: dict) -> np.ndarray:
    """Mean over the K member ensembles' predictions, in rank order.

    ``docs_by_name`` maps each member's word_embedding name to the documents
    embedded with that table. Because every sub-ensemble has the same member
    count, this equals the flat mean over all underlying models.
    """
    return mean_probs([ensemble_predict(fe, docs_by_name[fe.hp.word_embedding])
                       for fe in se.ranked_members])


# --------------------------------------------------------------------------
# manifest (stacked ensemble serialization)
# --------------------------------------------------------------------------
#
# JSON manifest listing every member model file with its sha256. Model paths
# are stored relative to the manifest's directory. cv scores in the manifest
# are advisory after load: hashes are verified, scores are not recomputable
# without the training data.

MANIFEST_FORMAT_VERSION = 1


def save_ensemble(se: StackedEnsemble, manifest_path, model_paths: dict,
                  fold_seed: int, space_descriptor: str) -> None:
    """Write the manifest; ``model_paths[trial_id]`` lists that trial's
    member model files (fold order), which must already exist on disk."""
    manifest_dir = os.path.dirname(os.path.abspath(manifest_path))
    members = []
    for fe in se.ranked_members:
        paths = model_paths[fe.trial_id]
        if len(paths) != len(fe.members):
            raise ValueError(
                f"trial {fe.trial_id}: {len(paths)} paths for {len(fe.members)} members"
            )
        for p in paths:
            members.append({
                "path": os.path.relpath(os.path.abspath(p), manifest_dir),
                "sha256": file_sha256(p),
                "trial_id": fe.trial_id,
                "cv_score": round(fe.cv_score, 6),
            })
    doc = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "K": len(se.ranked_members),
        "members": members,
        "fold_seed": fold_seed,
        "space_descriptor": space_descriptor,
    }
    with atomic_write(manifest_path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# key -> (check, what the value must be)
_MEMBER_TYPES = {
    "path": (lambda v: isinstance(v, str), "a string"),
    "sha256": (lambda v: isinstance(v, str), "a string"),
    "trial_id": (is_int, "an integer"),
    "cv_score": (lambda v: is_int(v) or isinstance(v, float), "a number"),
}


def _check_manifest(manifest_path, doc) -> None:
    """DataError naming the file (and the member) unless ``doc`` has every
    key load_ensemble reads, each with the type it expects."""
    if not isinstance(doc, dict):
        raise DataError(f"{manifest_path}: manifest is not a JSON object")
    missing = [key for key in ("K", "members") if key not in doc]
    if missing:
        raise DataError(f"{manifest_path}: manifest lacks {', '.join(missing)}")
    if not is_int(doc["K"]) or doc["K"] < 1:
        raise DataError(f"{manifest_path}: K must be a positive integer, got {doc['K']!r}")
    if not is_int(doc.get("format_version", 0)):
        raise DataError(f"{manifest_path}: format_version must be an integer")
    if not isinstance(doc["members"], list) or not doc["members"]:
        raise DataError(f"{manifest_path}: members must be a non-empty list")
    for i, entry in enumerate(doc["members"]):
        check_fields(manifest_path, f"member {i}", entry, _MEMBER_TYPES)


def load_ensemble(manifest_path) -> StackedEnsemble:
    """The stack a manifest lists, each member a ModelFile that
    ensemble_predict loads and checks against its sha256 when it uses it.
    Only the first member file of each trial is read here, for its
    hyperparameters; errors name the file and the member."""
    doc = read_json(manifest_path, "manifest")
    _check_manifest(manifest_path, doc)
    if doc.get("format_version", 0) > MANIFEST_FORMAT_VERSION:
        raise DataError(
            f"{manifest_path}: manifest format version {doc['format_version']} "
            f"is newer than supported version {MANIFEST_FORMAT_VERSION}"
        )
    manifest_dir = os.path.dirname(os.path.abspath(manifest_path))

    by_trial: dict = {}
    trial_order = []
    for entry in doc["members"]:
        path = os.path.join(manifest_dir, entry["path"])
        if not os.path.exists(path):
            raise DataError(f"{manifest_path}: missing member file {entry['path']}")
        tid = entry["trial_id"]
        if tid not in by_trial:
            by_trial[tid] = FoldEnsemble(hp=load_model_hp(path), members=[],
                                         cv_score=float(entry["cv_score"]), trial_id=tid)
            trial_order.append(tid)
        by_trial[tid].members.append(ModelFile(path, entry["sha256"]))

    counts = sorted({len(fe.members) for fe in by_trial.values()})
    if len(by_trial) != doc["K"] or len(counts) > 1:  # stacked_predict assumes both
        raise DataError(f"{manifest_path}: K is {doc['K']}, but the members form "
                        f"{len(by_trial)} trials of {counts} members; a stack needs "
                        f"K trials of one member count")
    ranked = sorted(by_trial.values(), key=rank_key)
    if [fe.trial_id for fe in ranked] != trial_order:
        logger.warning(
            "%s: member order does not match (-cv_score, trial_id) ranking; "
            "scores are advisory after load, reordering by score", manifest_path,
        )
    return StackedEnsemble(ranked_members=ranked)
