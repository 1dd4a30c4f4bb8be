"""Fold ensembles (5 models from 5-fold CV) and top-K stacked ensembles.

A fold ensemble trains one model per fold, each validated on its held-out
fold; averaging the five probability outputs gives the ensemble prediction,
and the out-of-fold predictions give a CV score to rank trials by. A stacked
ensemble averages the top K fold ensembles ranked by that score (descending,
ties broken by ascending trial id). All averaging is plain arithmetic mean
in probability space, accumulated in float64 in a fixed member order.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .corpus import FoldAssignment
from .errors import DataError, NumericError
from .model import HyperParams, TrainSchedule, TrainedModel, build_model, load_model, train
from .rng import Rng

logger = logging.getLogger(__name__)


@dataclass
class FoldEnsemble:
    hp: HyperParams
    members: list = field(repr=False)  # k TrainedModels, fold order
    oof_probs: Optional[np.ndarray] = field(default=None, repr=False)
    cv_score: float = float("nan")
    trial_id: int = 0
    folds: Optional[FoldAssignment] = None


@dataclass
class StackedEnsemble:
    ranked_members: list  # FoldEnsembles, descending cv_score / ascending trial_id
    k: int


def train_fold_ensemble(hp: HyperParams, docs: np.ndarray, labels: np.ndarray,
                        folds: FoldAssignment, sched: TrainSchedule, rng: Rng,
                        trial_id: int = 0, dtype=np.float32) -> FoldEnsemble:
    """Train one model per fold; dev set = the held-out fold.

    Each member's init and training streams derive from ``rng`` and its fold
    index, so the whole ensemble replays bit-identically. Out-of-fold
    predictions cover every example exactly once; cv_score is their micro-F1
    over classes 1 and 2.
    """
    labels = np.asarray(labels, dtype=np.int64)
    fold_of = np.asarray(folds.fold_of, dtype=np.int64)
    if len(fold_of) != len(docs):
        raise ValueError(f"fold assignment covers {len(fold_of)} examples, got {len(docs)}")
    members = []
    oof = np.zeros((len(docs), 3), dtype=np.float64)
    for i in range(folds.k):
        held_out = np.flatnonzero(fold_of == i)
        train_idx = np.flatnonzero(fold_of != i)
        fold_seed = rng.derive_seed("fold", i)
        net = build_model(hp, docs.shape[2], seed=fold_seed, dtype=dtype)
        try:
            trained = train(
                net, docs[train_idx], labels[train_idx],
                docs[held_out], labels[held_out],
                sched, Rng(fold_seed).substream("train"),
            )
        except (DataError, ValueError, ArithmeticError) as exc:
            raise type(exc)(f"fold {i}: {exc}") from exc
        except NumericError as exc:
            raise NumericError(f"fold {i}: {exc}") from exc
        members.append(trained)
        oof[held_out] = trained.predict_proba(docs[held_out]).astype(np.float64)
    pred = metrics.argmax_labels(oof)
    cv_score = metrics.micro_prf_12(metrics.confusion(labels, pred))[2]
    return FoldEnsemble(hp=hp, members=members, oof_probs=oof,
                        cv_score=float(cv_score), trial_id=trial_id, folds=folds)


def ensemble_predict(fe: FoldEnsemble, docs: np.ndarray) -> np.ndarray:
    """Mean of the members' probabilities, in fixed member order."""
    acc = np.zeros((len(docs), 3), dtype=np.float64)
    for member in fe.members:
        acc += member.predict_proba(docs)
    return acc / len(fe.members)


def rank_key(fe: FoldEnsemble):
    return (-fe.cv_score, fe.trial_id)


def stack_top_k(trials: Sequence[FoldEnsemble], k: int) -> StackedEnsemble:
    """The K best fold ensembles by (-cv_score, trial_id)."""
    if not 1 <= k <= len(trials):
        raise ValueError(f"k must be in 1..{len(trials)}, got {k}")
    ranked = sorted(trials, key=rank_key)
    return StackedEnsemble(ranked_members=ranked[:k], k=k)


def stacked_predict(se: StackedEnsemble, docs: np.ndarray) -> np.ndarray:
    """Mean over the K member ensembles' predictions, in rank order.

    Because every sub-ensemble has the same member count, this equals the
    flat mean over all underlying models.
    """
    acc = np.zeros((len(docs), 3), dtype=np.float64)
    for fe in se.ranked_members:
        acc += ensemble_predict(fe, docs)
    return acc / len(se.ranked_members)


def stacked_predict_by_embedding(se: StackedEnsemble, docs_by_name: dict) -> np.ndarray:
    """stacked_predict for ensembles whose members use different embedding
    tables; ``docs_by_name`` maps each word_embedding name to its documents."""
    first = docs_by_name[se.ranked_members[0].hp.word_embedding]
    acc = np.zeros((len(first), 3), dtype=np.float64)
    for fe in se.ranked_members:
        acc += ensemble_predict(fe, docs_by_name[fe.hp.word_embedding])
    return acc / len(se.ranked_members)


# --------------------------------------------------------------------------
# manifest (stacked ensemble serialization)
# --------------------------------------------------------------------------
#
# JSON manifest listing every member model file with its sha256. Model paths
# are stored relative to the manifest's directory. cv scores in the manifest
# are advisory after load: hashes are verified, scores are not recomputable
# without the training data.

MANIFEST_FORMAT_VERSION = 1


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


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
        "K": se.k,
        "members": members,
        "fold_seed": fold_seed,
        "space_descriptor": space_descriptor,
    }
    tmp = f"{manifest_path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, manifest_path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


_MEMBER_KEYS = ("path", "sha256", "trial_id", "cv_score")


def _check_manifest(manifest_path, doc) -> None:
    """DataError naming the file unless ``doc`` has the keys load_ensemble reads."""
    if not isinstance(doc, dict):
        raise DataError(f"{manifest_path}: manifest is not a JSON object")
    missing = [key for key in ("K", "members") if key not in doc]
    if missing:
        raise DataError(f"{manifest_path}: manifest lacks {', '.join(missing)}")
    if not isinstance(doc["members"], list) or not doc["members"]:
        raise DataError(f"{manifest_path}: members must be a non-empty list")
    for i, entry in enumerate(doc["members"]):
        if not isinstance(entry, dict):
            raise DataError(f"{manifest_path}: member {i} is not a JSON object")
        missing = [key for key in _MEMBER_KEYS if key not in entry]
        if missing:
            raise DataError(f"{manifest_path}: member {i} lacks {', '.join(missing)}")


def load_ensemble(manifest_path) -> StackedEnsemble:
    """Load member models, verifying file hashes; errors name the member."""
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{manifest_path}: not valid JSON: {exc}") from exc
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
        if file_sha256(path) != entry["sha256"]:
            raise DataError(f"{manifest_path}: hash mismatch for member {entry['path']}")
        tid = int(entry["trial_id"])
        if tid not in by_trial:
            by_trial[tid] = {"models": [], "cv_score": float(entry["cv_score"])}
            trial_order.append(tid)
        loaded = load_model(path)
        if not isinstance(loaded, TrainedModel):
            loaded = TrainedModel(weights=loaded, best_dev_score=float("nan"),
                                  epochs_run=0, restart_count=0, history=[])
        by_trial[tid]["models"].append(loaded)

    ensembles = [
        FoldEnsemble(hp=info["models"][0].weights.hp, members=info["models"],
                     cv_score=info["cv_score"], trial_id=tid)
        for tid, info in by_trial.items()
    ]
    ranked = sorted(ensembles, key=rank_key)
    if [fe.trial_id for fe in ranked] != trial_order:
        logger.warning(
            "%s: member order does not match (-cv_score, trial_id) ranking; "
            "scores are advisory after load, reordering by score", manifest_path,
        )
    return StackedEnsemble(ranked_members=ranked, k=int(doc["K"]))
