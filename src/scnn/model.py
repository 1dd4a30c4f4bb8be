"""The shallow text CNN: build, forward/backward, train, predict, save/load.

Architecture: five convolution groups (one per entry of ``filter_sizes``,
each with ``n_filters`` filters) over the document's embedding rows,
max-over-time pooling, dropout, a ReLU dense layer of ``n_dense_output``
units, dropout again, and a 3-way softmax output. Embeddings are frozen
inputs; only the tensors created here are trained.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import metrics, nn_core
from .errors import DataError, NumericError
from .rng import Rng

N_GROUPS = 5
N_CLASSES = 3

# Finite domains for every searched hyperparameter field.
DEFAULT_SEARCH_DOMAINS = {
    "adam_b2": (0.9, 0.999),
    "n_dense_output": (100, 200, 300, 400),
    "keep_prob": (0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    "batch_size": (50, 100, 150),
    "learning_rate": (0.0001, 0.001),
    "word_embedding": ("godin", "shin"),
    "n_filters": (100, 200, 300, 400),
    "filter_sizes": (
        (1, 2, 3, 4, 5),
        (2, 3, 4, 5, 6),
        (3, 4, 5, 6, 7),
        (1, 2, 2, 2, 3),
        (2, 3, 3, 3, 4),
        (3, 4, 4, 4, 5),
        (4, 5, 5, 5, 6),
    ),
}

HP_FIELDS = tuple(DEFAULT_SEARCH_DOMAINS)


@dataclass(frozen=True)
class HyperParams:
    adam_b2: float
    n_dense_output: int
    keep_prob: float
    batch_size: int
    learning_rate: float
    word_embedding: str
    n_filters: int
    filter_sizes: tuple

    def to_dict(self) -> dict:
        d = {f: getattr(self, f) for f in HP_FIELDS}
        d["filter_sizes"] = list(self.filter_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "HyperParams":
        unknown = sorted(set(d) - set(HP_FIELDS))
        missing = sorted(set(HP_FIELDS) - set(d))
        if unknown or missing:
            raise DataError(
                f"bad hyperparameter config: unknown keys {unknown}, missing keys {missing}"
            )
        kw = dict(d)
        try:
            kw["filter_sizes"] = tuple(int(v) for v in d["filter_sizes"])
        except TypeError:
            raise DataError("filter_sizes must be a list of integers") from None
        return cls(**kw)


def validate_hyperparams(hp: HyperParams, restricted: bool = True) -> list:
    """Returns a list of errors, one per offending field (empty if valid).

    ``restricted`` checks membership in the standard search domains; with
    ``restricted=False`` (the --unrestricted-space mode) only structural
    sanity is enforced. The group count stays fixed at 5 either way.
    """
    errors = []
    if restricted:
        for name in HP_FIELDS:
            value = getattr(hp, name)
            if value not in DEFAULT_SEARCH_DOMAINS[name]:
                errors.append(f"{name}={value!r} not in {DEFAULT_SEARCH_DOMAINS[name]}")
        return errors
    if not 0 < hp.adam_b2 < 1:
        errors.append(f"adam_b2={hp.adam_b2!r} must be in (0, 1)")
    if not (isinstance(hp.n_dense_output, int) and hp.n_dense_output >= 1):
        errors.append(f"n_dense_output={hp.n_dense_output!r} must be a positive integer")
    if not 0 < hp.keep_prob <= 1:
        errors.append(f"keep_prob={hp.keep_prob!r} must be in (0, 1]")
    if not (isinstance(hp.batch_size, int) and hp.batch_size >= 1):
        errors.append(f"batch_size={hp.batch_size!r} must be a positive integer")
    if not hp.learning_rate > 0:
        errors.append(f"learning_rate={hp.learning_rate!r} must be positive")
    if not (isinstance(hp.word_embedding, str) and hp.word_embedding):
        errors.append(f"word_embedding={hp.word_embedding!r} must be a non-empty name")
    if not (isinstance(hp.n_filters, int) and hp.n_filters >= 1):
        errors.append(f"n_filters={hp.n_filters!r} must be a positive integer")
    if len(hp.filter_sizes) != N_GROUPS or any(
        not (isinstance(w, int) and w >= 1) for w in hp.filter_sizes
    ):
        errors.append(
            f"filter_sizes={hp.filter_sizes!r} must be exactly {N_GROUPS} positive integers"
        )
    return errors


# --------------------------------------------------------------------------
# model container
# --------------------------------------------------------------------------

def _tensor_order(hp: HyperParams) -> list:
    names = []
    for g in range(N_GROUPS):
        names += [f"conv{g}_w", f"conv{g}_b"]
    names += ["dense_w", "dense_b", "out_w", "out_b"]
    return names


@dataclass
class ShallowCNN:
    hp: HyperParams
    embedding_dim: int
    params: dict = field(repr=False)
    init_seed: int
    dtype: np.dtype = np.dtype(np.float32)

    @property
    def pooled_width(self) -> int:
        return N_GROUPS * self.hp.n_filters

    def copy_params(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}

    def predict_proba(self, docs: np.ndarray) -> np.ndarray:
        return predict_proba(self, docs)


def param_count(hp: HyperParams, embedding_dim: int) -> int:
    """Closed-form parameter count of the architecture."""
    f, nd = hp.n_filters, hp.n_dense_output
    conv = sum(h * embedding_dim * f + f for h in hp.filter_sizes)
    dense = N_GROUPS * f * nd + nd
    out = nd * N_CLASSES + N_CLASSES
    return conv + dense + out


def build_model(hp: HyperParams, embedding_dim: int, seed: int,
                dtype=np.float32) -> ShallowCNN:
    """Xavier-initialized weights, zero biases, deterministic in ``seed``.

    Groups sharing a width still get independent weights: all draws come
    sequentially from one seed-derived stream in declared tensor order.
    """
    problems = validate_hyperparams(hp, restricted=False)
    if problems:
        raise ValueError("invalid hyperparameters: " + "; ".join(problems))
    if embedding_dim < 1:
        raise ValueError(f"embedding_dim must be >= 1, got {embedding_dim}")
    dtype = np.dtype(dtype)
    rng = Rng(seed).substream("init")
    f, nd = hp.n_filters, hp.n_dense_output
    params = {}
    for g, h in enumerate(hp.filter_sizes):
        params[f"conv{g}_w"] = nn_core.xavier_init(
            h * embedding_dim, f, (h, embedding_dim, f), rng, dtype
        )
        params[f"conv{g}_b"] = np.zeros(f, dtype=dtype)
    pooled = N_GROUPS * f
    params["dense_w"] = nn_core.xavier_init(pooled, nd, (pooled, nd), rng, dtype)
    params["dense_b"] = np.zeros(nd, dtype=dtype)
    params["out_w"] = nn_core.xavier_init(nd, N_CLASSES, (nd, N_CLASSES), rng, dtype)
    params["out_b"] = np.zeros(N_CLASSES, dtype=dtype)
    return ShallowCNN(hp=hp, embedding_dim=embedding_dim, params=params,
                      init_seed=int(seed), dtype=dtype)


# --------------------------------------------------------------------------
# forward / backward
# --------------------------------------------------------------------------

def trim_pad_windows(docs: np.ndarray, h_max: int) -> np.ndarray:
    """The leading rows of a (B, L, dim) batch that convs of width <= h_max
    need: up to the last row nonzero in any document, plus h_max more.

    Every window past that last row is all-pad with value relu(b). The kept
    rows still hold the first of them and argmax takes the lowest position,
    so pooled values and argmaxes equal those of the full batch. The trim
    never cuts below min(L, h_max) rows, so a filter wider than the batch is
    still reported against the full length.
    """
    nonzero = np.flatnonzero(docs.any(axis=0).any(axis=1))  # 5x faster than axis=(0, 2)
    r_max = int(nonzero[-1]) + 1 if len(nonzero) else 0
    return docs[:, :min(docs.shape[1], r_max + h_max)]


def forward_batch(model: ShallowCNN, docs: np.ndarray, training: bool = False,
                  rng: Rng = None, fixed_masks=None):
    """Full pipeline on a (B, L, dim) batch; returns (probs (B, 3), caches).

    ``fixed_masks`` replays previously captured dropout masks (used by the
    finite-difference gradient checker); otherwise training mode draws fresh
    masks from ``rng``. Inference mode applies no dropout at all. The convs
    and their caches see the batch after ``trim_pad_windows``.
    """
    if docs.ndim != 3 or docs.shape[2] != model.embedding_dim:
        raise ValueError(
            f"docs shape {docs.shape} does not match embedding_dim {model.embedding_dim}"
        )
    hp = model.hp
    docs = trim_pad_windows(docs.astype(model.dtype, copy=False), max(hp.filter_sizes))
    pooled_parts = []
    conv_caches = []
    for g in range(N_GROUPS):
        pooled, cache = nn_core.conv_group_forward(
            docs, model.params[f"conv{g}_w"], model.params[f"conv{g}_b"]
        )
        pooled_parts.append(pooled)
        conv_caches.append(cache)
    feat = np.concatenate(pooled_parts, axis=1)

    if training:
        if fixed_masks is not None:
            mask1, mask2 = fixed_masks
            h0 = feat * mask1
        else:
            h0, mask1 = nn_core.dropout(feat, hp.keep_prob, rng, training=True)
    else:
        h0, mask1 = feat, None

    h1, dense_cache = nn_core.dense_forward(
        h0, model.params["dense_w"], model.params["dense_b"], "relu"
    )

    if training:
        if fixed_masks is not None:
            h2 = h1 * mask2
        else:
            h2, mask2 = nn_core.dropout(h1, hp.keep_prob, rng, training=True)
    else:
        h2, mask2 = h1, None

    logits, out_cache = nn_core.dense_forward(
        h2, model.params["out_w"], model.params["out_b"], "identity"
    )
    probs = nn_core.softmax(logits)
    caches = {
        "conv": conv_caches,
        "dense": dense_cache,
        "out": out_cache,
        "masks": (mask1, mask2),
        "probs": probs,
    }
    return probs, caches


def backward_batch(model: ShallowCNN, caches: dict, gold) -> dict:
    """Exact gradients of the mean batch cross-entropy for every parameter."""
    if not caches or "probs" not in caches:
        raise ValueError("backward requires the caches of a forward pass")
    mask1, mask2 = caches["masks"]
    dlogits = nn_core.softmax_cross_entropy_backward(caches["probs"], gold)
    dh2, d_out_w, d_out_b = nn_core.dense_backward(caches["out"], dlogits)
    dh1 = dh2 * mask2 if mask2 is not None else dh2
    dh0, d_dense_w, d_dense_b = nn_core.dense_backward(caches["dense"], dh1)
    dfeat = dh0 * mask1 if mask1 is not None else dh0

    grads = {"dense_w": d_dense_w, "dense_b": d_dense_b,
             "out_w": d_out_w, "out_b": d_out_b}
    for g, d_pooled in enumerate(np.split(dfeat, N_GROUPS, axis=1)):
        dW, db = nn_core.conv_group_backward(caches["conv"][g], d_pooled)
        grads[f"conv{g}_w"] = dW
        grads[f"conv{g}_b"] = db
    return grads


_PREDICT_CHUNK = 512


def predict_proba(model: ShallowCNN, docs: np.ndarray) -> np.ndarray:
    """Inference-mode probabilities, one row per document; rows sum to 1."""
    n = len(docs)
    out = np.zeros((n, N_CLASSES), dtype=model.dtype)
    for start in range(0, n, _PREDICT_CHUNK):
        chunk = docs[start:start + _PREDICT_CHUNK]
        out[start:start + len(chunk)] = forward_batch(model, chunk, training=False)[0]
    return out


# --------------------------------------------------------------------------
# training with early stopping and annealing restarts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSchedule:
    """Early-stopping policy: on ``patience`` epochs without dev improvement,
    restore the best weights, halve the learning rate, and reset the Adam
    moments; after ``restarts_allowed`` such events, the next stagnation
    stops training. The dev metric is micro-F1 over classes 1 and 2."""

    max_epochs: int = 30
    patience: int = 2
    restarts_allowed: int = 2
    lr_decay: float = 0.5


@dataclass
class TrainedModel:
    weights: ShallowCNN
    best_dev_score: float
    epochs_run: int
    restart_count: int
    history: list  # per epoch: (train_loss, dev_score, lr)

    def predict_proba(self, docs: np.ndarray) -> np.ndarray:
        return predict_proba(self.weights, docs)


def _dev_micro_f1(model: ShallowCNN, dev_docs, dev_labels) -> float:
    probs = predict_proba(model, dev_docs)
    pred = metrics.argmax_labels(probs)
    return metrics.micro_prf_12(metrics.confusion(dev_labels, pred))[2]


def train(model: ShallowCNN, train_docs: np.ndarray, train_labels: np.ndarray,
          dev_docs: np.ndarray, dev_labels: np.ndarray, sched: TrainSchedule,
          rng: Rng, dev_scorer: Optional[Callable] = None,
          callback: Optional[Callable] = None) -> TrainedModel:
    """Mini-batch Adam with per-epoch dev scoring and annealing restarts.

    Epoch shuffles come from ``rng.substream("shuffle", epoch)`` and dropout
    from ``rng.substream("dropout")``, so identical inputs and seeds replay
    bit-identically. ``dev_scorer(model)`` overrides the dev metric (test
    hook); ``callback(epoch, model, record)`` fires after each epoch, after
    any restart processing.
    """
    n = len(train_docs)
    if n == 0:
        raise ValueError("empty training set")
    if dev_scorer is None and len(dev_docs) == 0:
        raise ValueError("empty dev set")
    train_labels = np.asarray(train_labels, dtype=np.int64)

    lr = model.hp.learning_rate
    opt = nn_core.AdamState.for_params(model.params, beta2=model.hp.adam_b2)
    drop_rng = rng.substream("dropout")
    best_score = -np.inf
    best_params = model.copy_params()
    stagnation = 0
    restart_count = 0
    history = []

    epoch = 0
    while epoch < sched.max_epochs:
        epoch += 1
        order = rng.substream("shuffle", epoch).permutation(n)
        loss_total = 0.0
        for start in range(0, n, model.hp.batch_size):
            batch = order[start:start + model.hp.batch_size]
            probs, caches = forward_batch(
                model, train_docs[batch], training=True, rng=drop_rng
            )
            loss = nn_core.cross_entropy(probs, train_labels[batch])
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss {loss} at epoch {epoch}, "
                    f"batch starting {start}, lr {lr}"
                )
            grads = backward_batch(model, caches, train_labels[batch])
            nn_core.adam_step(model.params, grads, opt, lr)
            loss_total += loss * len(batch)
        train_loss = loss_total / n

        if dev_scorer is not None:
            dev_score = float(dev_scorer(model))
        else:
            dev_score = _dev_micro_f1(model, dev_docs, dev_labels)
        history.append((train_loss, dev_score, lr))

        if dev_score > best_score:
            best_score = dev_score
            best_params = model.copy_params()
            stagnation = 0
        else:
            stagnation += 1

        restarted = False
        stop = False
        if stagnation >= sched.patience:
            if restart_count < sched.restarts_allowed:
                model.params = {k: v.copy() for k, v in best_params.items()}
                opt = nn_core.AdamState.for_params(model.params, beta2=model.hp.adam_b2)
                lr *= sched.lr_decay
                restart_count += 1
                stagnation = 0
                restarted = True
            else:
                stop = True

        if callback is not None:
            callback(epoch, model, {
                "train_loss": train_loss, "dev_score": dev_score,
                "lr": history[-1][2], "restarted": restarted,
            })
        if stop:
            break

    model.params = best_params
    return TrainedModel(
        weights=model,
        best_dev_score=float(best_score),
        epochs_run=epoch,
        restart_count=restart_count,
        history=history,
    )


# --------------------------------------------------------------------------
# model file format
# --------------------------------------------------------------------------
#
# Binary, little-endian: magic "SCNN", u32 format version, u32 header
# length, JSON header (hp, dims, seed, dtype, tensor table, optional
# training metadata), then the raw tensors row-major in declared order.

MODEL_MAGIC = b"SCNN"
MODEL_FORMAT_VERSION = 1
_DTYPE_CODES = {"float32": "<f4", "float64": "<f8"}


def save_model(model, path) -> None:
    """Write a ShallowCNN or TrainedModel; round trips bit-exactly."""
    trained = model if isinstance(model, TrainedModel) else None
    net = trained.weights if trained else model
    dtype_name = net.dtype.name
    if dtype_name not in _DTYPE_CODES:
        raise ValueError(f"unsupported dtype {dtype_name}")
    order = _tensor_order(net.hp)
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "hp": net.hp.to_dict(),
        "embedding_dim": net.embedding_dim,
        "init_seed": net.init_seed,
        "dtype": dtype_name,
        "tensors": [[name, list(net.params[name].shape)] for name in order],
        "train_meta": None if trained is None else {
            "best_dev_score": trained.best_dev_score,
            "epochs_run": trained.epochs_run,
            "restart_count": trained.restart_count,
            "history": [list(row) for row in trained.history],
        },
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MODEL_MAGIC)
            fh.write(struct.pack("<II", MODEL_FORMAT_VERSION, len(blob)))
            fh.write(blob)
            code = _DTYPE_CODES[dtype_name]
            for name in order:
                fh.write(np.ascontiguousarray(net.params[name], dtype=code).tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_model(path):
    """Inverse of save_model; returns a TrainedModel when metadata is present."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    with fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise DataError(f"{path}: not a model file")
        head = fh.read(8)
        if len(head) < 8:
            raise DataError(f"{path}: truncated model file")
        version, header_len = struct.unpack("<II", head)
        if version > MODEL_FORMAT_VERSION:
            raise DataError(
                f"{path}: model format version {version} is newer than "
                f"supported version {MODEL_FORMAT_VERSION}"
            )
        blob = fh.read(header_len)
        if len(blob) < header_len:
            raise DataError(f"{path}: truncated model file")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: corrupt model header: {exc}") from exc
        hp = HyperParams.from_dict(header["hp"])
        code = _DTYPE_CODES[header["dtype"]]
        itemsize = np.dtype(code).itemsize
        params = {}
        for name, shape in header["tensors"]:
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = fh.read(count * itemsize)
            if len(raw) < count * itemsize:
                raise DataError(f"{path}: truncated model file (tensor {name})")
            params[name] = np.frombuffer(raw, dtype=code).reshape(shape).copy()
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after declared tensors")
    net = ShallowCNN(
        hp=hp,
        embedding_dim=int(header["embedding_dim"]),
        params=params,
        init_seed=int(header["init_seed"]),
        dtype=np.dtype(header["dtype"]),
    )
    meta = header.get("train_meta")
    if meta is None:
        return net
    return TrainedModel(
        weights=net,
        best_dev_score=meta["best_dev_score"],
        epochs_run=meta["epochs_run"],
        restart_count=meta["restart_count"],
        history=[tuple(row) for row in meta["history"]],
    )
