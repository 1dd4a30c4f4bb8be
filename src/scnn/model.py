"""The shallow text CNN: build, forward/backward, train, predict, save/load.

Architecture: five convolution groups (one per entry of ``filter_sizes``,
each with ``n_filters`` filters) over the document's embedding rows,
max-over-time pooling, dropout, a ReLU dense layer of ``n_dense_output``
units, dropout again, and a 3-way softmax output. Embeddings are frozen
inputs; only the tensors created here are trained.

A model's trained tensors lie back to back in one flat buffer, its arena,
in ``param_shapes`` order (the model file's order). Gradients, Adam moments
and the best-weights snapshot are arenas of the same layout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels, metrics, nn_core
from .errors import DataError, NumericError
from .fileio import atomic_write, check_fields, is_int, is_number
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


def _positive_int(v) -> bool:
    return is_int(v) and v >= 1


# field -> (check, what the value must be): every hyperparameter's type and
# range, for each reader and writer of one (configs, leaderboards, headers)
HP_RULES = {
    "adam_b2": (lambda v: is_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "n_dense_output": (_positive_int, "a positive integer"),
    "keep_prob": (lambda v: is_number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "batch_size": (_positive_int, "a positive integer"),
    "learning_rate": (lambda v: is_number(v) and 0 < v < math.inf, "a positive finite number"),
    "word_embedding": (lambda v: isinstance(v, str) and v != "", "a non-empty name"),
    "n_filters": (_positive_int, "a positive integer"),
    "filter_sizes": (lambda v: isinstance(v, (list, tuple)) and len(v) == N_GROUPS
                     and all(_positive_int(w) for w in v),
                     f"exactly {N_GROUPS} positive integers"),
}


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
    def from_dict(cls, d) -> "HyperParams":
        """The hyperparameters of the JSON object ``d``; DataError unless its
        keys are exactly HP_FIELDS and each value passes its HP_RULES rule."""
        if isinstance(d, dict) and set(d) != set(HP_FIELDS):
            raise DataError(f"bad hyperparameter config: unknown keys "
                            f"{sorted(set(d) - set(HP_FIELDS))}, missing keys "
                            f"{sorted(set(HP_FIELDS) - set(d))}")
        check_fields("hp", d, HP_RULES)
        return cls(**{**d, "filter_sizes": tuple(d["filter_sizes"])})


def hp_problem(name: str, value, restricted: bool) -> Optional[str]:
    """What is wrong with ``value`` for the field ``name``, or None: it breaks
    the field's HP_RULES rule, or, when ``restricted``, it is not in the
    field's standard search domain."""
    ok, must = HP_RULES[name]
    if not ok(value):
        return f"{name}={value!r} must be {must}"
    if restricted and value not in DEFAULT_SEARCH_DOMAINS[name]:
        return f"{name}={value!r} not in {DEFAULT_SEARCH_DOMAINS[name]}"
    return None


def validate_hyperparams(hp: HyperParams, restricted: bool = True) -> list:
    """Returns a list of errors, one per offending field (empty if valid).

    Every field must pass its HP_RULES rule; ``restricted`` also requires
    membership in the standard search domains (``restricted=False`` is the
    --unrestricted-space mode). The group count stays fixed at 5 either way.
    """
    problems = (hp_problem(name, getattr(hp, name), restricted) for name in HP_FIELDS)
    return [p for p in problems if p]


# --------------------------------------------------------------------------
# model container
# --------------------------------------------------------------------------

def param_shapes(hp: HyperParams, embedding_dim: int) -> list:
    """(name, shape) of every trained tensor, in declared (file) order."""
    f, nd = hp.n_filters, hp.n_dense_output
    shapes = []
    for g, h in enumerate(hp.filter_sizes):
        shapes += [(f"conv{g}_w", (h, embedding_dim, f)), (f"conv{g}_b", (f,))]
    return shapes + [("dense_w", (N_GROUPS * f, nd)), ("dense_b", (nd,)),
                     ("out_w", (nd, N_CLASSES)), ("out_b", (N_CLASSES,))]


def arena_size(shapes) -> int:
    """Elements of an arena holding the tensors of a ``param_shapes`` list."""
    return sum(math.prod(shape) for _, shape in shapes)


def arena_views(arena: np.ndarray, shapes) -> dict:
    """name -> its view of the flat ``arena``, the ``shapes`` lying back to back."""
    if arena.shape != (arena_size(shapes),):
        raise ValueError(f"arena of shape {arena.shape} does not hold the "
                         f"{arena_size(shapes)} elements of the tensors")
    views, lo = {}, 0
    for name, shape in shapes:
        hi = lo + math.prod(shape)
        views[name] = arena[lo:hi].reshape(shape)
        lo = hi
    return views


@dataclass
class ShallowCNN:
    """A model: its hyperparameters and its arena, every trained tensor in
    one flat buffer; ``params[name]`` is that tensor's view into it."""

    hp: HyperParams
    embedding_dim: int
    arena: np.ndarray = field(repr=False)
    init_seed: int
    params: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.params = arena_views(self.arena, self.shapes)

    @property
    def shapes(self) -> list:
        return param_shapes(self.hp, self.embedding_dim)



def build_model(hp: HyperParams, embedding_dim: int, seed: int,
                dtype=np.float32) -> ShallowCNN:
    """Xavier-initialized weights, zero biases, deterministic in ``seed``.

    Groups sharing a width still get independent weights: all draws come
    sequentially from one seed-derived stream in declared tensor order. A
    weight's fan-in is the product of all but its last dimension.
    """
    problems = validate_hyperparams(hp, restricted=False)
    if problems:
        raise ValueError("invalid hyperparameters: " + "; ".join(problems))
    if embedding_dim < 1:
        raise ValueError(f"embedding_dim must be >= 1, got {embedding_dim}")
    shapes = param_shapes(hp, embedding_dim)
    arena = np.zeros(arena_size(shapes), dtype=dtype)
    net = ShallowCNN(hp=hp, embedding_dim=embedding_dim, arena=arena, init_seed=int(seed))
    rng = Rng(seed).substream("init")
    for name, shape in shapes:
        if name.endswith("_w"):
            fan_in = int(np.prod(shape[:-1]))
            net.params[name][...] = nn_core.xavier_init(fan_in, shape[-1], shape, rng)
    return net


# --------------------------------------------------------------------------
# forward / backward
# --------------------------------------------------------------------------

def trim_pad_windows(docs: np.ndarray, h_max: int) -> np.ndarray:
    """The leading rows of a (B, L, dim) batch that convs of width <= h_max
    need: up to the last row nonzero in any document, plus h_max more.

    Every window past that last row is all-pad with value relu(b). The kept
    rows still hold the first of them and argmax takes the lowest position,
    so pooled values and argmaxes equal those of the full batch.
    """
    nonzero = np.flatnonzero(docs.any(axis=0).any(axis=1))  # 5x faster than axis=(0, 2)
    r_max = int(nonzero[-1]) + 1 if len(nonzero) else 0
    return docs[:, :min(docs.shape[1], r_max + h_max)]


def forward_batch(model: ShallowCNN, docs: np.ndarray, training: bool = False,
                  rng: Rng = None):
    """Full pipeline on a (B, L, dim) batch; returns (probs (B, 3), caches).

    Training mode draws its dropout masks from ``rng``, first the features'
    and then the dense layer's; inference mode applies no dropout. The convs
    and their caches, one (docs, argmax, pooled, h) per group, see the batch
    after ``trim_pad_windows``.
    """
    if docs.ndim != 3 or docs.shape[2] != model.embedding_dim:
        raise ValueError(
            f"docs shape {docs.shape} does not match embedding_dim {model.embedding_dim}"
        )
    hp = model.hp
    h_max = max(hp.filter_sizes)
    if h_max > docs.shape[1]:
        raise ValueError(f"filter width {h_max} exceeds document length {docs.shape[1]}")
    docs = trim_pad_windows(docs.astype(model.arena.dtype, copy=False), h_max)
    pooled_parts = []
    conv_caches = []
    for g, h in enumerate(hp.filter_sizes):
        pooled, argmax = kernels.conv_pool_forward(
            docs, model.params[f"conv{g}_w"], model.params[f"conv{g}_b"]
        )
        pooled_parts.append(pooled)
        conv_caches.append((docs, argmax, pooled, h))
    feat = np.concatenate(pooled_parts, axis=1)

    def drop(x):
        return nn_core.dropout(x, hp.keep_prob, rng) if training else (x, None)

    h0, mask1 = drop(feat)
    h1, dense_cache = nn_core.dense_forward(
        h0, model.params["dense_w"], model.params["dense_b"], "relu"
    )

    h2, mask2 = drop(h1)
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


def backward_batch(model: ShallowCNN, caches: dict, gold, out: Optional[dict] = None) -> dict:
    """Exact gradients of the mean batch cross-entropy for every parameter,
    name -> array. They are written into ``out``, the ``arena_views`` of a
    gradient arena, when it is given, else into a fresh arena."""
    if not caches or "probs" not in caches:
        raise ValueError("backward requires the caches of a forward pass")
    grads = out if out is not None else arena_views(np.empty_like(model.arena), model.shapes)
    mask1, mask2 = caches["masks"]
    dlogits = nn_core.softmax_cross_entropy_backward(caches["probs"], gold)
    dh2 = nn_core.dense_backward(caches["out"], dlogits, out=(grads["out_w"], grads["out_b"]))[0]
    dh1 = dh2 * mask2 if mask2 is not None else dh2
    dh0 = nn_core.dense_backward(caches["dense"], dh1,
                                 out=(grads["dense_w"], grads["dense_b"]))[0]
    dfeat = dh0 * mask1 if mask1 is not None else dh0

    f = model.hp.n_filters
    for g, (docs, argmax, pooled, h) in enumerate(caches["conv"]):
        dW, db = kernels.conv_pool_backward(
            docs, argmax, pooled, dfeat[:, g * f:(g + 1) * f].astype(docs.dtype, copy=False), h
        )
        np.copyto(grads[f"conv{g}_w"], dW)
        np.copyto(grads[f"conv{g}_b"], db)
    return grads


def map_on_threads(fn: Callable, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on min(len(items), threads) threads
    while the calling thread waits, or on the calling thread when that is
    fewer than two. Each thread takes the next item not yet started. Once
    an item raises, or the caller is interrupted, no further item starts;
    the running ones end, and then the first failed item's error, or the
    interrupt, is raised: no thread outlives the call."""
    items = list(items)
    n_threads = min(len(items), threads)
    if n_threads < 2:
        return [fn(item) for item in items]
    results, failed = [None] * len(items), {}  # item index -> its error
    pending, lock = iter(range(len(items))), threading.Lock()
    go, stop, ended = threading.Event(), threading.Event(), threading.Semaphore(0)

    def work():
        go.wait()  # items start once every thread has, so each thread is joined
        while not stop.is_set():
            with lock:
                i = next(pending, None)
            if i is None:
                break
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                failed[i] = exc
                stop.set()
        ended.release()

    started = []
    try:
        for k in range(n_threads):
            worker = threading.Thread(target=work, name=f"scnn-{k}")
            worker.start()
            started.append(worker)
        go.set()
        for _ in started:
            # not join(): in Python 3.11 a join that Ctrl-C cuts short marks
            # its still running thread as stopped, and no later join waits
            ended.acquire()
    finally:
        stop.set()
        go.set()
        for worker in started:
            worker.join()
    if failed:
        raise failed[min(failed)]
    return results


_PREDICT_CHUNK = 512


def predict_proba(model: ShallowCNN, docs: np.ndarray, threads: int = 1) -> np.ndarray:
    """Inference-mode probabilities, one row per document; rows sum to 1.

    The documents go through forward_batch in chunks of _PREDICT_CHUNK, on
    up to ``threads`` threads (map_on_threads); numpy and BLAS release the
    GIL, so the chunks overlap. Each chunk writes its own rows from its own
    slice, so the bytes do not depend on ``threads``.
    """
    out = np.zeros((len(docs), N_CLASSES), dtype=model.arena.dtype)

    def run_chunk(start: int) -> None:
        rows = slice(start, start + _PREDICT_CHUNK)
        out[rows] = forward_batch(model, docs[rows], training=False)[0]

    map_on_threads(run_chunk, range(0, len(docs), _PREDICT_CHUNK), threads)
    return out


# --------------------------------------------------------------------------
# training with early stopping and annealing restarts
# --------------------------------------------------------------------------

RESTARTS_ALLOWED = 2
LR_DECAY = 0.5


@dataclass(frozen=True)
class TrainSchedule:
    """Early-stopping policy: on ``patience`` epochs without dev improvement,
    restore the best weights, multiply the learning rate by LR_DECAY, and
    reset the Adam moments; after RESTARTS_ALLOWED such events, the next
    stagnation stops training. The dev metric is micro-F1 over classes 1
    and 2."""

    max_epochs: int = 30
    patience: int = 2

    def __post_init__(self):
        if not (self.max_epochs >= 1 and self.patience >= 1):
            raise ValueError(f"{self}: needs max_epochs and patience >= 1")


@dataclass
class TrainedModel:
    """train()'s result, and what save_model writes."""

    weights: ShallowCNN
    best_dev_score: float
    epochs_run: int
    restart_count: int
    history: list  # per epoch: (train_loss, dev_score, lr)
    # the best epoch's dev-set probabilities, which equal predict_proba on
    # the dev set bit for bit; None when a dev_scorer replaced them. Not saved.
    dev_probs: Optional[np.ndarray] = field(default=None, repr=False)


def train_buffers(model: ShallowCNN) -> tuple:
    """(gradient arena, best-weights arena, AdamState) for train()."""
    return (np.empty_like(model.arena), np.empty_like(model.arena),
            nn_core.AdamState.for_arena(model.arena, model.shapes, beta2=model.hp.adam_b2))


class SharedBuffers:
    """One set of training buffers for consecutive train() calls, made anew
    only when a model's tensor layout or dtype differs from the last one's,
    so its pages are faulted in once per run of same-shaped models."""

    def __init__(self):
        self._key = self._set = None

    def for_model(self, model: ShallowCNN) -> tuple:
        key = (model.shapes, model.arena.dtype)
        if key != self._key:
            self._set = None  # the old set is freed before the new one is made
            self._key, self._set = key, train_buffers(model)
        self._set[2].beta2 = model.hp.adam_b2
        return self._set


def train(model: ShallowCNN, train_docs: np.ndarray, train_labels: np.ndarray,
          dev_docs: np.ndarray, dev_labels: np.ndarray, sched: TrainSchedule,
          rng: Rng, dev_scorer: Optional[Callable] = None, callback: Optional[Callable] = None,
          buffers: Optional[tuple] = None) -> TrainedModel:
    """Mini-batch Adam with per-epoch dev scoring and annealing restarts.

    ``buffers`` come from ``train_buffers`` or ``SharedBuffers.for_model``
    for a model of the same hyperparameters, or are made for this call.
    Epoch shuffles come from ``rng.substream("shuffle", epoch)`` and dropout
    from ``rng.substream("dropout")``, so identical inputs and seeds replay
    bit-identically. The result keeps the best epoch's dev probabilities.
    ``dev_scorer(model)`` overrides the dev metric (test hook);
    ``callback(epoch, model, record)`` fires after each epoch, after any
    restart processing.
    """
    n = len(train_docs)
    if n == 0:
        raise ValueError("empty training set")
    if dev_scorer is None and len(dev_docs) == 0:
        raise ValueError("empty dev set")
    train_labels = np.asarray(train_labels, dtype=np.int64)

    lr = model.hp.learning_rate
    grads, best, opt = buffers if buffers is not None else train_buffers(model)
    grad_views = arena_views(grads, model.shapes)
    opt.reset()
    drop_rng = rng.substream("dropout")
    best_score = -np.inf
    best_probs = None
    np.copyto(best, model.arena)
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
            backward_batch(model, caches, train_labels[batch], grad_views)
            nn_core.adam_step(model.arena, grads, opt, lr)
            loss_total += loss * len(batch)
        train_loss = loss_total / n

        dev_probs = None
        if dev_scorer is not None:
            dev_score = float(dev_scorer(model))
        else:
            dev_probs = predict_proba(model, dev_docs)
            dev_score = metrics.micro_f1_12(dev_labels, dev_probs)
        history.append((train_loss, dev_score, lr))

        if dev_score > best_score:
            best_score = dev_score
            best_probs = dev_probs
            np.copyto(best, model.arena)
            stagnation = 0
        else:
            stagnation += 1

        restarted = False
        stop = False
        if stagnation >= sched.patience:
            if restart_count < RESTARTS_ALLOWED:
                np.copyto(model.arena, best)
                opt.reset()
                lr *= LR_DECAY
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

    if stagnation:  # else the arena holds the best weights already
        np.copyto(model.arena, best)
    return TrainedModel(
        weights=model,
        best_dev_score=float(best_score),
        epochs_run=epoch,
        restart_count=restart_count,
        history=history,
        dev_probs=best_probs,
    )


# --------------------------------------------------------------------------
# model file format
# --------------------------------------------------------------------------
#
# Binary, little-endian: magic "SCNN", u32 format version, u32 header
# length, JSON header (hp, dims, seed, dtype "float32", tensor table,
# training metadata), then the raw float32 tensors row-major in declared
# order: the model's arena, byte for byte.

MODEL_MAGIC = b"SCNN"
MODEL_FORMAT_VERSION = 1
_TENSOR_DTYPE = np.dtype("<f4")  # float32, the one dtype a model file holds
# key -> (check, what the value must be), for each header value load_model checks
_HEADER_TYPES = {
    "hp": (lambda v: isinstance(v, dict), "an object"),
    "dtype": (lambda v: v == "float32", "float32"),
    "tensors": (lambda v: isinstance(v, list), "a list"),
    "embedding_dim": (lambda v: is_int(v) and v >= 1, "a positive integer"),
    "init_seed": (is_int, "an integer"),
}
_META_TYPES = {
    "best_dev_score": (is_number, "a number"),
    "epochs_run": (is_int, "an integer"),
    "restart_count": (is_int, "an integer"),
    "history": (lambda v: isinstance(v, list) and all(isinstance(r, list) for r in v),
                "a list of lists"),
}


def save_model(trained: TrainedModel, path) -> None:
    """Write a trained float32 model: its weights and training metadata.
    load_model of the file returns the weights bit for bit; ValueError for
    an arena of any other dtype."""
    net = trained.weights
    if net.arena.dtype != np.float32:
        raise ValueError(f"model files hold float32 weights, not {net.arena.dtype}")
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "hp": net.hp.to_dict(),
        "embedding_dim": net.embedding_dim,
        "init_seed": net.init_seed,
        "dtype": "float32",
        "tensors": [[name, list(shape)] for name, shape in net.shapes],
        "train_meta": {
            "best_dev_score": trained.best_dev_score,
            "epochs_run": trained.epochs_run,
            "restart_count": trained.restart_count,
            "history": [list(row) for row in trained.history],
        },
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_FORMAT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(memoryview(np.ascontiguousarray(net.arena, dtype=_TENSOR_DTYPE)).cast("B"))


def _check_header(path, header) -> tuple:
    """(hp, param_shapes) of a model header; DataError naming the file (and
    the tensor) unless every field load_model reads is present and valid and
    the tensor table matches the hyperparameters exactly."""
    check_fields(f"{path}: model header", header, _HEADER_TYPES)
    check_fields(f"{path}: train_meta", header.get("train_meta"), _META_TYPES)
    try:
        hp = HyperParams.from_dict(header["hp"])
    except DataError as exc:
        raise DataError(f"{path}: bad hyperparameters: {exc}") from None
    want = param_shapes(hp, header["embedding_dim"])
    got = header["tensors"]
    for i, (name, shape) in enumerate(want):
        entry = got[i] if i < len(got) else None
        if entry != [name, list(shape)]:
            raise DataError(f"{path}: tensor table entry {i} is {entry!r}, "
                            f"the hyperparameters need {name} {list(shape)}")
    if len(got) != len(want):
        raise DataError(f"{path}: tensor table has {len(got) - len(want)} extra entries")
    return hp, want


def _read_header(fh, path, size: int, digest) -> tuple:
    """(header, hp, param_shapes) of the open model file ``fh``, which holds
    ``size`` bytes; the bytes read go into ``digest`` when it is given."""
    def read(n: int) -> bytes:
        raw = fh.read(n)
        if digest is not None:
            digest.update(raw)
        return raw

    if read(4) != MODEL_MAGIC:
        raise DataError(f"{path}: not a model file")
    head = read(8)
    if len(head) < 8:
        raise DataError(f"{path}: truncated model file")
    version, header_len = struct.unpack("<II", head)
    if version > MODEL_FORMAT_VERSION:
        raise DataError(
            f"{path}: model format version {version} is newer than "
            f"supported version {MODEL_FORMAT_VERSION}"
        )
    if 12 + header_len > size:  # before read() allocates header_len bytes
        raise DataError(f"{path}: truncated model file")
    try:
        header = json.loads(read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt model header: {exc}") from exc
    hp, shapes = _check_header(path, header)
    return header, hp, shapes


def _open_model(path):
    """(binary handle, size in bytes) of a model file; DataError if unreadable."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    return fh, os.fstat(fh.fileno()).st_size


def load_model_hp(path) -> HyperParams:
    """The hyperparameters of a model file, from its checked header alone."""
    fh, size = _open_model(path)
    with fh:
        return _read_header(fh, path, size, None)[1]


def _loaded(net: ShallowCNN) -> ShallowCNN:
    return net


def load_model(path, sha256: Optional[str] = None, then: Callable = _loaded):
    """``then(model)`` of the model a save_model file holds, bit for bit;
    by default the model itself.

    The file is read once, its tensors with one read into the model's arena.
    The header must say dtype float32, carry a train_meta object whose
    fields are checked (and not returned), and declare exactly the tensors
    ``param_shapes`` gives for its hyperparameters, names, order and shapes.
    With ``sha256`` given, the bytes read must have that hex digest. The
    arena's bytes are hashed on a second thread while ``then`` runs, and
    nothing of ``then`` counts before the digest matches: on a mismatch its
    result, its warnings and any exception it raised give way to the hash
    mismatch; on a match its warnings are shown and its exception raised.
    Anything else is a DataError naming the file."""
    digest = hashlib.sha256() if sha256 is not None else None
    fh, size = _open_model(path)
    with fh:
        header, hp, shapes = _read_header(fh, path, size, digest)
        n = arena_size(shapes)
        # the size check comes first so a bad header allocates nothing;
        # the read check catches a file that shrinks while it is read
        present = (size - fh.tell()) // _TENSOR_DTYPE.itemsize
        if present < n:
            raise DataError(f"{path}: truncated model file "
                            f"(tensor {nn_core.tensor_at(shapes, present)})")
        arena = np.empty(n, dtype=_TENSOR_DTYPE)
        raw = memoryview(arena).cast("B")
        if fh.readinto(raw) < len(raw):
            raise DataError(f"{path}: truncated model file")
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after declared tensors")
    net = ShallowCNN(hp=hp, embedding_dim=header["embedding_dim"], arena=arena,
                     init_seed=header["init_seed"])
    if digest is None:
        return then(net)
    # hashlib releases the GIL on large buffers, so the two overlap
    hashed = threading.Event()

    def hash_arena():
        try:
            digest.update(raw)
        finally:
            hashed.set()

    hasher = threading.Thread(target=hash_arena, name="scnn-sha256")
    hasher.start()
    failure = None
    try:
        try:
            with warnings.catch_warnings(record=True) as caught:
                result = then(net)
        except Exception as exc:
            failure = exc
        # not join(): in Python 3.11 a join that Ctrl-C cuts short marks the
        # still running thread as stopped, and no later join waits for it
        hashed.wait()
    finally:
        hasher.join()  # when interrupted too, so no thread outlives the call
    if digest.hexdigest() != sha256:
        raise DataError(f"hash mismatch for member {path}")
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    if failure is not None:
        raise failure
    return result
