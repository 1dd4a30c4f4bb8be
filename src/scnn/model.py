"""The shallow text CNN: build, forward/backward, train, predict, save/load.

Architecture: five convolution groups (one per entry of ``filter_sizes``,
each with ``n_filters`` filters) over the document's embedding rows,
max-over-time pooling, dropout, a ReLU dense layer of ``n_dense_output``
units, dropout again, and a 3-way softmax output. Embeddings are frozen
inputs; only the tensors created here are trained.

A model's trained tensors lie back to back in one flat buffer, its arena,
in ``param_shapes`` order (the model file's order). Adam's moments and the
best-weights snapshot are arenas of the same layout. Training holds no
gradient arena and no gradient buffer: Adam takes a batch's gradients span
by span (``grad_spans``) as the arrays their layers return, each span
before the next layer's are computed. The snapshot is made, and written,
only when an epoch follows a best one, so a training whose last epoch is
its best holds three arenas, not four.

Everything here runs on the calling thread: predict_proba runs its
chunks in turn, and load_model checks a file's sha256 before it returns
the model. scnn runs work in parallel only on workers' forked processes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels, metrics, nn_core
from .corpus import DOC_LEN
from .embeddings import Documents
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
                     and all(_positive_int(w) and w <= DOC_LEN for w in v),
                     f"exactly {N_GROUPS} positive integers of at most {DOC_LEN}, "
                     f"the document length"),
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


# float64 draws per block of a weight's rows in build_model (1 MB)
_INIT_BLOCK = 1 << 17


def build_model(hp: HyperParams, embedding_dim: int, seed: int,
                dtype=np.float32) -> ShallowCNN:
    """Xavier-initialized weights, zero biases, deterministic in ``seed``.

    Groups sharing a width still get independent weights: all draws come
    sequentially from one seed-derived stream in declared tensor order. A
    weight's fan-in is the product of all but its last dimension. A weight
    is drawn in blocks of rows along its first axis, up to _INIT_BLOCK
    float64 draws each: the same doubles in the same order as one draw of
    the whole tensor, without a float64 copy of the widest conv bank.
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
            fan_in, weight = math.prod(shape[:-1]), net.params[name]
            rows = max(1, _INIT_BLOCK // math.prod(shape[1:]))
            for lo in range(0, shape[0], rows):
                block = weight[lo:lo + rows]
                block[...] = nn_core.xavier_init(fan_in, shape[-1], block.shape, rng)
    return net


# --------------------------------------------------------------------------
# forward / backward
# --------------------------------------------------------------------------

def forward_batch(model: ShallowCNN, docs: np.ndarray, training: bool = False,
                  rng: Rng = None):
    """Full pipeline on a (B, L, dim) batch; returns (probs (B, 3), caches).

    Training mode draws its dropout masks from ``rng``, first the features'
    and then the dense layer's; inference mode applies no dropout. The convs
    and their caches, one (docs, argmax, pooled, h) per group, see the batch
    as given: ``Documents.gather`` has already cut its trailing pad rows.
    """
    if docs.ndim != 3 or docs.shape[2] != model.embedding_dim:
        raise ValueError(
            f"docs shape {docs.shape} does not match embedding_dim {model.embedding_dim}"
        )
    hp = model.hp
    h_max = max(hp.filter_sizes)
    if h_max > docs.shape[1]:
        raise ValueError(f"filter width {h_max} exceeds document length {docs.shape[1]}")
    docs = docs.astype(model.arena.dtype, copy=False)
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


def grad_spans(shapes) -> list:
    """The arena of the ``param_shapes`` list ``shapes``, cut into the spans
    that train() applies a batch's gradients in, one nn_core.adam_step
    each: (first element, the span's (name, shape) entries) per span, in
    arena order.

    A tensor of at least ADAM_CHUNK elements is a span of its own, and each
    run of smaller tensors between two such is one span. So an arena with
    no such tensor, as at desk shapes, is one span: one Adam call per batch.
    A paper-shape arena (widths 3-7, 400 filters, 400 dims) is twelve: each
    conv weight, each conv bias, dense_w, and dense_b with the output layer.
    """
    spans, lo, alone = [], 0, True  # alone: the last tensor is a span of its own
    for name, shape in shapes:
        size = math.prod(shape)
        if alone or size >= nn_core.ADAM_CHUNK:
            spans.append((lo, []))
        spans[-1][1].append((name, shape))
        alone = size >= nn_core.ADAM_CHUNK
        lo += size
    return spans


def _gradients(model: ShallowCNN, caches: dict, gold):
    """Each trained tensor's gradient, the array its layer returns, from the
    arena's end, as the backward reaches the dense layers first. A layer's
    arrays are let go before the next layer's call makes its own."""
    mask1, mask2 = caches["masks"]
    dy = nn_core.softmax_cross_entropy_backward(caches["probs"], gold)
    for layer, mask in (("out", mask2), ("dense", mask1)):
        dx, dW, db = nn_core.dense_backward(caches[layer], dy)
        yield from (db, dW)
        del dW, db
        dy = dx * mask if mask is not None else dx
    f = model.hp.n_filters
    for g in reversed(range(N_GROUPS)):
        docs, argmax, pooled, h = caches["conv"][g]
        dW, db = kernels.conv_pool_backward(
            docs, argmax, pooled, dy[:, g * f:(g + 1) * f].astype(docs.dtype, copy=False), h
        )
        yield from (db, dW)
        del dW, db  # before the next kernel call makes its own


def backward_batch(model: ShallowCNN, caches: dict, gold,
                   update: Optional[tuple] = None) -> Optional[dict]:
    """Exact gradients of the mean batch cross-entropy for every parameter.

    Without ``update`` they are returned in a fresh arena, as name -> view.
    With ``update`` = (TrainBuffers, lr) they are applied and not returned:
    the buffers' spans are visited from the arena's end, and each goes to
    nn_core.adam_step at its offset before the next layer's gradients are
    computed, as the array its layer returned or, for a span of several
    tensors, their arrays packed into one; the step count advances once per
    batch. A non-finite gradient raises NumericError naming the first such
    tensor in arena order: once one is found, the remaining spans are
    computed and checked but not applied, and the spans already applied
    stay updated.
    """
    if not caches or "probs" not in caches:
        raise ValueError("backward requires the caches of a forward pass")
    grads = _gradients(model, caches, gold)
    if update is None:
        arena = np.concatenate([g.ravel() for g in reversed(list(grads))])
        return arena_views(arena, model.shapes)
    buffers, lr = update
    failure = None
    for k, (lo, entries) in enumerate(reversed(buffers.spans)):
        flat = (next(grads).ravel() if len(entries) == 1
                else np.concatenate([next(grads).ravel() for _ in entries][::-1]))
        try:
            if failure is None:
                nn_core.adam_step(model.arena, flat, buffers.opt, lr, lo, advance=k == 0)
            else:
                nn_core.check_finite(flat, buffers.opt.layout, lo)
        except NumericError as exc:
            failure = exc  # a tensor earlier in the arena may be non-finite too
        del flat  # before the next kernel call makes its own
    if failure is not None:
        raise failure


_PREDICT_CHUNK = 512


def predict_proba(model: ShallowCNN, docs: Documents) -> np.ndarray:
    """Inference-mode probabilities, one row per document; rows sum to 1.

    The documents go through forward_batch in chunks of _PREDICT_CHUNK, in
    turn. A chunk's float rows are gathered just before its forward, so
    only one chunk's rows are held at a time.
    """
    out = np.zeros((len(docs), N_CLASSES), dtype=model.arena.dtype)
    h_max = max(model.hp.filter_sizes)
    for start in range(0, len(docs), _PREDICT_CHUNK):
        rows = slice(start, start + _PREDICT_CHUNK)
        out[rows] = forward_batch(model, docs.gather(rows, h_max), training=False)[0]
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


@dataclass
class TrainBuffers:
    """What train() updates a model's arena with: its ``grad_spans``, one
    Adam call each per batch; the Adam state; and the best-weights
    snapshot, None until the first epoch that follows a best one, which
    allocates it."""

    spans: list = field(repr=False)
    opt: nn_core.AdamState
    best: Optional[np.ndarray] = field(default=None, repr=False)


def train_buffers(model: ShallowCNN) -> TrainBuffers:
    """The TrainBuffers of train() for ``model``'s layout and dtype."""
    return TrainBuffers(grad_spans(model.shapes), nn_core.AdamState.for_arena(
        model.arena, model.shapes, beta2=model.hp.adam_b2))


class SharedBuffers:
    """One TrainBuffers (spans, Adam moments, snapshot once one is made)
    for consecutive train() calls, made anew only when a model's tensor
    layout or dtype differs from the last one's, so its pages are faulted
    in once per run of same-shaped models; its spans are cut once per
    layout."""

    def __init__(self):
        self._key = self._set = None

    def for_model(self, model: ShallowCNN) -> TrainBuffers:
        key = (model.shapes, model.arena.dtype)
        if key != self._key:
            self._set = None  # the old set is freed before the new one is made
            self._key, self._set = key, train_buffers(model)
        self._set.opt.beta2 = model.hp.adam_b2
        return self._set


def train(model: ShallowCNN, train_docs: Documents, train_labels: np.ndarray,
          dev_docs: Documents, dev_labels: np.ndarray, sched: TrainSchedule,
          rng: Rng, dev_scorer: Optional[Callable] = None, callback: Optional[Callable] = None,
          buffers: Optional[TrainBuffers] = None) -> TrainedModel:
    """Mini-batch Adam with per-epoch dev scoring and annealing restarts.

    Each batch's float rows are gathered from ``train_docs`` just before
    its forward, and the dev set is scored by predict_proba. ``buffers``
    come from ``train_buffers`` or ``SharedBuffers.for_model`` for a model
    of the same hyperparameters, or are made for this call.
    Epoch shuffles come from ``rng.substream("shuffle", epoch)`` and dropout
    from ``rng.substream("dropout")``, so identical inputs and seeds replay
    bit-identically. The result keeps the best epoch's dev probabilities.
    ``dev_scorer(model)`` overrides the dev metric (test hook);
    ``callback(epoch, model, record)`` fires after each epoch, after any
    restart processing. A batch's gradients are applied span by span
    (backward_batch), so when a non-finite gradient raises NumericError the
    spans visited before it are already updated: a caller discards the
    model. A dev score that does not beat -inf (NaN, from a dev_scorer)
    raises NumericError naming its epoch.

    The best weights are copied into the snapshot at the start of the epoch
    after a best one, the first moment the arena could lose them, so the
    last epoch's best weights are never copied. A restart or the final
    restore reads the snapshot only after an epoch without improvement,
    which always comes after that copy.
    """
    n = len(train_docs)
    if n == 0:
        raise ValueError("empty training set")
    if dev_scorer is None and len(dev_docs) == 0:
        raise ValueError("empty dev set")
    train_labels = np.asarray(train_labels, dtype=np.int64)
    h_max = max(model.hp.filter_sizes)

    lr = model.hp.learning_rate
    buffers = buffers if buffers is not None else train_buffers(model)
    opt = buffers.opt
    opt.reset()
    drop_rng = rng.substream("dropout")
    best_score = -np.inf
    best_probs = None
    unsaved = False  # the arena holds best weights that the snapshot lacks
    stagnation = 0
    restart_count = 0
    history = []

    epoch = 0
    while epoch < sched.max_epochs:
        epoch += 1
        if unsaved:
            if buffers.best is None:
                buffers.best = np.empty_like(model.arena)
            np.copyto(buffers.best, model.arena)
            unsaved = False
        order = rng.substream("shuffle", epoch).permutation(n)
        loss_total = 0.0
        for start in range(0, n, model.hp.batch_size):
            batch = order[start:start + model.hp.batch_size]
            probs, caches = forward_batch(
                model, train_docs.gather(batch, h_max), training=True, rng=drop_rng
            )
            loss = nn_core.cross_entropy(probs, train_labels[batch])
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss {loss} at epoch {epoch}, "
                    f"batch starting {start}, lr {lr}"
                )
            backward_batch(model, caches, train_labels[batch], (buffers, lr))
            loss_total += loss * len(batch)
        train_loss = loss_total / n

        dev_probs = None
        if dev_scorer is not None:
            dev_score = float(dev_scorer(model))
        else:
            dev_probs = predict_proba(model, dev_docs)
            dev_score = metrics.micro_f1_12(dev_labels, dev_probs)
        if not dev_score > -np.inf:
            raise NumericError(f"dev score {dev_score} at epoch {epoch} does not beat -inf")
        history.append((train_loss, dev_score, lr))

        if dev_score > best_score:
            best_score = dev_score
            best_probs = dev_probs
            unsaved = True
            stagnation = 0
        else:
            stagnation += 1

        restarted = False
        stop = False
        if stagnation >= sched.patience:
            if restart_count < RESTARTS_ALLOWED:
                np.copyto(model.arena, buffers.best)
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
        np.copyto(model.arena, buffers.best)
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


def load_model(path, sha256: Optional[str] = None) -> ShallowCNN:
    """The model a save_model file holds, bit for bit.

    The file is read once, its tensors with one read into the model's arena.
    The header must say dtype float32, carry a train_meta object whose
    fields are checked (and not returned), and declare exactly the tensors
    ``param_shapes`` gives for its hyperparameters, names, order and shapes.
    With ``sha256`` given, the bytes read must have that hex digest; the
    arena is hashed after the read, so no model is returned before its
    digest matches. Anything else is a DataError naming the file."""
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
    if digest is not None:
        digest.update(raw)
        if digest.hexdigest() != sha256:
            raise DataError(f"hash mismatch for member {path}")
    return ShallowCNN(hp=hp, embedding_dim=header["embedding_dim"], arena=arena,
                      init_seed=header["init_seed"])
