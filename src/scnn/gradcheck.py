"""Finite-difference verification of the analytic gradients.

The oracle only ever calls the forward pass: central differences
(f(p+h) - f(p-h)) / 2h of the mean cross-entropy, computed in float64. Every
pass draws its dropout masks from a fresh copy of one stream, so each probe
sees the same masks and the loss is a deterministic function of the
parameters. Error is measured as |a - b| / max(|a|, |b|, 1e-3), which reads
as relative error for ordinary gradient magnitudes and as absolute error
near zero (where finite-difference noise would otherwise dominate the
ratio).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import model as model_mod
from . import nn_core
from .model import HyperParams, ShallowCNN, build_model
from .rng import Rng

TINY_ARCH = dict(
    n_dense_output=6,
    batch_size=3,
    learning_rate=0.001,
    word_embedding="godin",
    n_filters=4,
    filter_sizes=(1, 2, 2, 2, 3),
)
TINY_DIM = 8
TINY_LEN = 12
TOLERANCE = 1e-4


def replay_forward(model: ShallowCNN, docs, dropout: Optional[Rng]):
    """forward_batch with the masks of a fresh copy of the stream ``dropout``
    (``substream()`` with no parts restarts it), or inference if None."""
    return model_mod.forward_batch(model, docs, training=dropout is not None,
                                   rng=None if dropout is None else dropout.substream())


def finite_difference_gradients(model: ShallowCNN, docs, labels, dropout: Optional[Rng],
                                step: float = 1e-5) -> dict:
    """Central-difference gradient of every parameter entry, by name."""
    p, g = model.arena, np.zeros_like(model.arena)
    for i in range(p.size):
        saved = p[i]
        p[i] = saved + step
        hi = nn_core.cross_entropy(replay_forward(model, docs, dropout)[0], labels)
        p[i] = saved - step
        lo = nn_core.cross_entropy(replay_forward(model, docs, dropout)[0], labels)
        p[i] = saved
        g[i] = (hi - lo) / (2.0 * step)
    return model_mod.arena_views(g, model.shapes)


def relative_errors(analytic: dict, numeric: dict) -> dict:
    out = {}
    for name in analytic:
        a, b = analytic[name], numeric[name]
        out[name] = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
    return out


def check_model(model: ShallowCNN, docs, labels, dropout: Optional[Rng],
                step: float = 1e-5) -> float:
    """Max error between analytic and finite-difference gradients."""
    _, caches = replay_forward(model, docs, dropout)
    analytic = model_mod.backward_batch(model, caches, labels)
    numeric = finite_difference_gradients(model, docs, labels, dropout, step)
    errs = relative_errors(analytic, numeric)
    return max(float(e.max()) for e in errs.values())


def _tiny_case(case_rng: Rng):
    """One random (hyperparams, inputs) pair on the tiny float64 model, and
    the unused stream its dropout masks are drawn from."""
    keep_prob = float(case_rng.gen.choice([0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
    hp = HyperParams(adam_b2=0.999, keep_prob=keep_prob, **TINY_ARCH)
    net = build_model(hp, TINY_DIM, seed=case_rng.derive_seed("init"), dtype=np.float64)
    # Zero biases put ReLU kinks exactly on the all-zero pad windows, where
    # one-sided finite differences are meaningless; probe at a generic point
    # with every bias bounded away from 0 by far more than the FD step.
    bias_rng = case_rng.substream("bias")
    for name, p in net.params.items():
        if name.endswith("_b"):
            sign = np.where(bias_rng.random(p.shape) < 0.5, -1.0, 1.0)
            p[:] = sign * bias_rng.uniform(0.05, 0.3, p.shape)
    batch = 3
    docs = case_rng.uniform(-1.0, 1.0, (batch, TINY_LEN, TINY_DIM))
    docs[:, TINY_LEN - 2:, :] = 0.0  # trailing pad rows
    labels = np.asarray(case_rng.integers(1, 4, batch), dtype=np.int64)
    return net, docs, labels, case_rng.substream("dropout")


def run_gradcheck(seed: int, cases: int = 25, step: float = 1e-5) -> float:
    """Max gradient error over ``cases`` random tiny models; < 1e-4 passes."""
    worst = 0.0
    root = Rng(seed)
    for i in range(cases):
        net, docs, labels, dropout = _tiny_case(root.substream("case", i))
        worst = max(worst, check_model(net, docs, labels, dropout, step))
    return worst
