"""Per-layer tracing of scnn CLI steps, from outside the package.

Run one CLI step traced::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- search --train ...

The step runs in-process through ``scnn.cli.main(argv)``. Before it starts,
the public functions of each ``scnn`` module are wrapped where their caller
looks them up (``scnn.kernels.conv_pool_forward``, ``scnn.ensemble.train``,
``scnn.search.save_model``, ...). Each wrapper records a span (name, start,
end, parent, thread) and the work counts it can compute from its arguments.
Spans stay in memory and are written to SPANS.json when the step ends.

``layer_metrics`` turns the span files of one traced pass into the
``<module>.<what>`` metrics listed in perfbench/README.md.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

def _fwd_name(docs, W, b):
    return f"kernels.fwd.h{W.shape[0]}"


def _bwd_name(docs, argmax, pooled, d_pooled, h):
    return f"kernels.bwd.h{h}"


def _count_fwd(tracer, result, docs, W, b):
    B, L, dim = docs.shape
    h, _, f = W.shape
    P = L - h + 1
    # window p covers rows p..p+h-1; it is useful when one of them is nonzero
    rows = np.zeros((B, L + 1), dtype=np.int32)
    np.cumsum(tracer.nonzero_rows(docs), axis=1, out=rows[:, 1:])
    useful = int(np.count_nonzero(rows[:, h:] - rows[:, :P]))
    tracer.add({"kernels.fwd_calls": 1, "kernels.fwd_flop": 2 * B * P * h * dim * f,
                "kernels.windows": B * P, "kernels.useful_windows": useful})


def _count_bwd(tracer, result, docs, argmax, pooled, d_pooled, h):
    gated = int(np.count_nonzero(pooled > 0))
    tracer.add({"kernels.bwd_calls": 1, "kernels.bwd_flop": 2 * h * docs.shape[2] * gated})


def _count_trials(tracer, records, *args, **kwargs):
    tracer.add({"search.trials": len(records),
                "search.trials_failed": sum(not r.ok for r in records)})


def _count_sha256(tracer, result, path):
    tracer.add({"ensemble.sha256_bytes": os.path.getsize(path)})


def _count_one(key):
    return lambda tracer, result, *args, **kwargs: tracer.add({key: 1})


# (module, attribute, span name, work counter or None). Each attribute is
# patched on the module its caller reads it from, so a span sees every call
# the CLI makes.
TARGETS = [
    ("scnn.kernels", "conv_pool_forward", _fwd_name, _count_fwd),
    ("scnn.kernels", "conv_pool_backward", _bwd_name, _count_bwd),
    ("scnn.nn_core", "dense_forward", "nn_core.dense_fwd", None),
    ("scnn.nn_core", "dense_backward", "nn_core.dense_bwd", None),
    ("scnn.nn_core", "dropout", "nn_core.dropout", None),
    ("scnn.nn_core", "softmax", "nn_core.softmax_ce", None),
    ("scnn.nn_core", "cross_entropy", "nn_core.softmax_ce", None),
    ("scnn.nn_core", "softmax_cross_entropy_backward", "nn_core.softmax_ce", None),
    ("scnn.nn_core", "adam_step", "nn_core.adam", _count_one("nn_core.adam_steps")),
    ("scnn.model", "forward_batch", "model.forward_batch", None),
    ("scnn.model", "backward_batch", "model.backward_batch", _count_one("model.batches")),
    ("scnn.model", "predict_proba", "model.predict_proba", None),
    ("scnn.ensemble", "train", "model.train",
     lambda tracer, result, *a, **k: tracer.add({"model.epochs": result.epochs_run})),
    ("scnn.search", "save_model", "model.save", None),
    ("scnn.search", "load_model", "model.load", None),
    ("scnn.ensemble", "load_model", "model.load", None),
    ("scnn.cli", "load_ensemble", "ensemble.load", None),
    ("scnn.ensemble", "file_sha256", "ensemble.sha256", _count_sha256),
    ("scnn.ensemble", "ensemble_predict", "ensemble.predict", None),
    ("scnn.search", "ensemble_predict", "ensemble.predict", None),
    ("scnn.search", "run_search", "search.run_search", _count_trials),
    ("scnn.search", "train_fold_ensemble", "search.trial", None),
    ("scnn.search", "load_trial_ensemble", "search.load_trial_ensemble", None),
    ("scnn.embeddings", "load_embeddings", "embeddings.load", None),
    ("scnn.embeddings", "lookup_docs", "embeddings.lookup_docs",
     lambda tracer, result, *a, **k: tracer.add({"embeddings.doc_bytes": result.nbytes})),
    ("scnn.corpus", "parse_dataset", "corpus.parse_dataset", None),
    ("scnn.corpus", "to_token_seqs", "corpus.to_token_seqs", None),
]

TARGET_NAMES = [f"{module}.{attr}" for module, attr, _, _ in TARGETS]


class Tracer:
    """Spans and counters of one process. Spans opened on a worker thread
    with nothing open on it take the main thread's innermost span as parent,
    which links search trials to the ``run_search`` that queued them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, thread id]
        self.counts = Counter()
        self.entered = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._rows_cache = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, amounts: dict) -> None:
        with self._lock:
            self.counts.update(amounts)

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        record = [name, 0.0, 0.0, parent, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def nonzero_rows(self, docs):
        """(B, L) bool of rows with a nonzero entry. The five conv groups of
        a batch share one docs array, so the last result is reused."""
        cache = self._rows_cache
        if getattr(cache, "docs", None) is not docs:
            cache.docs, cache.rows = docs, docs.any(axis=2)
        return cache.rows

    # ---- patching ----

    def install(self) -> None:
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, f"{module_name}.{attr}", name, count))

    def _wrap(self, original, target, name, count):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.entered.add(target)
            span_name = name(*args, **kwargs) if callable(name) else name
            result = self.call(span_name, original, args, kwargs)
            if count is not None:  # its own span, so no layer is charged for it
                self.call("tracer.count", count, (self, result, *args), kwargs)
            return result
        return wrapper


# --------------------------------------------------------------------------
# span files -> layer metrics
# --------------------------------------------------------------------------

def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _self_times(spans) -> list:
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def _under(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _tail(durations):
    """(label, value) of the highest of p99.9/p99/p90 with at least ten
    samples beyond it; the largest sample when there are too few."""
    ordered = sorted(durations)
    n = len(ordered)
    for q in (99.9, 99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return f"p{q:g}", ordered[min(n - 1, int(n * q / 100.0))]
    return "max", ordered[-1]


def layer_metrics(steps, parallelism: int):
    """Metrics of one traced pass. ``steps`` holds each CLI step's loaded
    span file plus its ``startup_s``. Returns (metrics, counts, notes)."""
    self_s = Counter()
    counts = Counter()
    calls = Counter()
    kernel_us = defaultdict(list)
    dev_score_s = trial_s = trial_wait_s = run_search_s = startup_s = 0.0
    for step in steps:
        spans = step["spans"]
        startup_s += step["startup_s"]
        counts.update(step["counts"])
        own = _self_times(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += own[i]
            calls[name] += 1
            if name.startswith("kernels."):
                kernel_us[name.split(".")[1]].append((end - start) * 1e6)
            elif name == "model.predict_proba" and _under(spans, i, "model.train"):
                dev_score_s += end - start
            elif name == "search.trial":
                trial_s += end - start
                trial_wait_s += start - spans[parent][1]
            elif name == "search.run_search":
                run_search_s += end - start

    def total(prefix):
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

    m = {}
    notes = {}
    for kind in ("fwd", "bwd"):
        m[f"kernels.{kind}_s"] = total(f"kernels.{kind}")
        for name in sorted(self_s):
            if name.startswith(f"kernels.{kind}.h"):
                m[f"kernels.{kind}_s.{name.rsplit('.', 1)[1]}"] = self_s[name]
        m[f"kernels.{kind}_calls"] = counts[f"kernels.{kind}_calls"]
        m[f"kernels.{kind}_gflop"] = counts[f"kernels.{kind}_flop"] / 1e9
        if kernel_us[kind]:
            m[f"kernels.{kind}_call_us.p50"] = statistics.median(kernel_us[kind])
            tail = f"kernels.{kind}_call_us.tail"
            notes[tail], m[tail] = _tail(kernel_us[kind])
    if m["kernels.fwd_s"] > 0:
        m["kernels.fwd_gflop_per_s"] = m["kernels.fwd_gflop"] / m["kernels.fwd_s"]
    if counts["kernels.windows"]:
        m["kernels.useful_window_ratio"] = (counts["kernels.useful_windows"]
                                            / counts["kernels.windows"])
    for name in ("embeddings.load", "embeddings.lookup_docs", "corpus.parse_dataset",
                 "corpus.to_token_seqs", "nn_core.adam", "nn_core.dense_fwd",
                 "nn_core.dense_bwd", "nn_core.dropout", "nn_core.softmax_ce",
                 "model.forward_batch", "model.backward_batch", "model.train",
                 "model.save", "model.load", "ensemble.load", "ensemble.sha256",
                 "ensemble.predict", "search.load_trial_ensemble", "cli.main"):
        m[f"{name}_s"] = self_s[name]
    m["cli.self_s"] = m.pop("cli.main_s")
    m["cli.startup_s"] = startup_s
    m["embeddings.doc_mb"] = counts["embeddings.doc_bytes"] / 1e6
    m["ensemble.sha256_mb"] = counts["ensemble.sha256_bytes"] / 1e6
    m["model.dev_score_s"] = dev_score_s
    m["model.epochs"] = counts["model.epochs"]
    m["model.batches"] = counts["model.batches"]
    m["nn_core.adam_steps"] = counts["nn_core.adam_steps"]
    m["search.trial_s"] = trial_s
    m["search.trial_wait_s"] = trial_wait_s
    m["search.trials_failed"] = counts["search.trials_failed"]
    if run_search_s > 0:
        m["search.worker_busy_ratio"] = trial_s / (run_search_s * parallelism)
    for name in ("kernels.fwd_gflop", "kernels.bwd_gflop", "kernels.fwd_gflop_per_s",
                 "kernels.useful_window_ratio", "embeddings.doc_mb"):
        notes[name] = "computed"
    groups = Counter()
    for name, seconds in self_s.items():
        groups[name.rsplit(".", 1)[0] if name.startswith("kernels.") else name] += seconds
    spent = sum(groups.values())
    notes["self-time shares"] = ", ".join(
        f"{name} {seconds / spent:.0%}" for name, seconds in groups.most_common(6))
    counts.update({f"calls.{k}": v for k, v in calls.items()})
    return m, dict(counts), notes


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <scnn arguments>", file=sys.stderr)
        return 1
    out, cli_args = argv[0], argv[2:]
    import scnn.cli

    tracer = Tracer()
    tracer.install()
    ready = time.perf_counter()
    code = tracer.call("cli.main", scnn.cli.main, (cli_args,), {})
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "spans": tracer.spans,
                   "counts": tracer.counts, "entered": sorted(tracer.entered)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
