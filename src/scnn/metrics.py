"""Confusion matrices and precision/recall/F1 reports.

The task's headline metric is micro-averaged P/R/F1 pooled over classes 1
and 2 only: correct class-3 predictions are invisible to it, while class-3
examples predicted as 1 or 2 count as false positives. Degenerate 0/0
ratios are reported as 0.
"""

from __future__ import annotations

import numpy as np

from .corpus import CLASSES
from .errors import DataError


def argmax_labels(probs: np.ndarray) -> np.ndarray:
    """Each row's class (1-based) with the highest probability, over an
    (n, 3) probability matrix; ties take the lowest."""
    if len(probs) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argmax(probs, axis=1).astype(np.int64) + 1


def confusion(gold, pred) -> np.ndarray:
    """3x3 counts; cm[g-1][p-1] = examples with gold g predicted p."""
    gold = np.asarray(gold, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if gold.shape != pred.shape:
        raise DataError(f"gold has {gold.shape} labels but pred has {pred.shape}")
    for name, labels in (("gold", gold), ("pred", pred)):
        if labels.size and (labels.min() < 1 or labels.max() > 3):
            raise DataError(f"{name} labels must be in {{1,2,3}}")
    cm = np.zeros((3, 3), dtype=np.int64)
    np.add.at(cm, (gold - 1, pred - 1), 1)
    return cm


def f1_from_pr(precision: float, recall: float) -> float:
    """Harmonic mean, 0 when both inputs are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_class_prf(cm: np.ndarray) -> dict:
    """{class: (precision, recall, f1)} for classes 1..3."""
    out = {}
    for c in CLASSES:
        i = c - 1
        precision = _ratio(cm[i, i], cm[:, i].sum())
        recall = _ratio(cm[i, i], cm[i, :].sum())
        out[c] = (precision, recall, f1_from_pr(precision, recall))
    return out


def micro_prf_12(cm: np.ndarray):
    """(precision, recall, f1) micro-averaged over classes 1 and 2."""
    tp = cm[0, 0] + cm[1, 1]
    fp = (cm[:, 0].sum() - cm[0, 0]) + (cm[:, 1].sum() - cm[1, 1])
    fn = (cm[0, :].sum() - cm[0, 0]) + (cm[1, :].sum() - cm[1, 1])
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return precision, recall, f1_from_pr(precision, recall)


def micro_f1_12(gold, probs: np.ndarray) -> float:
    """Micro-F1 over classes 1 and 2 of the argmax predictions of ``probs``:
    the dev, cv and test score of training, search and stacking."""
    return float(micro_prf_12(confusion(gold, argmax_labels(probs)))[2])


def report_json(cm: np.ndarray) -> str:
    """The evaluate report of a confusion matrix: per-class precision,
    recall and F1, then the class-1/2 micro averages, in a fixed key order
    with 6-decimal values, so equal inputs give equal bytes."""
    per = per_class_prf(cm)
    pairs = [(f"{stem}_{c}", per[c][i])
             for i, stem in enumerate(("precision", "recall", "f1")) for c in CLASSES]
    pairs += zip(("precision_m", "recall_m", "f1_m"), micro_prf_12(cm))
    body = ",\n".join(f'  "{k}": {v:.6f}' for k, v in pairs)
    return "{\n" + body + "\n}\n"
