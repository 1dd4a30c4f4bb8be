"""Tweet dataset parsing, tokenization, and stratified CV folds.

Dataset files are UTF-8 TSV, one tweet per line; only LF ends a line and
blank lines are skipped (fileio.read_tsv):

    labeled    id<TAB>label<TAB>text      label in {1, 2, 3}
    unlabeled  id<TAB>text

The first line's field count makes the file labeled or unlabeled, and every
line must have that count. Text may contain any character except TAB and
LF. Class meanings: 1 = personal intake, 2 = possible intake, 3 = no intake.

A tweet's document is its token list, as ``tokenize`` returns it; there is
no pad token. embeddings.lookup_docs keeps the first DOC_LEN tokens and
turns them into token ids over the rows of the words they use; a batch's
float rows are gathered from those just before its forward.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DataError
from .fileio import atomic_write, read_tsv
from .rng import Rng

CLASSES = (1, 2, 3)
DOC_LEN = 47

_PUNCT = frozenset(string.punctuation)
_KEEP_WHOLE_PREFIXES = ("@", "#", "http://", "https://", "www.")


@dataclass(frozen=True)
class Example:
    """One tweet: stable id, raw text, and a gold label when annotated."""

    id: str
    text: str
    label: Optional[int] = None


@dataclass(frozen=True)
class FoldAssignment:
    """fold_of[i] is the fold (0..k-1) holding example i out."""

    fold_of: tuple
    k: int
    seed: int


def tokenize(text: str) -> list:
    """Deterministic rule-based tokenizer.

    Lowercase, split on whitespace, then detach leading/trailing ASCII
    punctuation into single-character tokens. Tokens starting with ``@``,
    ``#``, ``http://``, ``https://`` or ``www.`` are kept whole. Stopwords
    are retained.
    """
    tokens = []
    for raw in text.lower().split():
        if raw.startswith(_KEEP_WHOLE_PREFIXES):
            tokens.append(raw)
            continue
        i, j = 0, len(raw)
        while i < j and raw[i] in _PUNCT:
            i += 1
        while j > i and raw[j - 1] in _PUNCT:
            j -= 1
        tokens.extend(raw[:i])
        if j > i:
            tokens.append(raw[i:j])
        tokens.extend(raw[j:])
    return tokens


def to_token_seqs(examples: Sequence[Example]) -> list:
    """Each example's document: the token list of its text."""
    return [tokenize(ex.text) for ex in examples]


def parse_dataset(path) -> list:
    """Read a dataset TSV; returns Examples in file order. The first line's
    field count says whether the file is labeled (3) or unlabeled (2).

    Raises DataError (with the 1-based line number) for a wrong field count,
    a label outside {1,2,3}, or a duplicate id.
    """
    examples = []
    seen_ids = set()
    for lineno, fields in read_tsv(path, "dataset", (2, 3)):
        ex_id = fields[0]
        if not ex_id:
            raise DataError(f"{path}: empty id at line {lineno}")
        if ex_id in seen_ids:
            raise DataError(f"{path}: duplicate id {ex_id!r} at line {lineno}")
        seen_ids.add(ex_id)
        label = None
        if len(fields) == 3:
            try:
                label = int(fields[1])
            except ValueError:
                raise DataError(f"{path}: invalid label {fields[1]!r} at line {lineno}") from None
            if label not in CLASSES:
                raise DataError(f"{path}: label out of range at line {lineno}")
        examples.append(Example(ex_id, fields[-1], label))
    return examples


def write_dataset(examples: Sequence[Example], path) -> None:
    """Inverse of parse_dataset. All examples must be uniformly labeled or
    uniformly unlabeled; ids and text must not contain TAB or LF."""
    labeled_flags = {ex.label is not None for ex in examples}
    if len(labeled_flags) > 1:
        raise DataError("cannot mix labeled and unlabeled examples in one file")
    for ex in examples:
        for field_name, value in (("id", ex.id), ("text", ex.text)):
            if "\t" in value or "\n" in value:
                raise DataError(
                    f"example {ex.id!r}: {field_name} contains TAB or newline"
                )
    lines = []
    for ex in examples:
        if ex.label is None:
            lines.append(f"{ex.id}\t{ex.text}\n")
        else:
            lines.append(f"{ex.id}\t{ex.label}\t{ex.text}\n")
    with atomic_write(path) as fh:
        fh.writelines(lines)


def stratified_kfold(labels: Sequence[int], k: int = 5, seed: int = 0) -> FoldAssignment:
    """Deterministic stratified k-fold assignment of the examples with gold
    ``labels``.

    Within each class, indices are shuffled by a seed-derived substream and
    dealt round-robin to folds, so per-class per-fold counts differ by at
    most one.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    by_class: dict = {}
    for idx, label in enumerate(labels):
        by_class.setdefault(label, []).append(idx)

    fold_of = [0] * len(labels)
    for label in sorted(by_class):
        indices = by_class[label]
        if len(indices) < k:
            raise DataError(
                f"class {label} has {len(indices)} examples, fewer than k={k}"
            )
        perm = Rng(seed).substream("fold", label).permutation(len(indices))
        for pos, which in enumerate(perm):
            fold_of[indices[which]] = pos % k
    return FoldAssignment(tuple(fold_of), k, seed)
