"""Pretrained word embeddings: loading, serialization, and document lookup.

Only the word2vec *text* format is supported: a header line
``<vocab_size> <dim>`` followed by one ``word v1 ... v_dim`` line per word.
Vectors are stored as float32. Tables are immutable after load; lookups are
pure, so everything here is safe to share across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import TokenSeq
from .errors import DataError
from .fileio import atomic_write, open_text


@dataclass
class EmbeddingTable:
    name: str
    dim: int
    vocab: dict = field(repr=False)
    vectors: np.ndarray = field(repr=False)  # (len(vocab), dim) float32


def load_embeddings(path, name: str) -> EmbeddingTable:
    """Parse a word2vec text file; errors carry the offending line number."""
    with open_text(path, "embeddings") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise DataError(f"{path}: malformed header line (want '<vocab_size> <dim>')")
        try:
            vocab_size, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"{path}: non-integer header fields {header!r}") from None
        if vocab_size < 0 or dim < 1:
            raise DataError(f"{path}: invalid header values {vocab_size} {dim}")
        size = os.fstat(fh.fileno()).st_size
        if vocab_size * (2 * dim + 2) > size:  # before the table is allocated
            raise DataError(f"{path}: header promises {vocab_size} words of {dim} "
                            f"components, more than its {size} bytes can hold")

        vocab: dict = {}
        vectors = np.empty((vocab_size, dim), dtype=np.float32)
        lineno = 1
        for line in fh:
            lineno += 1
            fields = line.split()
            if not fields:
                continue
            if len(vocab) >= vocab_size:
                raise DataError(
                    f"{path}: more words than the header's {vocab_size} at line {lineno}"
                )
            word = fields[0]
            if len(fields) - 1 != dim:
                raise DataError(f"{path}: expected {dim} components at line {lineno}")
            if word in vocab:
                raise DataError(f"{path}: duplicate word {word!r} at line {lineno}")
            try:
                vectors[len(vocab)] = [float(v) for v in fields[1:]]
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric component at line {lineno}"
                ) from None
            vocab[word] = len(vocab)
        if len(vocab) != vocab_size:
            raise DataError(
                f"{path}: header promises {vocab_size} words, file has {len(vocab)}"
            )
    return EmbeddingTable(name=name, dim=dim, vocab=vocab, vectors=vectors)


def write_embeddings(table: EmbeddingTable, path) -> None:
    """Serialize in the same text format, value-exact at float32 precision."""
    words = sorted(table.vocab, key=table.vocab.get)
    with atomic_write(path) as fh:
        fh.write(f"{len(words)} {table.dim}\n")
        for word in words:
            row = table.vectors[table.vocab[word]]
            fh.write(word + " " + " ".join(str(v) for v in row) + "\n")


def lookup_docs(table: EmbeddingTable, seqs: Sequence[TokenSeq]) -> np.ndarray:
    """Map token sequences onto their embedding rows: one (N, L, dim) float32
    array, the documents' shared length L taken from the first.

    Unknown tokens and positions >= real_length (PAD, even when the vocab
    has a PAD entry) get the zero vector, so they contribute nothing to
    convolution sums. Every position is gathered at once from the table
    with a zero row put in front; those positions index that row.
    """
    if not seqs:
        return np.zeros((0, 0, table.dim), dtype=np.float32)
    ids = np.zeros((len(seqs), len(seqs[0].tokens)), dtype=np.int32)
    for n, seq in enumerate(seqs):
        ids[n, :seq.real_length] = [table.vocab.get(tok, -1) + 1
                                    for tok in seq.tokens[:seq.real_length]]
    rows = np.zeros((len(table.vectors) + 1, table.dim), dtype=np.float32)
    rows[1:] = table.vectors
    return rows[ids]
