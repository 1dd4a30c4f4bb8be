"""Pretrained word embeddings: loading, serialization, and document lookup.

Only the word2vec *text* format is supported: a header line
``<vocab_size> <dim>`` followed by one ``word v1 ... v_dim`` line per word.
Vectors are stored as float32. Tables are immutable after load; lookups are
pure, so everything here is safe to share across threads. A document is a
tweet's token list (corpus.to_token_seqs); lookup_docs writes its rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import DOC_LEN
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


def lookup_docs(table: EmbeddingTable, seqs: Sequence[list]) -> np.ndarray:
    """Embed token lists as one (N, DOC_LEN, dim) float32 array: row i of
    document n is the vector of its token i. Tokens past DOC_LEN are cut;
    unknown tokens and positions past the document are zero rows, so they
    add nothing to convolution sums. Known rows are gathered from
    ``table.vectors`` directly; the table is never copied."""
    ids = np.full((len(seqs), DOC_LEN), -1, dtype=np.intp)
    for n, tokens in enumerate(seqs):
        row = [table.vocab.get(tok, -1) for tok in tokens[:DOC_LEN]]
        ids[n, :len(row)] = row
    docs = np.zeros((len(seqs), DOC_LEN, table.dim), dtype=np.float32)
    known = ids >= 0
    docs[known] = table.vectors[ids[known]]
    return docs
