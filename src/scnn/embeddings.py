"""Pretrained word embeddings: loading, serialization, and document lookup.

Only the word2vec *text* format is supported: a header line
``<vocab_size> <dim>`` followed by one ``word v1 ... v_dim`` line per word.
Vectors are stored as float32. Tables are immutable after load, and
lookups are pure. A document is a row of word ids over the corpus's words
from tokenization on (corpus.to_token_seqs), until lookup_docs turns it
into a row of token ids over the table rows the documents use (Documents);
model.train and model.predict_proba gather each batch's float rows from
those just before its forward, so no (N, DOC_LEN, dim) float corpus is made.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .corpus import TokenIds
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


class Documents:
    """Embedded documents as token ids over the rows of the words they use.

    ``ids[n, i]`` is the row of document n's token i in ``rows``; row 0 is
    all zeros and stands for positions past the document and for tokens the
    table lacks. Indexing picks documents and shares ``rows``, so a subset
    copies only its ids. ``gather`` makes a batch's float rows, just before
    its forward. A plain class: every command, synth too, imports this
    module, and a dataclass would add ~0.25 ms to that import.
    """

    __slots__ = ("ids", "rows")

    def __init__(self, ids: np.ndarray, rows: np.ndarray):
        self.ids = ids  # (N, DOC_LEN) int32
        self.rows = rows  # (1 + words used, dim) float32

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, which) -> "Documents":
        """The documents ``which`` (a slice or an index array) picks."""
        return Documents(self.ids[which], self.rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def nbytes(self) -> int:
        return self.ids.nbytes + self.rows.nbytes

    def gather(self, which, h_max: int) -> np.ndarray:
        """The (B, cut, dim) float rows of the documents ``which``, cut after
        the batch's last word column plus ``h_max`` rows: the batch
        model.forward_batch takes. Every window past the cut is all pad, and
        the cut keeps the first all-pad window of each width <= h_max, so it
        changes no pooled value or argmax (ties go to the lowest position)."""
        ids = self.ids[which]
        words = np.flatnonzero(ids.any(axis=0))
        last = int(words[-1]) + 1 if len(words) else 0
        return self.rows.take(ids[:, :min(ids.shape[1], last + h_max)], axis=0)


def lookup_docs(table: EmbeddingTable, tokens: TokenIds) -> Documents:
    """Embed word ids as Documents over the rows of ``table`` they use:
    token i of document n has id ``ids[n, i]``. Unknown words and positions
    past the document take id 0, the zero row, so they add nothing to
    convolution sums. Each distinct word is looked up once; the used words'
    rows are copied from ``table.vectors`` in order of first use, and the
    table is never copied."""
    row_of = np.array([table.vocab.get(word, -1) for word in tokens.words], dtype=np.int64)
    used = row_of[row_of >= 0]  # the known words' table rows, in order of first use
    token_id = np.zeros(len(row_of) + 1, dtype=np.int32)  # word id -> token id
    token_id[1:][row_of >= 0] = np.arange(1, len(used) + 1)
    rows = np.zeros((len(used) + 1, table.dim), dtype=np.float32)
    rows[1:] = table.vectors[used]
    return Documents(token_id[tokens.ids], rows)
