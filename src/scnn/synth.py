"""Deterministic keyword-separable synthetic corpus for desk-scale runs.

Each class has a marker word that appears in every one of its tweets at a
random position among filler words, so any model that can pick out one token
can separate the classes. The toy embedding file covers the full vocabulary;
markers get fixed orthogonal vectors, fillers small random ones.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .corpus import Example, write_dataset
from .embeddings import EmbeddingTable, write_embeddings
from .fileio import atomic_write
from .rng import Rng

MARKERS = {1: "markerone", 2: "markertwo", 3: "markerthree"}
N_FILLERS = 30

# Small space for smoke runs; values outside the standard domains, so
# searches over it need the unrestricted-space flag.
TOY_SPACE = {
    "adam_b2": [0.9, 0.999],
    "n_dense_output": [8, 16],
    "keep_prob": [0.8, 0.9],
    "batch_size": [50],
    "learning_rate": [0.001],
    "word_embedding": ["godin", "shin"],
    "n_filters": [4, 8],
    "filter_sizes": [[1, 2, 2, 2, 3], [1, 2, 3, 4, 5]],
}


def _fillers() -> list:
    return [f"word{i:02d}" for i in range(N_FILLERS)]


def make_examples(rng: Rng, n: int, id_prefix: str) -> list:
    """n examples with (as close as possible to) balanced class counts."""
    fillers = _fillers()
    labels = [c for i in range(n) for c in [(i % 3) + 1]]
    perm = rng.substream("labels").permutation(n)
    labels = [labels[i] for i in perm]
    text_rng = rng.substream("text")
    examples = []
    for i, label in enumerate(labels):
        n_words = int(text_rng.integers(5, 12))
        words = [fillers[int(text_rng.integers(0, N_FILLERS))] for _ in range(n_words)]
        pos = int(text_rng.integers(0, n_words + 1))
        words.insert(pos, MARKERS[label])
        examples.append(Example(f"{id_prefix}{i:04d}", " ".join(words), label))
    return examples


def make_embedding_table(rng: Rng, dim: int = 16, name: str = "synthetic") -> EmbeddingTable:
    if dim < 4:
        raise ValueError("toy embeddings need dim >= 4")
    words = list(MARKERS.values()) + _fillers()
    vectors = rng.substream("vectors").uniform(-0.5, 0.5, (len(words), dim)).astype(np.float32)
    for i in range(3):  # orthogonal, large-norm marker vectors
        vectors[i] = 0.0
        vectors[i, i] = 1.5
    return EmbeddingTable(name=name, dim=dim,
                          vocab={w: i for i, w in enumerate(words)}, vectors=vectors)


def corpus_paths(out_dir) -> dict:
    """role -> path of each file write_synth_corpus writes in ``out_dir``."""
    return {role: os.path.join(out_dir, f"{role}.{ext}") for role, ext in
            (("train", "tsv"), ("test", "tsv"), ("embeddings", "txt"), ("space", "json"))}


def write_synth_corpus(out_dir, seed: int, n_train: int = 600, n_test: int = 300,
                       dim: int = 16) -> dict:
    """Write train.tsv, test.tsv, embeddings.txt, and space.json; returns
    the file paths (corpus_paths)."""
    os.makedirs(out_dir, exist_ok=True)
    rng = Rng(seed)
    paths = corpus_paths(out_dir)
    write_dataset(make_examples(rng.substream("train"), n_train, "tr"), paths["train"])
    write_dataset(make_examples(rng.substream("test"), n_test, "te"), paths["test"])
    write_embeddings(make_embedding_table(rng, dim), paths["embeddings"])
    with atomic_write(paths["space"]) as fh:
        json.dump(TOY_SPACE, fh, indent=2)
        fh.write("\n")
    return paths
