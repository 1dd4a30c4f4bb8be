import json
import os
import struct

import numpy as np
import pytest

from scnn import corpus, embeddings, synth
from scnn import model as M
from scnn.embeddings import Documents
from scnn.model import HyperParams
from scnn.rng import Rng

TOY_HP = HyperParams(
    adam_b2=0.999,
    n_dense_output=16,
    keep_prob=0.9,
    batch_size=10,
    learning_rate=0.01,
    word_embedding="godin",
    n_filters=8,
    filter_sizes=(1, 2, 2, 2, 3),
)


def toy_hp(**overrides) -> HyperParams:
    from dataclasses import replace

    return replace(TOY_HP, **overrides)


def as_documents(floats: np.ndarray) -> Documents:
    """Documents whose gathered rows are the (N, L, dim) array ``floats``:
    each nonzero row is a word of its own, each zero row takes id 0."""
    n, length, dim = floats.shape
    flat = floats.reshape(n * length, dim)
    ids = np.arange(1, n * length + 1) * flat.any(axis=1)
    return Documents(ids.reshape(n, length).astype(np.int32),
                     np.concatenate([np.zeros((1, dim), floats.dtype), flat]))


def token_ids(seqs) -> corpus.TokenIds:
    """The word ids of the token lists ``seqs``, as corpus.to_token_seqs makes
    them of its examples' tokens: each cut at DOC_LEN, ids from 1 up in
    order of first use, 0 past a document."""
    ids = np.zeros((len(seqs), corpus.DOC_LEN), dtype=np.int32)
    index = {}
    for n, tokens in enumerate(seqs):
        for i, tok in enumerate(tokens[:corpus.DOC_LEN]):
            ids[n, i] = index.setdefault(tok, len(index) + 1)
    return corpus.TokenIds(ids, list(index))


def synth_arrays(seed: int, n_train: int, n_test: int = 0, dim: int = 16):
    """Embedded synthetic corpus: (train_ex, docs, labels[, test...]), the
    documents as Documents."""
    rng = Rng(seed)
    table = synth.make_embedding_table(rng, dim=dim)
    train_ex = synth.make_examples(rng.substream("train"), n_train, "tr")
    docs = embeddings.lookup_docs(table, corpus.to_token_seqs(train_ex))
    labels = np.asarray([ex.label for ex in train_ex], dtype=np.int64)
    if not n_test:
        return train_ex, docs, labels
    test_ex = synth.make_examples(rng.substream("test"), n_test, "te")
    test_docs = embeddings.lookup_docs(table, corpus.to_token_seqs(test_ex))
    test_labels = np.asarray([ex.label for ex in test_ex], dtype=np.int64)
    return train_ex, docs, labels, test_ex, test_docs, test_labels


def set_usable_cpus(monkeypatch, n) -> None:
    """Make ``n`` CPUs usable by this process, whichever way it counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def assert_no_child_process() -> None:
    """This process has no child, running or unreaped, however it was
    started (multiprocessing.active_children sees only its own)."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def save_net(net, path) -> None:
    """Save the model ``net`` as a trained one with no epochs run."""
    M.save_model(M.TrainedModel(net, 0.0, 0, 0, []), path)


class NetMember:
    """An in-memory stack member: the probabilities of the model ``net``."""

    def __init__(self, net):
        self.net = net

    def predict_proba(self, docs):
        return M.predict_proba(self.net, docs)


def edit_model_header(raw: bytes, edit) -> bytes:
    """The model file bytes ``raw`` with ``edit(header)`` applied to their
    JSON header; the tensor bytes are kept as they are."""
    _, header_len = struct.unpack("<II", raw[4:12])
    header = json.loads(raw[12:12 + header_len])
    edit(header)
    blob = json.dumps(header).encode()
    return raw[:4] + struct.pack("<II", 1, len(blob)) + blob + raw[12 + header_len:]


def rewrite_model_header(src, dst, edit) -> None:
    """Copy the model file ``src`` to ``dst`` with ``edit(header)`` applied."""
    dst.write_bytes(edit_model_header(src.read_bytes(), edit))


@pytest.fixture(scope="session")
def toy_corpus():
    return synth_arrays(1234, 60)
