import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import token_ids, toy_hp
from scnn.corpus import DOC_LEN
from scnn.embeddings import (Documents, EmbeddingTable, load_embeddings, lookup_docs,
                             write_embeddings)
from scnn.errors import DataError, NumericError
from scnn.model import build_model, forward_batch


@pytest.fixture
def small_table(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 3\napple 1.0 0 0\nbanana 0 1.0 0\n", encoding="utf-8")
    return load_embeddings(path, "toy")


class TestLoad:
    def test_basic(self, small_table):
        assert small_table.dim == 3
        assert set(small_table.vocab) == {"apple", "banana"}
        np.testing.assert_array_equal(
            small_table.vectors[small_table.vocab["apple"]], [1.0, 0.0, 0.0]
        )
        assert small_table.vectors.dtype == np.float32

    def test_wrong_component_count(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\napple 1.0 0\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 3 components at line 2"):
            load_embeddings(path, "x")

    def test_duplicate_word(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\napple 1 0 0\napple 0 1 0\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate word"):
            load_embeddings(path, "x")

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\napple 1.0 oops\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-numeric component at line 2"):
            load_embeddings(path, "x")

    def test_only_lf_ends_a_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"2 2\r\napple 1 0\r\nbanana 0 1\r\n")
        assert list(load_embeddings(path, "x").vocab) == ["apple", "banana"]
        path.write_bytes(b"2 2\napple 1 0\rbanana 0 1\n")
        with pytest.raises(DataError, match="expected 2 components at line 2"):
            load_embeddings(path, "x")

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\napple 1 0\nbanana 0 1\n", encoding="utf-8")
        with pytest.raises(DataError, match="promises 3"):
            load_embeddings(path, "x")

    def test_header_beyond_file_size(self, tmp_path):
        # 1e9 words of 400 components would be a 1.46 TiB table; refused
        # from the file size before anything is allocated
        path = tmp_path / "emb.txt"
        path.write_text("1000000000 400\napple " + " ".join(["0"] * 400) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_embeddings(path, "x")
        assert str(exc.value).startswith(f"{path}: header promises 1000000000 words")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("hello\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            load_embeddings(path, "x")


def test_write_round_trip_value_exact(tmp_path, small_table):
    out = tmp_path / "out.txt"
    write_embeddings(small_table, out)
    again = load_embeddings(out, small_table.name)
    assert again.vocab == small_table.vocab
    np.testing.assert_array_equal(again.vectors, small_table.vectors)


def test_failed_write_keeps_the_old_file(tmp_path, small_table):
    path = tmp_path / "out.txt"
    write_embeddings(small_table, path)
    before = path.read_bytes()
    # one word past the end of the vectors: the IndexError comes after the
    # earlier words' lines are written
    vocab = dict(small_table.vocab, cherry=len(small_table.vocab))
    broken = EmbeddingTable("toy", small_table.dim, vocab, small_table.vectors)
    with pytest.raises(IndexError):
        write_embeddings(broken, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt", "out.txt"]


def test_write_round_trip_random_values(tmp_path):
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(40)]
    path = tmp_path / "emb.txt"
    vectors = (rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-6, 6, (40, 1))).astype(np.float32)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("40 7\n")
        for w, row in zip(words, vectors):
            fh.write(w + " " + " ".join(repr(float(v)) for v in row) + "\n")
    table = load_embeddings(path, "rand")
    out = tmp_path / "round.txt"
    write_embeddings(table, out)
    again = load_embeddings(out, "rand")
    np.testing.assert_array_equal(again.vectors, table.vectors)
    assert again.vocab == table.vocab


def reference_lookup(table, seqs) -> np.ndarray:
    """The float documents lookup_docs's ids stand for: one (N, DOC_LEN, dim)
    float32 array, row i of document n the vector of its token i, zero rows
    for unknown tokens and past the document (the float lookup that
    lookup_docs replaced)."""
    ids = np.full((len(seqs), DOC_LEN), -1, dtype=np.intp)
    for n, tokens in enumerate(seqs):
        row = [table.vocab.get(tok, -1) for tok in tokens[:DOC_LEN]]
        ids[n, :len(row)] = row
    docs = np.zeros((len(seqs), DOC_LEN, table.dim), dtype=np.float32)
    known = ids >= 0
    docs[known] = table.vectors[ids[known]]
    return docs


def reference_documents(table, seqs) -> Documents:
    """The Documents of the token lists ``seqs``, made token by token (the
    lookup over token lists that lookup_docs over word ids replaced)."""
    ids = np.zeros((len(seqs), DOC_LEN), dtype=np.int32)
    used = {}  # table row -> its id, from 1 up
    for n, tokens in enumerate(seqs):
        row = [used.setdefault(table.vocab[tok], len(used) + 1) if tok in table.vocab else 0
               for tok in tokens[:DOC_LEN]]
        ids[n, :len(row)] = row
    rows = np.zeros((len(used) + 1, table.dim), dtype=np.float32)
    rows[1:] = table.vectors[list(used)]
    return Documents(ids, rows)


def _lookup(table, seqs) -> Documents:
    """lookup_docs on the word ids of the token lists ``seqs``."""
    return lookup_docs(table, token_ids(seqs))


def _lookup_one(table, tokens):
    """lookup_docs on a batch of one document; returns its (47, dim) rows."""
    docs = _lookup(table, [tokens])
    return docs.rows[docs.ids[0]]


class TestLookup:
    def test_present_and_pad(self, small_table):
        docs = _lookup(small_table, [["apple"]])
        assert docs.ids.shape == (1, 47) and docs.ids.dtype == np.int32
        assert docs.rows.dtype == np.float32
        doc = _lookup_one(small_table, ["apple"])
        assert doc.shape == (47, 3)
        np.testing.assert_array_equal(doc[0], [1, 0, 0])
        assert np.abs(doc[1:]).max() == 0

    def test_all_oov_zero(self, small_table):
        assert np.abs(_lookup_one(small_table, ["kumquat", "lychee"])).max() == 0
        assert _lookup(small_table, [["kumquat"]]).rows.shape == (1, 3)

    def test_row_order(self, small_table):
        doc = _lookup_one(small_table, ["banana", "apple"])
        np.testing.assert_array_equal(doc[0], [0, 1, 0])
        np.testing.assert_array_equal(doc[1], [1, 0, 0])

    def test_shape_independent_of_real_length(self, small_table):
        for toks in ([], ["apple"] * 47, ["x"] * 60):
            assert _lookup_one(small_table, toks).shape == (47, 3)

    def test_truncates_long(self, tmp_path):
        # a 60-token document of known words keeps its first 47 tokens' rows
        words = [f"w{i}" for i in range(60)]
        path = tmp_path / "emb.txt"
        path.write_text("60 2\n" + "".join(f"{w} {i} {-i}\n" for i, w in enumerate(words)),
                        encoding="utf-8")
        table = load_embeddings(path, "long")
        doc = _lookup_one(table, words)
        assert doc.shape == (DOC_LEN, 2)
        np.testing.assert_array_equal(doc, table.vectors[:DOC_LEN])
        assert len(_lookup(table, [words]).rows) == 1 + DOC_LEN  # the cut words have none

    def test_pad_rows_zero_even_if_pad_in_vocab(self, tmp_path):
        # "<PAD>" is an ordinary word: only the positions past a document
        # are zero rows, and no token stands for them
        path = tmp_path / "emb.txt"
        path.write_text("1 2\n<PAD> 9 9\n", encoding="utf-8")
        table = load_embeddings(path, "weird")
        assert np.abs(_lookup_one(table, ["oov"])).max() == 0
        assert np.abs(_lookup_one(table, [])).max() == 0
        np.testing.assert_array_equal(_lookup_one(table, ["<PAD>"])[0], [9, 9])

    def test_lookup_docs_stacks(self, small_table):
        seqs = [["apple"], ["banana", "kumquat", "apple"], [], ["banana"] * 50]
        docs = _lookup(small_table, seqs)
        assert docs.ids.shape == (4, 47) and len(docs) == 4 and docs.dim == 3
        # one row per word used, in order of first use, after the zero row
        np.testing.assert_array_equal(docs.rows, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(docs.ids[1, :4], [2, 0, 1, 0])
        assert docs.nbytes == docs.ids.nbytes + docs.rows.nbytes
        np.testing.assert_array_equal(docs.rows[docs.ids], reference_lookup(small_table, seqs))
        empty = _lookup(small_table, [])
        assert empty.ids.shape == (0, 47) and empty.rows.shape == (1, 3)

    def test_does_not_copy_the_table(self):
        # 50k words of 64 dims: 12.8 MB of vectors against 120 KB of rows
        vectors = np.arange(50_000 * 64, dtype=np.float32).reshape(50_000, 64)
        table = EmbeddingTable("big", 64, {f"w{i}": i for i in range(50_000)}, vectors)
        tokens = token_ids([[f"w{7 * n + i}" for i in range(5)] + ["oov"] for n in range(10)])
        tracemalloc.start()
        try:
            docs = lookup_docs(table, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vectors.nbytes / 4
        assert len(docs.rows) == 1 + 50  # the words used, and the zero row
        np.testing.assert_array_equal(docs.rows[docs.ids[3, :5]], vectors[21:26])
        assert (docs.ids[:, 5:] == 0).all()


class TestDocuments:
    @pytest.fixture
    def docs(self, small_table):
        return _lookup(small_table, [["apple"], ["banana", "x", "banana"], [], ["apple"]])

    def test_a_subset_shares_the_rows(self, docs):
        sub = docs[np.array([3, 1])]
        assert isinstance(sub, Documents) and sub.rows is docs.rows
        np.testing.assert_array_equal(sub.ids, docs.ids[[3, 1]])
        assert len(docs[1:3]) == 2

    def test_gather_cuts_after_the_last_word_plus_h_max(self, docs):
        assert docs.gather(slice(None), 2).shape == (4, 3 + 2, 3)
        assert docs.gather([0, 3], 4).shape == (2, 1 + 4, 3)
        assert docs.gather([2], 3).shape == (1, 3, 3)  # no word: h_max rows
        assert docs.gather([1], 50).shape == (1, DOC_LEN, 3)
        np.testing.assert_array_equal(docs.gather([1], 1)[0, :3],
                                      [[0, 1, 0], [0, 0, 0], [0, 1, 0]])


WORDS = [f"w{i}" for i in range(10)]
TOKENS = WORDS + ["unknown", "oov"]


@st.composite
def corpora(draw):
    """(table, token lists): a 10-word table whose w0 is all zeros and
    whose w1 may hold a NaN, and documents of up to 60 tokens, some of
    them unknown words."""
    dim = draw(st.integers(1, 5))
    vectors = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (len(WORDS), dim)).astype(np.float32)
    vectors[0] = 0  # a used word whose vector is all zeros
    if draw(st.booleans()):
        vectors[1, draw(st.integers(0, dim - 1))] = np.nan
    table = EmbeddingTable("drawn", dim, {w: i for i, w in enumerate(WORDS)}, vectors)
    seqs = draw(st.lists(st.lists(st.sampled_from(TOKENS), max_size=60), min_size=1,
                         max_size=8))
    return table, seqs


@given(corpus=corpora(), data=st.data(), h_max=st.integers(1, 7))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_gathered_batches_equal_the_float_documents(corpus, data, h_max):
    """The word ids' Documents are those of the token lists, bit for bit
    (the same ids, rows and row order), and forward_batch gives a gathered
    batch, cut after its last word column plus h_max rows, the outputs of
    the float lookup's full 47-row batch, bit for bit."""
    table, seqs = corpus
    docs, ref = _lookup(table, seqs), reference_lookup(table, seqs)
    by_token = reference_documents(table, seqs)
    assert np.array_equal(docs.ids, by_token.ids) and docs.ids.dtype == np.int32
    assert docs.rows.view(np.uint32).tobytes() == by_token.rows.view(np.uint32).tobytes()
    assert docs.rows[docs.ids].view(np.uint32).tobytes() == ref.view(np.uint32).tobytes()
    which = np.asarray(data.draw(st.lists(st.integers(0, len(seqs) - 1), min_size=1,
                                          max_size=len(seqs), unique=True)))
    net = build_model(toy_hp(filter_sizes=(*(min(w, h_max) for w in (1, 2, 3, 4)), h_max)),
                      table.dim, seed=1)
    got, want = (_forward_bits(net, batch) for batch in (docs.gather(which, h_max), ref[which]))
    assert got == want


def _forward_bits(net, batch):
    """forward_batch's probabilities and each conv's pooled values and
    argmaxes, as bytes; or the message of its NumericError (a NaN row)."""
    try:
        probs, caches = forward_batch(net, batch)
    except NumericError as exc:
        return str(exc)
    return probs.tobytes() + b"".join(c[2].tobytes() + c[1].tobytes() for c in caches["conv"])
