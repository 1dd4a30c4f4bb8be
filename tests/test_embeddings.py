import tracemalloc

import numpy as np
import pytest

from scnn.corpus import DOC_LEN
from scnn.embeddings import EmbeddingTable, load_embeddings, lookup_docs, write_embeddings
from scnn.errors import DataError


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


def _lookup_one(table, tokens):
    """lookup_docs on a batch of one document; returns its (47, dim) rows."""
    return lookup_docs(table, [tokens])[0]


class TestLookup:
    def test_present_and_pad(self, small_table):
        doc = _lookup_one(small_table, ["apple"])
        assert doc.shape == (47, 3) and doc.dtype == np.float32
        np.testing.assert_array_equal(doc[0], [1, 0, 0])
        assert np.abs(doc[1:]).max() == 0

    def test_all_oov_zero(self, small_table):
        assert np.abs(_lookup_one(small_table, ["kumquat", "lychee"])).max() == 0

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

    def test_pad_rows_zero_even_if_pad_in_vocab(self, tmp_path):
        # "<PAD>" is an ordinary word: only the positions past a document
        # are zero rows, and no token stands for them
        path = tmp_path / "emb.txt"
        path.write_text("1 2\n<PAD> 9 9\n", encoding="utf-8")
        table = load_embeddings(path, "weird")
        assert np.abs(_lookup_one(table, ["oov"])).max() == 0
        assert np.abs(_lookup_one(table, [])).max() == 0

    def test_lookup_docs_stacks(self, small_table):
        docs = [["apple"], ["banana", "kumquat", "apple"], [], ["banana"] * 50]
        arr = lookup_docs(small_table, docs)
        assert arr.shape == (4, 47, 3) and arr.dtype == np.float32
        # reference: one row at a time, zero unless a known token
        want = np.zeros((4, 47, 3), np.float32)
        for n, tokens in enumerate(docs):
            for i, tok in enumerate(tokens[:47]):
                if tok in small_table.vocab:
                    want[n, i] = small_table.vectors[small_table.vocab[tok]]
        np.testing.assert_array_equal(arr, want)
        assert lookup_docs(small_table, []).shape == (0, 47, 3)

    def test_does_not_copy_the_table(self):
        # 50k words of 64 dims: 12.8 MB of vectors against 120 KB of rows
        vectors = np.arange(50_000 * 64, dtype=np.float32).reshape(50_000, 64)
        table = EmbeddingTable("big", 64, {f"w{i}": i for i in range(50_000)}, vectors)
        docs = [[f"w{7 * n + i}" for i in range(5)] + ["oov"] for n in range(10)]
        tracemalloc.start()
        try:
            arr = lookup_docs(table, docs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vectors.nbytes / 4
        np.testing.assert_array_equal(arr[3, :5], vectors[21:26])
        assert np.abs(arr[:, 5:]).max() == 0
