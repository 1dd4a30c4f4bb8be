from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnn.corpus import (
    Example,
    parse_dataset,
    stratified_kfold,
    to_token_seqs,
    tokenize,
    write_dataset,
)
from scnn.errors import DataError


class TestTokenize:
    def test_lowercase_and_punct_detach(self):
        assert tokenize("Took 2 Advil!") == ["took", "2", "advil", "!"]

    def test_mentions_hashtags_urls_kept_whole(self):
        assert tokenize("@doc check https://x.co/a") == ["@doc", "check", "https://x.co/a"]
        assert tokenize("#FLU www.who.int HTTP://X.CO") == ["#flu", "www.who.int", "http://x.co"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t  ") == []

    def test_leading_and_trailing_runs_become_single_chars(self):
        assert tokenize("(ok)!") == ["(", "ok", ")", "!"]
        assert tokenize("!!!") == ["!", "!", "!"]

    def test_interior_punct_untouched(self):
        assert tokenize("don't co-op") == ["don't", "co-op"]

    @given(st.text())
    @settings(max_examples=200)
    def test_deterministic_and_never_empty_tokens(self, text):
        out = tokenize(text)
        assert out == tokenize(text)
        assert all(out)


def test_to_token_seqs_is_the_token_lists():
    # a document keeps every token; lookup_docs cuts it at DOC_LEN
    long_text = " ".join(f"w{i}" for i in range(60))
    examples = [Example("a", "Took 2 Advil!"), Example("b", ""), Example("c", long_text)]
    assert to_token_seqs(examples) == [["took", "2", "advil", "!"], [], long_text.split()]


class TestParseDataset:
    def test_labeled(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("t1\t3\tneed some advil\n", encoding="utf-8")
        assert parse_dataset(path) == [Example("t1", "need some advil", 3)]

    def test_unlabeled(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("t9\ttook my meds\n", encoding="utf-8")
        (ex,) = parse_dataset(path)
        assert ex == Example("t9", "took my meds") and ex.label is None

    def test_first_line_decides_labeled(self, tmp_path):
        # a 3-field line in an unlabeled file is an error, not a label
        path = tmp_path / "d.tsv"
        path.write_text("\na\tx\nb\t1\ty\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 2 tab-separated fields at line 3, got 3"):
            parse_dataset(path)
        path.write_text("a\t1\tx\n\nb\ty\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 3 tab-separated fields at line 3, got 2"):
            parse_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("t2\t5\tx\n", encoding="utf-8")
        with pytest.raises(DataError, match="label out of range at line 1"):
            parse_dataset(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("t1\t1\tok\nt2\toops\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            parse_dataset(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("t1\t1\ta\nt1\t2\tb\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate id"):
            parse_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            parse_dataset(tmp_path / "nope.tsv")

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("b\t1\tx\na\t2\ty\n", encoding="utf-8")
        assert [ex.id for ex in parse_dataset(path)] == ["b", "a"]

    # Only LF ends a line, as in write_dataset and fileio.utf8_checked.
    def test_cr_inside_text_kept(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"a\t1\tx\ry z\nb\t2\tw\n")
        assert parse_dataset(path) == [Example("a", "x\ry z", 1), Example("b", "w", 2)]
        assert tokenize("x\ry z") == ["x", "y", "z"]

    def test_bare_cr_does_not_end_a_line(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"a\t1\tx\rb\t1\ty\n")
        with pytest.raises(DataError, match="fields at line 1, got 5"):
            parse_dataset(path)

    def test_crlf_file_parses_as_before(self, tmp_path):
        # the CR stays at the end of the last field, where tokenize drops it
        path = tmp_path / "d.tsv"
        path.write_bytes(b"a\t1\tx y\r\nb\t2\tz\r\n")
        assert parse_dataset(path) == [Example("a", "x y\r", 1), Example("b", "z\r", 2)]
        path.write_bytes(b"a\tx y\r\nb\tz\r\n")
        assert parse_dataset(path) == [Example("a", "x y\r"), Example("b", "z\r")]
        path.write_bytes(b"a\t1\tx\r\nb\t7\ty\r\n")
        with pytest.raises(DataError, match="label out of range at line 2"):
            parse_dataset(path)


class TestWriteDataset:
    def test_round_trip(self, tmp_path):
        examples = [Example("a", "hello there", 1), Example("b", "bye", 3)]
        path = tmp_path / "d.tsv"
        write_dataset(examples, path)
        assert parse_dataset(path) == examples

    def test_round_trip_unlabeled(self, tmp_path):
        examples = [Example("a", "hello"), Example("b", "bye")]
        path = tmp_path / "d.tsv"
        write_dataset(examples, path)
        assert parse_dataset(path) == examples

    def test_byte_round_trip(self, tmp_path):
        src = tmp_path / "src.tsv"
        src.write_text("a\t1\thello\nb\t2\tthere\n", encoding="utf-8")
        dst = tmp_path / "dst.tsv"
        write_dataset(parse_dataset(src), dst)
        assert src.read_bytes() == dst.read_bytes()

    def test_tab_in_text_rejected(self, tmp_path):
        with pytest.raises(DataError, match="TAB"):
            write_dataset([Example("a", "bad\ttext", 1)], tmp_path / "d.tsv")

    def test_mixed_labeling_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_dataset([Example("a", "x", 1), Example("b", "y")], tmp_path / "d.tsv")

    def test_empty(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_dataset([], path)
        assert path.read_bytes() == b""


def _fake_examples(class_counts: dict) -> list:
    out = []
    for label, count in class_counts.items():
        out += [Example(f"c{label}-{i}", "text", label) for i in range(count)]
    return out


class TestStratifiedKfold:
    def test_divisible_counts_exact(self):
        examples = _fake_examples({1: 10, 2: 5, 3: 5})
        fa = stratified_kfold([ex.label for ex in examples], k=5, seed=0)
        per_fold = Counter()
        for ex, fold in zip(examples, fa.fold_of):
            per_fold[(fold, ex.label)] += 1
        for fold in range(5):
            assert (per_fold[(fold, 1)], per_fold[(fold, 2)], per_fold[(fold, 3)]) == (2, 1, 1)

    def test_published_class_counts(self):
        # 1847/3027/4789 over 5 folds -> per-class counts differ by <= 1
        examples = _fake_examples({1: 1847, 2: 3027, 3: 4789})
        fa = stratified_kfold([ex.label for ex in examples], k=5, seed=11)
        counts = {c: Counter() for c in (1, 2, 3)}
        for ex, fold in zip(examples, fa.fold_of):
            counts[ex.label][fold] += 1
        assert sorted(counts[1].values()) == [369, 369, 369, 370, 370]
        assert sorted(counts[2].values()) == [605, 605, 605, 606, 606]
        assert sorted(counts[3].values()) == [957, 958, 958, 958, 958]

    def test_deterministic(self):
        examples = _fake_examples({1: 13, 2: 8, 3: 21})
        a = stratified_kfold([ex.label for ex in examples], k=5, seed=3)
        b = stratified_kfold([ex.label for ex in examples], k=5, seed=3)
        assert a == b
        c = stratified_kfold([ex.label for ex in examples], k=5, seed=4)
        assert a != c

    def test_small_class_rejected(self):
        examples = _fake_examples({1: 5, 2: 3, 3: 5})
        with pytest.raises(DataError, match="class 2"):
            stratified_kfold([ex.label for ex in examples], k=5, seed=0)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            stratified_kfold([1] * 4, k=1, seed=0)

    @given(
        counts=st.tuples(st.integers(5, 40), st.integers(5, 40), st.integers(5, 40)),
        k=st.integers(2, 5),
        seed=st.integers(0, 2 ** 32),
    )
    @settings(max_examples=150, deadline=None)
    def test_partition_and_balance_properties(self, counts, k, seed):
        examples = _fake_examples(dict(zip((1, 2, 3), counts)))
        fa = stratified_kfold([ex.label for ex in examples], k=k, seed=seed)
        assert len(fa.fold_of) == len(examples)
        assert set(fa.fold_of) <= set(range(k))
        per = {c: Counter({f: 0 for f in range(k)}) for c in (1, 2, 3)}
        for ex, fold in zip(examples, fa.fold_of):
            per[ex.label][fold] += 1
        for c in (1, 2, 3):
            values = list(per[c].values())
            assert max(values) - min(values) <= 1
            assert sum(values) == dict(zip((1, 2, 3), counts))[c]
