import hashlib

import pytest

from scnn.errors import DataError
from scnn.fileio import atomic_write, file_sha256, read_tsv


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\r\nline\n")
        assert path.read_text() == "old\n"  # not visible until the block ends
    assert path.read_bytes() == b"new\r\nline\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_failure_keeps_old_file_and_no_tmp(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(path, binary=True) as fh:
            fh.write(b"partial")
            raise RuntimeError("disk full")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_file_sha256(tmp_path):
    path = tmp_path / "blob"
    data = bytes(range(256)) * 5000  # more than one read chunk
    path.write_bytes(data)
    assert file_sha256(path) == hashlib.sha256(data).hexdigest()


def test_read_tsv_skips_blank_lines_and_numbers_the_rest(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"\na\tb\n\nc\td\n")
    assert list(read_tsv(path, "rows", (2,))) == [(2, ["a", "b"]), (4, ["c", "d"])]
    path.write_bytes(b"")
    assert list(read_tsv(path, "rows", (2,))) == []


def test_read_tsv_only_lf_ends_a_line(tmp_path):
    # a CR stays in the last field, and a bare CR joins two lines into one
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"a\tx y\r\nb\tz\r\n")
    assert list(read_tsv(path, "rows", (2, 3))) == [(1, ["a", "x y\r"]), (2, ["b", "z\r"])]
    path.write_bytes(b"a\tx\rb\t1\ty\n")
    with pytest.raises(DataError, match=r"rows.tsv: expected 2 or 3 tab-separated fields "
                                         r"at line 1, got 4"):
        list(read_tsv(path, "rows", (2, 3)))


def test_read_tsv_holds_every_line_to_the_first(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\tb\tc\nd\te\n")
    with pytest.raises(DataError, match="expected 3 tab-separated fields at line 2, got 2"):
        list(read_tsv(path, "rows", (2, 3)))


def test_read_tsv_names_the_file_it_cannot_read(tmp_path):
    with pytest.raises(DataError, match="cannot read rows .*missing.tsv"):
        list(read_tsv(tmp_path / "missing.tsv", "rows", (2,)))
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"a\tb\nc\t\xff\n")
    with pytest.raises(DataError, match="latin1.tsv: not UTF-8 text at line 2"):
        list(read_tsv(path, "rows", (2,)))
