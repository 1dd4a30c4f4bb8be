import hashlib

import pytest

from scnn.fileio import atomic_write, file_sha256


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
