"""Artifact file helpers shared by every writer and reader.

``atomic_write`` makes a file appear whole or not at all: the content goes
to ``<path>.tmp``, which replaces ``path`` only after a clean write and is
removed on any error. ``file_sha256`` is the content hash stored in stack
manifests and run manifests. ``check_fields`` is the readers' one check
of a JSON object's keys and value types, and ``is_int`` and ``is_number``
(neither takes JSON true or false) are the type checks its rules share.
``open_text`` (only LF ends a line, as every writer here writes) is the
readers' one way to open a text file, and ``utf8_checked`` their one error
for a text file that does not decode. ``read_tsv`` is the one reader of
tab-separated rows (datasets, predictions, out-of-fold predictions): it
skips blank lines and holds every line to the field count of the first.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager

from .errors import DataError


@contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a handle on ``<path>.tmp`` (UTF-8 text with LF kept as written,
    or bytes) that replaces ``path`` when the block exits cleanly."""
    tmp = f"{path}.tmp"
    try:
        if binary:
            fh = open(tmp, "wb")
        else:
            fh = open(tmp, "w", encoding="utf-8", newline="")
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def is_int(value) -> bool:
    """True for an integer; JSON true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for an integer or a float; JSON true and false are not numbers here."""
    return is_int(value) or isinstance(value, float)


def check_fields(what: str, doc, types: dict) -> None:
    """DataError starting with ``what`` (``<path>: <what>`` for a file)
    unless ``doc`` is a JSON object with every key of ``types`` (key ->
    (check, what the value must be)), each value passing its check."""
    if not isinstance(doc, dict):
        raise DataError(f"{what} is not a JSON object")
    missing = [key for key in types if key not in doc]
    if missing:
        raise DataError(f"{what} lacks {', '.join(missing)}")
    for key, (ok, must) in types.items():
        if not ok(doc[key]):
            raise DataError(f"{what} {key} must be {must}, got {doc[key]!r}")


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def open_text(path, what: str):
    """A UTF-8 handle on the text file ``path`` in which only LF ends a line,
    so line numbers agree with ``utf8_checked``'s; DataError "cannot read
    <what> <path>" if it does not open."""
    try:
        fh = open(path, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    with fh, utf8_checked(path):
        yield fh


def read_tsv(path, what: str, widths):
    """Yield (line number, fields) for each non-empty line of the
    tab-separated text file ``path``, opened with open_text. The first line
    has one of the field counts ``widths`` and every other line the same;
    otherwise DataError "<path>: expected N tab-separated fields at line L,
    got M"."""
    want = widths
    with open_text(path, what) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) not in want:
                raise DataError(f"{path}: expected {' or '.join(map(str, want))} tab-separated "
                                f"fields at line {lineno}, got {len(fields)}")
            want = (len(fields),)
            yield lineno, fields


def read_json(path, what: str):
    """The JSON document in ``path``; DataError naming the file if it is unreadable."""
    try:
        with open_text(path, what) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc


@contextmanager
def utf8_checked(path):
    """Turn a UnicodeDecodeError from reading the text file ``path`` inside
    the block into a DataError naming the file and its first line that is
    not UTF-8. No UTF-8 sequence holds a newline byte, so a file decodes
    exactly when each of its lines does."""
    try:
        yield
    except UnicodeDecodeError:
        where = ""
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    where = f" at line {lineno}: {exc.reason}"
                    break
        raise DataError(f"{path}: not UTF-8 text{where}") from None
