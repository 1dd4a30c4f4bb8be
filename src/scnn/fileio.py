"""Artifact file helpers shared by every writer and reader.

``atomic_write`` makes a file appear whole or not at all: the content goes
to ``<path>.tmp``, which replaces ``path`` only after a clean write and is
removed on any error. ``file_sha256`` is the content hash stored in stack
manifests and run manifests.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager


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


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
