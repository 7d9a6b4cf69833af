"""Whole-file replacement for every data file the pipeline writes.

A reader of a scene file, table, predictions file, report or manifest
sees either the previous file or the complete new one, never a prefix:
a truncated predictions file would otherwise read back as fewer rooms.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path):
    """Open a text stream that replaces ``path`` when the block completes.

    Text is streamed to a new file in the same directory, which is moved
    over ``path`` with :func:`os.replace` once the block exits normally. If
    the block raises, the new file is removed and ``path`` is left as it
    was. The new file is created with the permissions a plain ``open``
    would give it. The replacement is atomic against an interrupted
    process; the data is not forced to disk.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
