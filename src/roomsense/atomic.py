"""Whole-file replacement and streamed reading of text files.

A reader of a scene file, table, predictions file, report or manifest
sees either the previous file or the complete new one, never a prefix:
a truncated predictions file would otherwise read back as fewer rooms.
Every text file the pipeline reads is read a block of whole lines at a
time (:func:`read_lines`), so a reader never holds the whole file.
"""

from __future__ import annotations

import contextlib
import os
from functools import partial
from pathlib import Path
from typing import Iterator


@contextlib.contextmanager
def atomic_write(path):
    """Open a text stream that replaces ``path`` when the block completes.

    Text is streamed to a new file in the same directory, which is moved
    over ``path`` with :func:`os.replace` once the block exits normally. If
    the block raises, the new file is removed and ``path`` is left as it
    was. The new file is created with the permissions a plain ``open``
    would give it. Its data is forced to disk before the move, and on POSIX
    the directory entry after it, so an OS crash or a power loss also
    leaves either the previous file or the complete new one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    if os.name == "posix":
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


# Lines are read in blocks of whole lines of about this many bytes: a block
# costs a few calls, not a few per line, and is all a reader holds of its
# file beyond the longest line.
_BLOCK_BYTES = 1 << 14


def read_lines(path, undecodable: str | None = None) -> Iterator[str]:
    """Yield the lines of the UTF-8 text file ``path``, one at a time.

    The lines are exactly those of
    ``Path(path).read_text(encoding="utf-8").splitlines()``: every separator
    :meth:`str.splitlines` knows ends a line, ``\\r\\n`` counts once, and a
    trailing separator adds no empty line. The file is read in blocks of
    whole ``\\n``-ended lines of about 16 KiB, so a reader holds one block or
    one line of it, whichever is larger, never the whole file. The file is
    closed when the lines run out, when the iterator is closed, or when it
    is dropped, so a caller that stops early or raises mid-file leaves it
    closed.

    A ``\\n``-ended line that is not UTF-8 is a ``ValueError`` naming
    ``path:line``, where ``line`` counts the lines yielded before it plus
    one; given ``undecodable``, that string is yielded in its place instead.
    """
    lineno = 0
    with open(path, "rb") as handle:
        # UTF-8 never uses the byte 0x0a inside a character, and every line
        # of a block but the file's last ends with it, so each block, and each
        # line of one, decodes on its own and no separator spans two of them
        for block in iter(partial(handle.readlines, _BLOCK_BYTES), []):
            try:
                lines = b"".join(block).decode("utf-8").splitlines()
            except UnicodeDecodeError:
                # decode the block line by line, to name the line at fault
                for raw in block:
                    try:
                        lines = raw.decode("utf-8").splitlines()
                    except UnicodeDecodeError as err:
                        if undecodable is None:
                            raise ValueError(f"{path}:{lineno + 1}: not UTF-8: {err}") from err
                        lines = [undecodable]
                    lineno += len(lines)
                    yield from lines
                continue
            lineno += len(lines)
            yield from lines
