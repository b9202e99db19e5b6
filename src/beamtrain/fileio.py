"""Atomic file writes: every output file appears whole or not at all."""

import os
import secrets
from contextlib import contextmanager

import numpy as np


@contextmanager
def atomic_write(path: str, mode: str = "w", newline: str | None = None):
    """Open a new temp file next to `path` for writing; on a clean exit it
    replaces `path`, and on an exception it is removed and `path` is left
    as it was.

    Each call gets its own temp name, so concurrent writers to one path do
    not share a temp file. The file gets the mode a plain `open()` gives
    (0o666 less the umask)."""
    directory, name = os.path.split(os.path.abspath(path))
    # a random name; O_EXCL makes a clash an error, never a shared file
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_npz(path: str, arrays: dict) -> None:
    """Write `arrays` as one compressed npz archive, atomically."""
    with atomic_write(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)
