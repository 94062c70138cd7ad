"""Atomic replacement of output files."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write to a temporary file beside ``path``, then rename it over ``path``.

    Until the block finishes, ``path`` keeps its previous content (or stays
    absent), so a stage that fails or is killed mid-write never leaves a
    truncated output for the next stage to read.  If the block raises, the
    temporary file is removed.  Text mode writes UTF-8.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
