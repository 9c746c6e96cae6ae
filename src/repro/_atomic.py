"""Atomic filesystem writes (internal).

Every artefact this package persists — results tables, manifests,
content-addressed cache entries — must be either entirely present or
entirely absent: a worker killed mid-write can never leave a truncated
file that a later reader (the :class:`~repro.service.ResultStore`, the
``repro diff`` tool, CI) would mistake for a complete artefact.

:func:`atomic_write_text` and :func:`atomic_write_bytes` write to a
same-directory temp file, flush and fsync it, then publish it with
:func:`os.replace` — atomic on POSIX and on NTFS.  The temp name
embeds the pid so two processes racing to persist the same
(deterministic, hence byte-identical) artefact cannot corrupt each
other; last replace wins with identical bytes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically; returns the path."""
    return _atomic_write(path, text, "w")


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically, byte for byte (no newline
    translation on any platform); returns the path."""
    return _atomic_write(path, data, "wb")


def _atomic_write(path: str | Path, data: str | bytes, mode: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with tmp.open(mode) as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # only when the write or the replace failed
            tmp.unlink()
    return path


def append_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Append ``\\n``-terminated lines durably with one write + one fsync.

    A single ``write`` to an ``O_APPEND`` descriptor is atomic with
    respect to readers on every platform we target; the fsync makes the
    lines durable before the caller acts on what they record.  A crash
    mid-write can still leave a torn *last* line, which journal replay
    drops.  The parent directory must exist: callers create it once, not
    per append.
    """
    data = "".join(
        line if line.endswith("\n") else line + "\n" for line in lines
    ).encode()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)
