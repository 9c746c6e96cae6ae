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
        if tmp.exists():  # pragma: no cover - only on a failed replace
            tmp.unlink()
    return path


def append_line(path: str | Path, line: str) -> None:
    """Append one ``\\n``-terminated line durably (single write + fsync).

    A single ``write`` of one line is atomic with respect to readers on
    every platform we target (POSIX O_APPEND semantics); the fsync makes
    the journal entry durable before the caller acts on the transition
    it records.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(line if line.endswith("\n") else line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
