"""Append-only JSONL journal backing the persistent job queue (internal).

The queue's single source of truth is a journal of state-transition
records, one canonical JSON object per line::

    {"event": "submit", "job": {...}, "v": 1}
    {"event": "start", "attempt": 1, "job_id": "j000001", "v": 1}
    {"event": "done", "cached": false, "job_id": "j000001", "v": 1}

Writing a transition is one durable ``write`` + ``fsync`` of one line
(:func:`repro._atomic.append_lines`), so a transition is either fully
journalled or not journalled at all.  A cache hit's ``start`` and
``done`` records go out together as two lines of one ``write`` +
``fsync`` (:meth:`Journal.append_many`); the lines are exactly those of
two separate appends.  Replay folds the records back into
queue state; a trailing line truncated by a crash mid-append is detected
(it fails to parse or lacks a newline) and dropped — the transition it
described simply never happened, which is exactly the atomicity contract
the worker-crash recovery path relies on.

The record schema is public and documented in docs/SERVICE.md; the
``v`` field versions it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro._atomic import append_lines
from repro.errors import ServiceError

#: journal record schema version (bump on incompatible change)
JOURNAL_VERSION = 1


def encode_record(record: Mapping[str, object]) -> str:
    """One canonical JSON line (sorted keys, compact separators)."""
    payload = dict(record)
    payload.setdefault("v", JOURNAL_VERSION)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Journal:
    """One append-only JSONL file of queue transitions."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, record: Mapping[str, object]) -> None:
        """Durably append one transition record."""
        self.append_many((record,))

    def append_many(self, records: Iterable[Mapping[str, object]]) -> None:
        """Durably append transition records with one write + fsync."""
        lines = []
        for record in records:
            if "event" not in record:
                raise ServiceError("journal records must carry an 'event' field")
            lines.append(encode_record(record))
        append_lines(self.path, lines)

    def replay(self) -> Iterator[dict]:
        """Yield every complete record in append order.

        A torn final line (crash mid-append) is dropped silently; a torn
        line in the *middle* of the journal means external corruption and
        raises.
        """
        if not self.path.exists():
            return
        text = self.path.read_text()
        lines = text.split("\n")
        # text ends with "\n" for every complete journal; the final split
        # element is then "" — anything else is a torn trailing write.
        complete, tail = lines[:-1], lines[-1]
        for i, line in enumerate(complete):
            try:
                yield json.loads(line)
            except json.JSONDecodeError as err:
                raise ServiceError(
                    f"{self.path}:line {i + 1}: journal line is not valid JSON: {err}"
                ) from err
        if tail:
            try:
                yield json.loads(tail)
            except json.JSONDecodeError:
                # Torn trailing append — the transition never happened.
                pass
