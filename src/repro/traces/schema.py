"""GOAL-like trace schema with a canonical JSONL serialization.

A trace is an application's execution skeleton, machine-readable and
replayable: per-rank *records* (compute / send / recv / collective / io /
sleep) carrying the engine's resource-demand vocabulary, linked by
explicit cross-rank dependency edges, plus a :class:`TraceMeta` header
that pins the machine, the rank placement, and the spawn times.  The
design follows the GOAL trace family used by LogGOPSim/ATLAHS: local
operations are ordered implicitly per rank (ascending record id), and
only cross-rank happens-before edges are spelled out.

Serialization is canonical so traces can be fingerprinted and diffed:

* one JSON object per line — the meta header, then every record in
  ascending-id order, then a trailer;
* sorted keys, compact separators, exact float round-trip (``repr``);
* the trailer carries the record count and the sha256 of every byte
  above it, so a torn tail is detected as a
  :class:`~repro.errors.TraceFormatError`, never silently replayed.

Record ids encode the *arrival order* of the recorded run: ids are
assigned globally in yield order, so sorting by id reproduces the exact
sequence in which same-timestamp operations reached the engine — the
property the replay engine relies on for byte-identical wakeup order.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import TraceFormatError
from repro.sim.process import CACHE_LEVELS

#: schema version written into every trace header
TRACE_VERSION = 1

#: record kinds: segment-backed work, pure dependency waits, and sleeps
RECORD_KINDS = ("collective", "compute", "io", "recv", "send", "sleep")

#: kinds whose replay is a pure dependency wait (no engine payload)
WAIT_KINDS = frozenset({"recv", "collective"})

#: machines a trace may target (the paper's two systems)
TRACE_MACHINES = ("chameleon", "voltrino")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TraceFormatError(message)


#: largest finite float: ``0.0 <= v <= _MAX`` holds exactly when
#: ``_finite(v)`` passes
_MAX = sys.float_info.max


def _finite(value: float, what: str, minimum: float = 0.0) -> float:
    value = float(value)
    _require(math.isfinite(value), f"{what} must be finite, got {value!r}")
    _require(value >= minimum, f"{what} must be >= {minimum}, got {value!r}")
    return value


def _canonical_io(io: tuple[object, ...]) -> tuple[str, float, float, float]:
    fs, write_bw, read_bw, meta_ops = io  # wrong length: ValueError
    return (str(fs), float(write_bw), float(read_bw), float(meta_ops))


@dataclass(frozen=True)
class TraceRecord:
    """One operation of one rank.

    Attributes
    ----------
    id:
        Globally unique positive integer; ascending id is both the
        canonical serialization order and, within a rank, program order.
    kind:
        One of :data:`RECORD_KINDS`.  ``recv`` and ``collective`` replay
        as pure dependency waits; the others carry an engine payload.
    rank:
        Owning rank (index into the meta's placement).
    deps:
        Cross-rank happens-before edges: positive entries name earlier
        record ids (``dep < id``, so the graph is acyclic by
        construction); ``-(r + 1)`` means "rank ``r`` has started".
    work:
        Segment work (seconds at full speed), or the sleep duration.
    cpu / cache / cache_intensity / mpki_base / mpki_extra /
    miss_cpi_penalty / mem_bw / mem_bw_extra / ips:
        The :class:`~repro.sim.process.Segment` demand vector; ``cache``
        is the footprint as a sorted ``(level, bytes)`` tuple.
    flows:
        ``(dst, rate)`` network demands.  ``dst`` is either a literal
        node name (recorded traces) or ``"r<k>"``, a rank reference the
        replay engine resolves through the placement (generated traces).
    io:
        ``(fs, write_bw, read_bw, meta_ops)`` filesystem demand, or None.
    counters:
        Body-side ``(key, delta)`` counter writes applied (via
        ``add_counter``) when this record becomes the rank's current
        record, before its dependencies are awaited.  Deltas — not
        absolutes — because the engine's rate models accrue into the
        same counters between records; replaying the exact recorded
        deltas at the same points reproduces the native run's
        interleaved floating-point sum bit-for-bit.
    mem:
        Absolute resident-set bytes to hold from this record on, or None
        for "unchanged" (the replay adjusts the node's memory ledger;
        nothing else accrues into the ledger, so absolute is exact).
    label:
        Free-form tag, forwarded to the replayed segment for tracing.
    """

    id: int
    kind: str
    rank: int
    deps: tuple[int, ...] = ()
    work: float = 0.0
    cpu: float = 1.0
    cache: tuple[tuple[str, float], ...] = ()
    cache_intensity: float = 0.0
    mpki_base: float = 0.0
    mpki_extra: float = 0.0
    miss_cpi_penalty: float = 0.0
    mem_bw: float = 0.0
    mem_bw_extra: float = 0.0
    ips: float = 0.0
    flows: tuple[tuple[str, float], ...] = ()
    io: tuple[str, float, float, float] | None = None
    counters: tuple[tuple[str, float], ...] = ()
    mem: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        # Canonicalize numeric types at construction: recorders hand in
        # whatever the workload carried (ints for byte counts, numpy
        # scalars from rate math), but the serialization must not depend
        # on that — ``2097152`` and ``2097152.0`` are equal in Python yet
        # different JSON bytes, which would break the sha256 round trip.
        # One update of the instance dict stores every converted field;
        # the conversions run in the order written here, so of several
        # bad fields the first one here is reported.
        self.__dict__.update(
            id=int(self.id),
            kind=str(self.kind),
            rank=int(self.rank),
            deps=tuple(sorted(map(int, self.deps))),
            cache=tuple(sorted([(str(level), float(size)) for level, size in self.cache])),
            flows=tuple([(str(dst), float(rate)) for dst, rate in self.flows]),
            counters=tuple(sorted([(str(k), float(v)) for k, v in self.counters])),
            work=float(self.work),
            cpu=float(self.cpu),
            cache_intensity=float(self.cache_intensity),
            mpki_base=float(self.mpki_base),
            mpki_extra=float(self.mpki_extra),
            miss_cpi_penalty=float(self.miss_cpi_penalty),
            mem_bw=float(self.mem_bw),
            mem_bw_extra=float(self.mem_bw_extra),
            ips=float(self.ips),
            io=None if self.io is None else _canonical_io(self.io),
            mem=None if self.mem is None else float(self.mem),
            label=str(self.label),
        )

    def validate(self, ranks: int) -> None:
        """Field-level validation (the trace validates the edges).

        One bare comparison per value; a message is built only for a
        value that fails.  ``0.0 <= v <= _MAX`` is :func:`_finite`'s
        test without the call (NaN fails every comparison, ±inf the
        bound), so on failure :func:`_finite` words the error.
        """
        rid = self.id
        if not rid > 0:
            raise TraceFormatError(f"record id must be positive, got {rid}")
        if self.kind not in RECORD_KINDS:
            raise TraceFormatError(f"record {rid}: unknown kind {self.kind!r}")
        if not 0 <= self.rank < ranks:
            raise TraceFormatError(
                f"record {rid}: rank {self.rank} out of range [0, {ranks})"
            )
        for dep in self.deps:
            if dep < 0:
                if not -dep - 1 < ranks:
                    raise TraceFormatError(f"record {rid}: start-dep {dep} names no rank")
            elif not 0 < dep < rid:
                raise TraceFormatError(
                    f"record {rid}: dep {dep} must name an earlier record"
                )
        if not 0.0 <= self.work <= _MAX:
            _finite(self.work, f"record {rid}: work")
        if not 0.0 <= self.cpu <= 1.0:
            raise TraceFormatError(
                f"record {rid}: cpu must be in [0, 1], got {self.cpu!r}"
            )
        if not (
            0.0 <= self.cache_intensity <= _MAX
            and 0.0 <= self.mpki_base <= _MAX
            and 0.0 <= self.mpki_extra <= _MAX
            and 0.0 <= self.miss_cpi_penalty <= _MAX
            and 0.0 <= self.mem_bw <= _MAX
            and 0.0 <= self.mem_bw_extra <= _MAX
            and 0.0 <= self.ips <= _MAX
        ):
            for name in (
                "cache_intensity",
                "mpki_base",
                "mpki_extra",
                "miss_cpi_penalty",
                "mem_bw",
                "mem_bw_extra",
                "ips",
            ):
                _finite(getattr(self, name), f"record {rid}: {name}")
        for level, size in self.cache:
            if level not in CACHE_LEVELS:
                raise TraceFormatError(f"record {rid}: unknown cache level {level!r}")
            if not 0.0 <= size <= _MAX:
                _finite(size, f"record {rid}: cache[{level}]")
        for dst, rate in self.flows:
            if not dst:
                raise TraceFormatError(f"record {rid}: flow destination must be non-empty")
            if not 0.0 <= rate <= _MAX:
                _finite(rate, f"record {rid}: flow rate to {dst!r}")
        if self.io is not None:
            fs, write_bw, read_bw, meta_ops = self.io
            if not fs:
                raise TraceFormatError(f"record {rid}: io filesystem must be named")
            if not (
                0.0 <= write_bw <= _MAX
                and 0.0 <= read_bw <= _MAX
                and 0.0 <= meta_ops <= _MAX
            ):
                _finite(write_bw, f"record {rid}: io write_bw")
                _finite(read_bw, f"record {rid}: io read_bw")
                _finite(meta_ops, f"record {rid}: io meta_ops")
        for key, value in self.counters:
            if not key:
                raise TraceFormatError(f"record {rid}: counter key must be non-empty")
            if not -_MAX <= value <= _MAX:
                _finite(value, f"record {rid}: counter {key!r}", minimum=-math.inf)
        if self.mem is not None and not 0.0 <= self.mem <= _MAX:
            _finite(self.mem, f"record {rid}: mem")

    def to_json(self) -> dict[str, object]:
        """Every field by name; :func:`json.dumps` renders the tuples as
        arrays, and None ``io``/``mem`` as null."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "TraceRecord":
        """Inverse of :meth:`to_json`.  The dataclass gives the defaults
        and ``__post_init__`` the type conversion, so a missing ``id``,
        an unknown key or a field of the wrong shape raises here as a
        :class:`~repro.errors.TraceFormatError`."""
        try:
            return cls(**data)  # type: ignore[arg-type]
        except (TypeError, ValueError) as err:
            raise TraceFormatError(f"malformed trace record: {err}") from err


@dataclass(frozen=True)
class TraceMeta:
    """Trace header: everything replay needs to rebuild the stage.

    ``tickers`` lists the recurring engine timers that were active in the
    recorded run as ``(interval, start, end)`` triples (``end`` None for
    unbounded).  Timers never mutate simulation state, but their firing
    times are floating-point accrual boundaries; replay re-installs
    no-op timers on the same schedule so counter integration sums in the
    exact same order.  ``ran_until`` is the simulated instant the
    recording was finalized at (0 for generated traces, which replay to
    completion instead).
    """

    name: str
    machine: str
    nodes: int
    ranks: int
    placement: tuple[tuple[str, int], ...]
    rank_names: tuple[str, ...]
    starts: tuple[float, ...]
    filesystems: tuple[str, ...] = ()
    tickers: tuple[tuple[float, float, float | None], ...] = ()
    ran_until: float = 0.0
    seed: int | None = None
    origin: str = "generated"
    version: int = TRACE_VERSION

    def __post_init__(self) -> None:
        # Same canonicalization as TraceRecord: equal headers serialize
        # to equal bytes whatever types the caller or the file handed in.
        for name, kind in (
            ("name", str),
            ("machine", str),
            ("nodes", int),
            ("ranks", int),
            ("ran_until", float),
            ("origin", str),
            ("version", int),
        ):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(
            self, "placement", tuple((str(n), int(c)) for n, c in self.placement)
        )
        object.__setattr__(
            self, "rank_names", tuple(str(n) for n in self.rank_names)
        )
        object.__setattr__(self, "starts", tuple(float(s) for s in self.starts))
        object.__setattr__(
            self, "filesystems", tuple(sorted(str(f) for f in self.filesystems))
        )
        object.__setattr__(
            self,
            "tickers",
            tuple(
                (float(i), float(s), None if e is None else float(e))
                for i, s, e in self.tickers
            ),
        )

    def validate(self) -> None:
        _require(self.version == TRACE_VERSION, f"unsupported trace version {self.version}")
        _require(bool(self.name), "trace name must be non-empty")
        _require(
            self.machine in TRACE_MACHINES,
            f"unknown machine {self.machine!r} (known: {', '.join(TRACE_MACHINES)})",
        )
        _require(self.nodes >= 1, "trace needs at least one node")
        _require(self.ranks >= 1, "trace needs at least one rank")
        for label, seq in (
            ("placement", self.placement),
            ("rank_names", self.rank_names),
            ("starts", self.starts),
        ):
            _require(
                len(seq) == self.ranks,
                f"meta {label} has {len(seq)} entries for {self.ranks} ranks",
            )
        for node, core in self.placement:
            _require(bool(node), "placement node names must be non-empty")
            _require(core >= 0, f"placement core {core} must be >= 0")
        for start in self.starts:
            _finite(start, "rank start time")
        for interval, start, end in self.tickers:
            _require(interval > 0, f"ticker interval must be > 0, got {interval!r}")
            _finite(start, "ticker start")
            if end is not None:
                _finite(end, "ticker end")
        _finite(self.ran_until, "ran_until")

    def to_json(self) -> dict[str, object]:
        """Every field by name, as :meth:`TraceRecord.to_json`."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "TraceMeta":
        """Inverse of :meth:`to_json`; see :meth:`TraceRecord.from_json`."""
        try:
            return cls(**data)  # type: ignore[arg-type]
        except (TypeError, ValueError) as err:
            raise TraceFormatError(f"malformed trace meta: {err}") from err


@dataclass(frozen=True)
class Trace:
    """A complete trace: header plus records in canonical (id) order.

    Construction normalizes: records are sorted by id regardless of the
    order they were emitted in, so two generators producing the same
    record *set* serialize byte-identically.
    """

    meta: TraceMeta
    records: tuple[TraceRecord, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "records", tuple(sorted(self.records, key=lambda r: r.id))
        )

    def validate(self) -> "Trace":
        """Full validation: meta, every record, and the dependency graph.

        Returns self so call sites can chain ``load(...).validate()``.
        """
        self.meta.validate()
        ranks = self.meta.ranks
        seen: set[int] = set()
        for record in self.records:
            rid = record.id
            if rid in seen:
                raise TraceFormatError(f"duplicate record id {rid}")
            seen.add(rid)
            record.validate(ranks)
            for dep in record.deps:
                if dep > 0 and dep not in seen:
                    raise TraceFormatError(f"record {rid}: dep {dep} names no record")
        return self

    @cached_property
    def sha256(self) -> str:
        """Fingerprint over the canonical meta + record lines.

        Computed once per trace (the trace is frozen); :func:`dumps`
        fills it from the lines it renders anyway.
        """
        return _digest(self._body())

    def per_rank(self) -> list[list[TraceRecord]]:
        """Records grouped by rank, in program (ascending-id) order."""
        out: list[list[TraceRecord]] = [[] for _ in range(self.meta.ranks)]
        for record in self.records:
            out[record.rank].append(record)
        return out

    def _body(self) -> str:
        """The canonical meta + record lines, each newline-terminated."""
        lines = [_canonical({"meta": self.meta.to_json()})]
        lines.extend(_canonical({"record": record.to_json()}) for record in self.records)
        lines.append("")
        return "\n".join(lines)


def _digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _canonical(payload: Mapping[str, object]) -> str:
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as err:
        raise TraceFormatError(f"non-finite value in trace: {err}") from err


def dumps(trace: Trace) -> str:
    """Canonical JSONL text: meta line, record lines, sha256 trailer."""
    body = trace._body()
    # The lines just rendered are the ones the content address hashes:
    # seal them here and cache the digest on the trace, so neither this
    # call nor a later ``trace.sha256`` renders them again.
    digest = trace.__dict__.setdefault("sha256", _digest(body))
    trailer = _canonical({"records": len(trace.records), "sha256": digest})
    return f"{body}{trailer}\n"


def loads(text: str) -> Trace:
    """Parse a JSONL trace; torn or tampered input is a typed error.

    The trailer seals the file's own bytes: its sha256 must be that of
    every byte above the trailer line, as written.  A file that
    :func:`dumps` wrote holds exactly the canonical lines, so its seal
    is :attr:`Trace.sha256`; a re-spaced or re-ordered copy is a
    mismatch even though it decodes to the same trace.
    """
    cut = text.rfind("\n", 0, len(text.rstrip())) + 1
    # surrogatepass: a str that no UTF-8 file decodes to still hashes
    # (and mismatches) instead of escaping as UnicodeEncodeError
    sealed = hashlib.sha256(text[:cut].encode("utf-8", "surrogatepass")).hexdigest()
    parsed = _decode(text)
    trailer = parsed[-1]
    _require(
        "records" in trailer and "sha256" in trailer,
        "trace trailer missing (torn tail?)",
    )
    count = trailer["records"]
    digest = trailer["sha256"]
    _require(
        isinstance(count, int)
        and not isinstance(count, bool)
        and isinstance(digest, str),
        "malformed trace trailer: records must be an int and sha256 a "
        f"string, got {type(count).__name__} and {type(digest).__name__}",
    )
    _require("meta" in parsed[0], "first trace line must be the meta header")
    meta = TraceMeta.from_json(parsed[0]["meta"])  # type: ignore[arg-type]
    records = []
    for index in range(1, len(parsed) - 1):
        obj = parsed[index]
        _require("record" in obj, f"trace line {index + 1} is not a record")
        records.append(TraceRecord.from_json(obj["record"]))  # type: ignore[arg-type]
    del parsed
    _require(
        count == len(records),
        f"trailer promises {count} records, found {len(records)} (torn tail?)",
    )
    _require(digest == sealed, "trace sha256 mismatch: file was modified or torn")
    return Trace(meta=meta, records=tuple(records))


def _decode(text: str) -> list[dict[str, object]]:
    """Every non-blank line as a JSON object.

    The body (every line above the trailer) is decoded in one call; only
    a body that does not decode to one object per line takes the
    line-by-line loop, which names the first bad line.  The trailer line
    is decoded on its own: it is the one line outside the seal, so no
    record can be read from it.  (Body lines that are not objects on
    their own yet join into one object per line decode as joined; the
    seal binds every byte of them.)
    """
    lines = [line for line in text.split("\n") if line.strip()]
    _require(len(lines) >= 2, "trace must have a meta line and a trailer")
    body = lines[:-1]
    try:
        parsed = json.loads("[" + ",".join(body) + "]")
    except json.JSONDecodeError:
        parsed = None
    if (
        parsed is None
        or len(parsed) != len(body)
        or not all(type(obj) is dict for obj in parsed)
    ):
        parsed = [_decode_line(line, number) for number, line in enumerate(body, 1)]
    parsed.append(_decode_line(lines[-1], len(lines)))
    return parsed


def _decode_line(line: str, number: int) -> dict[str, object]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise TraceFormatError(
            f"trace line {number} is not valid JSON (torn file?): {err}"
        ) from err
    if not isinstance(obj, dict):
        raise TraceFormatError(f"trace line {number} is not an object")
    return obj


def dump_trace(trace: Trace, path: str | Path) -> Path:
    """Write the canonical JSONL to ``path`` (atomic rename).

    The file is written as UTF-8 bytes with ``\\n`` line ends on every
    platform: the trailer seals the body's bytes, so a copy with CRLF
    line ends (a text-mode write on Windows, a checkout that converts
    line ends) no longer matches its seal.
    """
    from repro._atomic import atomic_write_bytes

    path = Path(path)
    atomic_write_bytes(path, dumps(trace).encode("utf-8"))
    return path


def load_trace(path: str | Path) -> Trace:
    """Read and parse a JSONL trace file.

    The bytes are decoded as they are (no newline translation), so the
    seal :func:`loads` checks is over the file's own bytes.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except OSError as err:
        raise TraceFormatError(f"cannot read trace {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise TraceFormatError(f"trace {path} is not UTF-8: {err}") from err
    return loads(text)


def with_records(trace: Trace, records: Iterable[TraceRecord]) -> Trace:
    """A copy of ``trace`` with its record set replaced (test surgery)."""
    return replace(trace, records=tuple(records))
