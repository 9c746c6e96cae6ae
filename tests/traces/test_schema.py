"""Canonical trace serialization: round trips, torn tails, tampering."""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import TraceFormatError
from repro.traces import (
    TRACE_VERSION,
    Trace,
    TraceMeta,
    TraceRecord,
    dump_trace,
    dumps,
    generate_trace,
    load_trace,
    loads,
)
from repro.traces import schema
from repro.traces.schema import with_records

CORPUS = Path(__file__).parent / "corpus"
MAX = sys.float_info.max


def _tiny_trace() -> Trace:
    meta = TraceMeta(
        name="tiny",
        machine="chameleon",
        nodes=2,
        ranks=2,
        placement=(("node0", 0), ("node1", 0)),
        rank_names=("tiny.r0", "tiny.r1"),
        starts=(0.0, 0.0),
    )
    records = (
        TraceRecord(id=1, kind="compute", rank=0, deps=(-1,), work=1.0),
        TraceRecord(id=2, kind="compute", rank=1, deps=(-2,), work=0.5),
        TraceRecord(id=3, kind="collective", rank=0, deps=(1, 2)),
    )
    return Trace(meta=meta, records=records).validate()


def test_round_trip_is_lossless():
    trace = _tiny_trace()
    assert loads(dumps(trace)) == trace


def test_round_trip_is_byte_stable():
    text = dumps(_tiny_trace())
    assert dumps(loads(text)) == text


def test_file_round_trip(tmp_path):
    trace = generate_trace("ai_training", seed=3, ranks=3, steps=2)
    path = dump_trace(trace, tmp_path / "t.jsonl")
    assert load_trace(path) == trace
    assert load_trace(path).sha256 == trace.sha256


def test_numeric_types_canonicalize():
    # ints and floats must serialize identically: a recorder handing in
    # `2097152` and a parser reading back `2097152.0` must agree on bytes.
    int_rec = TraceRecord(id=1, kind="compute", rank=0, work=1, cache=(("L2", 2097152),))
    float_rec = TraceRecord(
        id=1, kind="compute", rank=0, work=1.0, cache=(("L2", 2097152.0),)
    )
    assert int_rec == float_rec
    assert int_rec.to_json() == float_rec.to_json()


def test_torn_tail_is_typed_error():
    text = dumps(_tiny_trace())
    torn = text[: text.rindex('{"records"')]
    with pytest.raises(TraceFormatError, match="torn|trailer"):
        loads(torn)


def test_half_written_line_is_typed_error():
    text = dumps(_tiny_trace())
    with pytest.raises(TraceFormatError):
        loads(text[:-20])


def test_tampered_record_fails_sha():
    text = dumps(_tiny_trace())
    tampered = text.replace('"work":1.0', '"work":2.0', 1)
    assert tampered != text
    with pytest.raises(TraceFormatError, match="sha256 mismatch"):
        loads(tampered)


def _with_trailer(trace: Trace, **fields) -> str:
    lines = dumps(trace).splitlines()
    trailer = json.loads(lines[-1])
    trailer.update(fields)
    return "\n".join([*lines[:-1], json.dumps(trailer)]) + "\n"


@pytest.mark.parametrize(
    "fields",
    [
        {"records": "many"},
        {"records": [1]},
        {"records": None},
        {"records": 3.0},
        {"sha256": 5},
    ],
)
def test_malformed_trailer_is_typed_error(fields):
    with pytest.raises(TraceFormatError, match="malformed trace trailer"):
        loads(_with_trailer(_tiny_trace(), **fields))


def test_boolean_record_count_is_typed_error():
    # ``true == 1``, so a one-record trace would otherwise load.
    trace = _tiny_trace()
    one = with_records(trace, trace.records[:1])
    assert loads(dumps(one)) == one
    with pytest.raises(TraceFormatError, match="malformed trace trailer"):
        loads(_with_trailer(one, records=True))


@pytest.mark.parametrize(
    "damage",
    [
        lambda rec: rec.pop("id"),
        lambda rec: rec.update(rank="zero"),
        lambda rec: rec.update(deps=7),
        lambda rec: rec.update(work=None),
        lambda rec: rec.update(cache=[["L2"]]),
        lambda rec: rec.update(flows=[["node1", "fast"]]),
        lambda rec: rec.update(io=["nfs", 1.0]),
        lambda rec: rec.update(counters=[["steps", []]]),
        lambda rec: rec.update(mem="lots"),
        lambda rec: rec.update(wrok=2.0),  # unknown key: never dropped
    ],
)
def test_damaged_record_field_is_typed_error(damage):
    data = _tiny_trace().records[0].to_json()
    damage(data)
    with pytest.raises(TraceFormatError, match="malformed trace record"):
        TraceRecord.from_json(data)


def test_first_bad_field_in_conversion_order_is_reported():
    data = _tiny_trace().records[0].to_json()
    data.update(work="fast", mem="lots", cache=[["L2"]], io=["nfs", 1.0])
    with pytest.raises(TraceFormatError, match="not enough values to unpack"):
        TraceRecord.from_json(data)
    del data["cache"]
    with pytest.raises(TraceFormatError, match="could not convert string to float: 'fast'"):
        TraceRecord.from_json(data)
    data["work"] = 1.0
    with pytest.raises(TraceFormatError, match=r"expected 4, got 2"):
        TraceRecord.from_json(data)


def test_unknown_meta_key_is_typed_error():
    data = _tiny_trace().meta.to_json()
    data["rank"] = 2
    with pytest.raises(TraceFormatError, match="malformed trace meta"):
        TraceMeta.from_json(data)


def test_meta_fields_canonicalize_at_construction():
    meta = replace(
        _tiny_trace().meta, nodes="2", ran_until=0, seed="5", rank_names=(1, 2)
    )
    assert (meta.nodes, meta.ran_until, meta.seed) == (2, 0.0, 5)
    assert type(meta.ran_until) is float
    assert meta.rank_names == ("1", "2")
    assert TraceMeta.from_json(meta.to_json()) == meta


def test_non_object_record_is_typed_error():
    text = dumps(_tiny_trace())
    first = text.split("\n")[1]
    with pytest.raises(TraceFormatError, match="malformed trace record"):
        loads(text.replace(first, '{"record":[1,2]}', 1))


def test_record_text_fields_canonicalize():
    data = _tiny_trace().records[0].to_json()
    data["label"] = 5
    assert TraceRecord.from_json(data).label == "5"


def test_missing_trace_file_is_typed_error(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot read"):
        load_trace(tmp_path / "nope.jsonl")


def test_validation_rejects_forward_dep():
    trace = _tiny_trace()
    bad = with_records(
        trace,
        [*trace.records, TraceRecord(id=4, kind="compute", rank=0, deps=(9,))],
    )
    with pytest.raises(TraceFormatError, match="dep 9"):
        bad.validate()


def test_validation_rejects_duplicate_ids():
    trace = _tiny_trace()
    bad = with_records(
        trace, [*trace.records, TraceRecord(id=3, kind="compute", rank=1)]
    )
    with pytest.raises(TraceFormatError, match="duplicate"):
        bad.validate()


def test_validation_rejects_unknown_kind_and_rank():
    with pytest.raises(TraceFormatError, match="kind"):
        TraceRecord(id=1, kind="teleport", rank=0).validate(2)
    with pytest.raises(TraceFormatError, match="rank"):
        TraceRecord(id=1, kind="compute", rank=5).validate(2)


def test_validation_rejects_nonfinite_work():
    with pytest.raises(TraceFormatError, match="finite"):
        TraceRecord(id=1, kind="compute", rank=0, work=float("inf")).validate(2)


def test_record_order_is_canonical():
    trace = _tiny_trace()
    shuffled = with_records(trace, tuple(reversed(trace.records)))
    assert dumps(shuffled) == dumps(trace)
    assert shuffled.sha256 == trace.sha256


def test_version_is_pinned_in_meta():
    trace = _tiny_trace()
    assert trace.meta.version == TRACE_VERSION
    assert f'"version":{TRACE_VERSION}' in dumps(trace)


# -- the seal: the file's own bytes ------------------------------------------


def _rewrite(trace: Trace, render, own_seal: bool) -> str:
    """``trace``'s lines re-rendered by ``render``, sealed with the digest
    of the new bytes (``own_seal``) or with the canonical one."""
    lines = dumps(trace).splitlines()
    body = "".join(render(json.loads(line)) + "\n" for line in lines[:-1])
    digest = (
        hashlib.sha256(body.encode()).hexdigest() if own_seal else trace.sha256
    )
    trailer = json.dumps({"records": len(trace.records), "sha256": digest})
    return body + trailer + "\n"


_RESPACED = {
    "spaced": lambda obj: json.dumps(obj, sort_keys=True),
    "reordered": lambda obj: json.dumps(
        json.loads(json.dumps(obj), object_pairs_hook=lambda p: dict(p[::-1])),
        separators=(",", ":"),
    ),
}


@pytest.mark.parametrize("style", sorted(_RESPACED))
def test_non_canonical_file_sealed_over_its_own_bytes_loads(style):
    trace = _tiny_trace()
    text = _rewrite(trace, _RESPACED[style], own_seal=True)
    assert text != dumps(trace)
    loaded = loads(text)
    assert loaded == trace
    # the content address is still the canonical digest, not the file's
    assert loaded.sha256 == trace.sha256
    assert trace.sha256 not in text


@pytest.mark.parametrize("style", sorted(_RESPACED))
def test_non_canonical_file_with_canonical_seal_is_a_mismatch(style):
    trace = _tiny_trace()
    text = _rewrite(trace, _RESPACED[style], own_seal=False)
    with pytest.raises(TraceFormatError, match="sha256 mismatch"):
        loads(text)


def test_crlf_copy_is_a_mismatch(tmp_path):
    trace = _tiny_trace()
    path = tmp_path / "crlf.jsonl"
    path.write_bytes(dumps(trace).replace("\n", "\r\n").encode())
    with pytest.raises(TraceFormatError, match="sha256 mismatch"):
        load_trace(path)


def test_non_utf8_file_is_typed_error(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(dumps(_tiny_trace()).encode() + b"\xff\n")
    with pytest.raises(TraceFormatError, match="not UTF-8"):
        load_trace(path)


def test_lone_surrogate_text_is_a_mismatch():
    text = dumps(_tiny_trace()).replace('"label":""', '"label":"\ud800"', 1)
    with pytest.raises(TraceFormatError, match="sha256 mismatch"):
        loads(text)


def test_no_record_is_read_from_the_trailer_line():
    # Record 1's line split inside its label joins back into one object,
    # which leaves room for record 3 to ride on the trailer line with
    # still one object per line overall.  The trailer line is outside
    # the seal, so it is decoded on its own and the file is rejected.
    trace = _tiny_trace()
    meta, first, second, third, _ = dumps(trace).splitlines()
    cut = first.index('"label":"') + len('"label":"')
    body = "\n".join([meta, first[:cut], first[cut:], second]) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    trailer = json.dumps({"records": 3, "sha256": digest}, separators=(",", ":"))
    text = body + third + "," + trailer + "\n"
    assert len(json.loads("[" + ",".join(text.splitlines()) + "]")) == 5
    with pytest.raises(TraceFormatError, match="^trace line 2 is not valid JSON"):
        loads(text)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.jsonl")), ids=lambda p: p.stem)
def test_corpus_round_trips_byte_for_byte(path):
    assert dumps(load_trace(path)) == path.read_text()


def _count_renders(monkeypatch) -> list:
    """Record every canonical line rendering from here on."""
    calls = []
    render = schema._canonical

    def counted(payload):
        calls.append(payload)
        return render(payload)

    monkeypatch.setattr(schema, "_canonical", counted)
    return calls


def test_load_renders_nothing(tmp_path, monkeypatch):
    # The seal is checked on the file's bytes, so loading a dump_trace
    # file never re-renders a line canonically.
    path = dump_trace(generate_trace("ai_training", seed=1, ranks=3, steps=2), tmp_path / "t.jsonl")
    calls = _count_renders(monkeypatch)
    load_trace(path).validate()
    assert calls == []


def test_dumps_renders_each_line_once(monkeypatch):
    trace = generate_trace("ai_training", seed=1, ranks=3, steps=2)
    calls = _count_renders(monkeypatch)
    text = dumps(trace)
    # meta + every record + the trailer, each rendered exactly once
    assert len(calls) == len(trace.records) + 2
    del calls[:]
    # dumps sealed the lines it rendered, so the address costs nothing
    assert trace.sha256 == loads(text).sha256
    assert len(calls) == len(trace.records) + 1  # only the loaded copy's
    del calls[:]
    assert trace.sha256 == json.loads(text.splitlines()[-1])["sha256"]
    assert calls == []


def test_sha256_is_computed_once(monkeypatch):
    trace = _tiny_trace()
    calls = _count_renders(monkeypatch)
    first = trace.sha256
    assert len(calls) == len(trace.records) + 1
    del calls[:]
    assert trace.sha256 == first
    assert calls == []
    # the cached digest is the one over the canonical lines
    body = "".join(line + "\n" for line in dumps(trace).splitlines()[:-1])
    assert first == hashlib.sha256(body.encode()).hexdigest()


def test_torn_middle_line_names_its_line():
    lines = dumps(_tiny_trace()).splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]
    with pytest.raises(TraceFormatError, match="trace line 3 is not valid JSON"):
        loads("\n".join(lines) + "\n")


def test_non_object_line_names_its_line():
    lines = dumps(_tiny_trace()).splitlines()
    lines[1] = "[1, 2]"
    with pytest.raises(TraceFormatError, match="^trace line 2 is not an object$"):
        loads("\n".join(lines) + "\n")


# -- bulk validation: the same messages, in the same order --------------------

_NUMERIC = (
    "work",
    "cache_intensity",
    "mpki_base",
    "mpki_extra",
    "miss_cpi_penalty",
    "mem_bw",
    "mem_bw_extra",
    "ips",
    "mem",
)


def _damaged(**fields) -> Trace:
    """The tiny trace with record 2 (rank 1) replaced by ``fields``."""
    trace = _tiny_trace()
    first, second, third = trace.records
    return with_records(trace, [first, replace(second, **fields), third])


def _cases():
    for name in _NUMERIC:
        for value in (float("nan"), float("inf"), -1.0):
            bad = "finite" if value != -1.0 else ">= 0.0"
            yield (
                f"{name}={value}",
                {name: value},
                f"record 2: {name} must be {bad}, got {value!r}",
            )
    nested = {
        "cache": (lambda v: {"cache": (("L2", v),)}, "cache[L2]"),
        "flow": (lambda v: {"flows": (("node0", v),)}, "flow rate to 'node0'"),
        "io.write_bw": (lambda v: {"io": ("nfs", v, 0.0, 0.0)}, "io write_bw"),
        "io.read_bw": (lambda v: {"io": ("nfs", 0.0, v, 0.0)}, "io read_bw"),
        "io.meta_ops": (lambda v: {"io": ("nfs", 0.0, 0.0, v)}, "io meta_ops"),
    }
    for label, (fields, what) in nested.items():
        for value in (float("nan"), float("inf"), -1.0):
            bad = "finite" if value != -1.0 else ">= 0.0"
            yield (
                f"{label}={value}",
                fields(value),
                f"record 2: {what} must be {bad}, got {value!r}",
            )
    for value in (float("nan"), float("inf"), float("-inf")):
        yield (
            f"counter={value}",
            {"counters": (("steps", value),)},
            f"record 2: counter 'steps' must be finite, got {value!r}",
        )
    for value in (float("nan"), -0.5, 1.5):
        yield (
            f"cpu={value}",
            {"cpu": value},
            f"record 2: cpu must be in [0, 1], got {value!r}",
        )
    yield "cache level", {"cache": (("L9", 1.0),)}, "record 2: unknown cache level 'L9'"
    yield (
        "flow destination",
        {"flows": (("", 1.0),)},
        "record 2: flow destination must be non-empty",
    )
    yield "io filesystem", {"io": ("", 1.0, 0.0, 0.0)}, "record 2: io filesystem must be named"
    yield "counter key", {"counters": (("", 1.0),)}, "record 2: counter key must be non-empty"
    yield "kind", {"kind": "teleport"}, "record 2: unknown kind 'teleport'"
    yield "rank", {"rank": 2}, "record 2: rank 2 out of range [0, 2)"
    yield "start-dep", {"deps": (-3,)}, "record 2: start-dep -3 names no rank"
    yield "forward dep", {"deps": (3,)}, "record 2: dep 3 must name an earlier record"
    yield "self dep", {"deps": (2,)}, "record 2: dep 2 must name an earlier record"
    yield "zero dep", {"deps": (0,)}, "record 2: dep 0 must name an earlier record"
    # several faults: the first in TraceRecord.validate's order wins
    yield (
        "mem and work",
        {"mem": -1.0, "work": float("nan")},
        "record 2: work must be finite, got nan",
    )


@pytest.mark.parametrize(
    "fields, message",
    [case[1:] for case in _cases()],
    ids=[case[0] for case in _cases()],
)
def test_damaged_record_message(fields, message):
    with pytest.raises(TraceFormatError) as err:
        _damaged(**fields).validate()
    assert str(err.value) == message


def test_graph_messages():
    trace = _tiny_trace()
    orphan = TraceRecord(id=5, kind="compute", rank=0, deps=(4,))
    with pytest.raises(TraceFormatError) as err:
        with_records(trace, [*trace.records, orphan]).validate()
    assert str(err.value) == "record 5: dep 4 names no record"
    twin = TraceRecord(id=3, kind="compute", rank=1, work=float("nan"))
    with pytest.raises(TraceFormatError) as err:
        with_records(trace, [*trace.records, twin]).validate()
    assert str(err.value) == "duplicate record id 3"
    # a bad field is reported before a dangling dep of the same record
    both = TraceRecord(id=5, kind="compute", rank=0, deps=(4,), mem=-1.0)
    with pytest.raises(TraceFormatError) as err:
        with_records(trace, [*trace.records, both]).validate()
    assert str(err.value) == "record 5: mem must be >= 0.0, got -1.0"


@pytest.mark.parametrize(
    "fields",
    [{name: v} for name in (*_NUMERIC, "cpu") for v in (0.0, -0.0, 5e-324, 1.0)]
    + [{name: MAX} for name in _NUMERIC]
    + [{"cache": (("L3", MAX),)}, {"flows": (("r1", MAX),)}, {"io": ("nfs", MAX, 0.0, MAX)}]
    + [{"counters": (("k", v),)} for v in (-MAX, -5e-324, -0.0, MAX)],
    ids=repr,
)
def test_finite_edge_values_are_accepted(fields):
    _damaged(**fields).validate()
