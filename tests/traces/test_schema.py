"""Canonical trace serialization: round trips, torn tails, tampering."""

from __future__ import annotations

import json
from dataclasses import replace

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
from repro.traces.schema import with_records


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
