"""repro.obs — structured observability for the simulated stack.

The subsystem has four layers:

:mod:`repro.obs.spans`
    :class:`SpanCollector` and the span/event records every subsystem
    emits into (simulated-time, causally linked, zero-cost detached).
:mod:`repro.obs.export`
    Chrome trace-event JSON (Perfetto / ``chrome://tracing``) and JSONL
    exporters, plus the schema validator CI runs on trace artefacts.
:mod:`repro.obs.manifest`
    Deterministic run manifests: seed, config, version, injection labels,
    engine counters and series checksums as canonical JSON.
:mod:`repro.obs.observability`
    The :class:`Observability` handle unifying SimStats, the metric
    service and the span timeline behind one attach/detach pair, and
    :func:`observe`, the one rule by which a registry runner attaches it.
:mod:`repro.obs.stream`
    The :class:`ObsSink` protocol and bounded-memory incremental writers
    that flush spans/samples/counters during the run, byte-identical to
    the batch exporters.
:mod:`repro.obs.analyze`
    The trace-query engine: filtering, duration stats, utilization
    rollups and critical-path extraction over the causal span links.
:mod:`repro.obs.diff`
    Run-directory comparison with divergence localization (manifest →
    series → sample index → enclosing span), behind ``repro diff``.
:mod:`repro.obs.report`
    Deterministic run summaries plus wall-clock self-profiling per
    subsystem, behind ``repro report``.

See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from repro.obs.export import (
    assert_valid_chrome_trace,
    chrome_trace,
    jsonl_lines,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl_trace,
)
from repro.obs.manifest import (
    build_manifest,
    injection_labels,
    manifest_text,
    series_checksum,
    service_checksums,
    text_checksum,
    write_manifest,
)
from repro.obs.observability import TRACE_FORMATS, ObsHook, Observability, observe
from repro.obs.spans import InstantEvent, Span, SpanCollector
from repro.obs.stream import (
    ChromeStreamWriter,
    JsonlStreamWriter,
    MetricJsonlStreamWriter,
    ObsSink,
    RunStreamer,
)

__all__ = [
    "ChromeStreamWriter",
    "InstantEvent",
    "JsonlStreamWriter",
    "MetricJsonlStreamWriter",
    "ObsHook",
    "ObsSink",
    "Observability",
    "RunStreamer",
    "Span",
    "SpanCollector",
    "TRACE_FORMATS",
    "assert_valid_chrome_trace",
    "build_manifest",
    "chrome_trace",
    "injection_labels",
    "jsonl_lines",
    "manifest_text",
    "observe",
    "series_checksum",
    "service_checksums",
    "text_checksum",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl_trace",
    "write_manifest",
]
