"""Observability layer: deterministic tracer, exporters, timeline explainer.

Everything here runs on simulated time only (no wall-clock reads — the
determinism linter holds this package to DET102 with zero
suppressions), so same-seed runs produce byte-identical traces. Counters
are not kept here: they are a fold over the event stream in
:mod:`repro.serving.metrics`, which also renders them as Prometheus text.
"""

from repro.obs.export import (
    dumps_jsonl,
    load_jsonl,
    to_chrome,
    validate_chrome,
    write_chrome,
    write_jsonl,
)
from repro.obs.timeline import (
    CommTotal,
    RequestTimeline,
    TTFTBreakdown,
    build_timeline,
    comm_totals,
    events_for_request,
    explain_ttft,
    format_explanation,
    reconcile,
    reconcile_fleet,
    replay,
    request_ids,
)
from repro.obs.trace import NULL_TRACER, EventStream, RecordingTracer, TraceEvent, Tracer

__all__ = [
    "CommTotal",
    "EventStream",
    "NULL_TRACER",
    "RecordingTracer",
    "RequestTimeline",
    "TTFTBreakdown",
    "TraceEvent",
    "Tracer",
    "build_timeline",
    "comm_totals",
    "dumps_jsonl",
    "events_for_request",
    "explain_ttft",
    "format_explanation",
    "load_jsonl",
    "reconcile",
    "reconcile_fleet",
    "replay",
    "request_ids",
    "to_chrome",
    "validate_chrome",
    "write_chrome",
    "write_jsonl",
]
