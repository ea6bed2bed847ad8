"""Unit tests for timeline reconstruction, TTFT decomposition, and the
trace/metrics reconciliation checks (on hand-built event streams — the
property suite covers real runtime traces)."""

import pytest

from repro.obs import (
    TraceEvent,
    build_timeline,
    explain_ttft,
    format_explanation,
    reconcile,
    reconcile_fleet,
    request_ids,
)
from repro.serving.metrics import FleetMetrics, ServingMetrics


PREEMPT = {"remedy": "recompute", "evicted": 64, "victim": "active"}


def ev(name, t, phase="instant", dur=0.0, **kw):
    attrs = kw.pop("attrs", {})
    return TraceEvent(name=name, phase=phase, t=t, dur=dur, attrs=attrs, **kw)


def simple_request(rid=0, arrival=0.0, admit=1.0, chunks=((1.0, 2.0),), ft=4.0):
    events = [
        ev("admit", admit, request_id=rid, seq_id=rid, attrs={"arrival": arrival}),
    ]
    for start, dur in chunks:
        events.append(
            ev("prefill_chunk", start, phase="span", dur=dur, request_id=rid,
               pool="prefill")
        )
    events.append(ev("first_token", ft, request_id=rid, attrs={"ttft": ft - arrival}))
    return events


class TestBuildTimeline:
    def test_unknown_request_raises(self):
        with pytest.raises(ValueError, match="does not appear"):
            build_timeline([ev("admit", 1.0, request_id=0)], 99)

    def test_arrival_from_admit_attrs(self):
        tl = build_timeline(simple_request(arrival=0.25), 0)
        assert tl.arrival == 0.25
        assert tl.status == "finished" if tl.finish else "incomplete"

    def test_request_ids_first_seen_order(self):
        events = [
            ev("admit", 2.0, request_id=5),
            ev("admit", 1.0, request_id=3),
            ev("first_token", 3.0, request_id=5),
        ]
        assert request_ids(events) == [5, 3]


class TestExplainTtft:
    def test_pure_compute_request(self):
        """One chunk spanning [1, 3], first token at 4: 2s compute, 1s
        initial queue wait + 1s tail — all folded into queue_wait."""
        bd = explain_ttft(simple_request(chunks=((1.0, 2.0),), ft=4.0), 0)
        assert bd.ttft == 4.0
        assert bd.components["prefill_compute"] == 2.0
        assert bd.components["queue_wait"] == 2.0
        assert bd.total == bd.ttft

    def test_overlapping_claims_resolved_by_priority(self):
        """A transfer stall overlapping a prefill chunk never double
        counts: compute wins the overlap."""
        events = simple_request(chunks=((1.0, 2.0),), ft=4.0)
        events.append(
            ev("transfer_stall", 2.0, phase="span", dur=1.5, request_id=0,
               pool="decode")
        )
        bd = explain_ttft(events, 0)
        assert bd.components["prefill_compute"] == 2.0
        assert bd.components["transfer_stall"] == 0.5  # only the [3, 3.5] tail
        assert bd.total == bd.ttft

    def test_unclaimed_time_after_preempt_is_requeue(self):
        events = [
            ev("admit", 0.0, request_id=0, attrs={"arrival": 0.0}),
            ev("prefill_chunk", 0.0, phase="span", dur=1.0, request_id=0),
            ev("preempt", 1.0, request_id=0, attrs={"remedy": "recompute"}),
            ev("prefill_chunk", 3.0, phase="span", dur=1.0, request_id=0),
            ev("first_token", 4.0, request_id=0, attrs={"ttft": 4.0}),
        ]
        bd = explain_ttft(events, 0)
        assert bd.components["prefill_compute"] == 2.0
        assert bd.components["preempt_requeue"] == 2.0
        assert bd.components["queue_wait"] == 0.0
        assert bd.total == bd.ttft

    def test_backoff_window_claimed(self):
        events = [
            ev("admit", 0.0, request_id=0, attrs={"arrival": 0.0}),
            ev("fault_retry", 1.0, request_id=0, attrs={"attempt": 1, "backoff": 0.5}),
            ev("first_token", 2.0, request_id=0, attrs={"ttft": 2.0}),
        ]
        bd = explain_ttft(events, 0)
        assert bd.components["fault_backoff"] == 0.5
        assert bd.components["queue_wait"] == 1.5
        assert bd.total == bd.ttft

    def test_no_first_token_raises(self):
        events = [ev("admit", 0.0, request_id=0, attrs={"arrival": 0.0})]
        with pytest.raises(ValueError, match="streamed no token"):
            explain_ttft(events, 0)

    def test_format_renders_shed_requests(self):
        events = [
            ev("admit", 0.0, request_id=0, attrs={"arrival": 0.0}),
            ev("shed", 5.0, request_id=0, attrs={"status": "timed_out"}),
        ]
        text = format_explanation(events, 0)
        assert "shed t=5.000000 (timed_out)" in text


class TestReconcile:
    def test_empty_trace_empty_metrics_reconcile(self):
        assert reconcile([], ServingMetrics()) == []

    def test_matching_preemption_reconciles(self):
        m = ServingMetrics()
        m.fold("preempt", 0.0, PREEMPT)
        events = [ev("preempt", 1.0, request_id=0, attrs=PREEMPT)]
        assert reconcile(events, m) == []

    def test_missing_event_is_drift(self):
        """Folded live but absent from the trace (an event dropped by the
        recorder, or a counter bumped around the stream)."""
        m = ServingMetrics()
        m.fold("preempt", 0.0, PREEMPT)
        assert reconcile([], m) == [
            "preemptions: trace-derived 0 != metrics 1",
            "evicted_tokens: trace-derived 0 != metrics 64",
        ]

    def test_extra_event_is_drift(self):
        events = [
            ev("preempt", 1.0, attrs={"remedy": "recompute", "evicted": 64})
        ]
        drift = reconcile(events, ServingMetrics())
        assert any("preemptions" in d for d in drift)

    def test_float_totals_must_match_exactly(self):
        m = ServingMetrics()
        m.fold("transfer_stall", 0.1, {})
        m.fold("transfer_stall", 0.2, {})
        good = [
            ev("transfer_stall", 1.0, phase="span", dur=0.1, pool="decode"),
            ev("transfer_stall", 2.0, phase="span", dur=0.2, pool="decode"),
        ]
        assert reconcile(good, m) == []
        # a nearby-but-different total is drift — no tolerance
        bad = [
            ev("transfer_stall", 1.0, phase="span", dur=0.1, pool="decode"),
            ev("transfer_stall", 2.0, phase="span", dur=0.2 + 1e-12, pool="decode"),
        ]
        drift = reconcile(bad, m)
        assert any("transfer_stall_s" in d for d in drift)

    def test_ttft_list_equality(self):
        m = ServingMetrics()
        m.record_ttit(0.01)
        events = [
            ev("finish", 5.0, request_id=0,
               attrs={"status": "finished", "tokens": 2, "gaps": 1}),
        ]
        drift = reconcile(events, m)
        # a finish the live metrics never folded: completed_requests drifts
        assert any("completed_requests" in d for d in drift)

    def test_ttit_values_are_held_to_the_announced_count(self):
        """The gap values are a direct writer's; `finish` says how many."""
        m = ServingMetrics()
        finish = {"status": "finished", "tokens": 3, "gaps": 2}
        m.fold("finish", 0.0, finish)
        m.record_ttit(0.01)
        events = [ev("finish", 5.0, request_id=0, attrs=finish)]
        assert reconcile(events, m) == ["ttit_sample_count: trace-derived 2 != metrics 1"]
        m.record_ttit(0.01)
        assert reconcile(events, m) == []

    def test_pool_rounds_and_busy_seconds_reconcile_per_pool(self):
        m = ServingMetrics()
        m.fold("prefill_round", 2.0, {})
        m.fold("decode_round", 0.5, {})
        events = [
            ev("prefill_round", 0.0, phase="span", dur=2.0, pool="prefill"),
            ev("decode_round", 2.0, phase="span", dur=0.5, pool="decode"),
        ]
        assert reconcile(events, m) == []
        drift = reconcile(events[:1], m)
        assert any(d.startswith("pool_rounds:") for d in drift)
        assert any(d.startswith("pool_busy_s:") for d in drift)


class TestReconcileFleet:
    def test_unlabeled_events_flagged(self):
        fm = FleetMetrics()
        fm.add_replica(0, ServingMetrics(), 1.0)
        drift = reconcile_fleet([ev("admit", 1.0, request_id=0)], fm)
        assert any("without a replica label" in d for d in drift)

    def test_route_events_excluded(self):
        fm = FleetMetrics()
        fm.add_replica(0, ServingMetrics(), 1.0)
        route = ev("route", 1.0, request_id=0, attrs={"policy": "prefix"})
        assert reconcile_fleet([route], fm) == []

    def test_stray_replica_flagged(self):
        fm = FleetMetrics()
        fm.add_replica(0, ServingMetrics(), 1.0)
        drift = reconcile_fleet(
            [ev("admit", 1.0, replica=7, request_id=0)], fm
        )
        assert any("unknown replicas [7]" in d for d in drift)

    def test_per_replica_drift_is_attributed(self):
        fm = FleetMetrics()
        m = ServingMetrics()
        m.fold("preempt", 0.0, PREEMPT)
        fm.add_replica(0, m, 1.0)
        fm.add_replica(1, ServingMetrics(), 1.0)
        drift = reconcile_fleet([], fm)
        assert any(d.startswith("replica 0:") for d in drift)
        assert not any(d.startswith("replica 1:") for d in drift)
