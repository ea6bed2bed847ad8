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
    replay,
    request_ids,
)
from repro.serving.metrics import FleetMetrics, ServingMetrics

from helpers import finish_fields, run_traced

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
        assert sum(bd.components.values()) == bd.ttft

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
        assert sum(bd.components.values()) == bd.ttft

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
        assert sum(bd.components.values()) == bd.ttft

    def test_backoff_window_claimed(self):
        events = [
            ev("admit", 0.0, request_id=0, attrs={"arrival": 0.0}),
            ev("fault_retry", 1.0, request_id=0, attrs={"attempt": 1, "backoff": 0.5}),
            ev("first_token", 2.0, request_id=0, attrs={"ttft": 2.0}),
        ]
        bd = explain_ttft(events, 0)
        assert bd.components["fault_backoff"] == 0.5
        assert bd.components["queue_wait"] == 1.5
        assert sum(bd.components.values()) == bd.ttft

    def test_no_first_token_raises(self):
        events = [ev("admit", 0.0, request_id=0, attrs={"arrival": 0.0})]
        with pytest.raises(ValueError, match="streamed no token"):
            explain_ttft(events, 0)

    def test_format_names_the_prefix_a_request_adopted(self):
        """The admitted line reports the request's own ``prefix_hit``:
        how many tokens it reused and from which donor."""
        case = dict(
            seed=20250927, n_replicas=1, policy="prefix", disaggregate=False,
            preemption="recompute", prefix_cache=True, chunk=8, capacity=None,
            think=1.0, shared=True, sessions=4, turns=1, faults=None,
        )
        events = run_traced(case)[0].events
        hits = [e for e in events if e.name == "prefix_hit"]
        assert hits
        for hit in hits:
            text = format_explanation(events, hit.request_id)
            reused, donor = hit.attrs["reused"], hit.attrs["donor"]
            assert f", {reused} prefix tokens cached (donor seq {donor})" in text
        missed = next(e.request_id for e in events if e.name == "prefix_miss")
        assert "prefix tokens cached" not in format_explanation(events, missed)

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

    @staticmethod
    def finish(m=None, **fields):
        """A ``finish`` event as recorded (labels lifted out of the attrs),
        folded live into ``m`` first when given."""
        fields = finish_fields(request_id=0, **fields)
        if m is not None:
            m.fold("finish", 0.0, dict(fields))
        labels = {k: fields.pop(k) for k in ("request_id", "seq_id")}
        return ev("finish", 5.0, attrs=fields, **labels)

    def test_ttft_list_equality(self):
        m = ServingMetrics()
        self.finish(m, ttft=1.0)
        assert reconcile([self.finish(ttft=1.0)], m) == []
        drift = reconcile([self.finish(ttft=1.0 + 1e-12)], m)
        assert len(drift) == 1 and drift[0].startswith("ttft_samples:")

    def test_a_ttit_value_mismatch_is_drift(self):
        """Every gap value is on the trace, so a changed value is drift
        even when the count agrees."""
        m = ServingMetrics()
        self.finish(m, tokens=3, ttit=[0.01, 0.02])
        assert reconcile([self.finish(tokens=3, ttit=[0.01, 0.02])], m) == []
        drift = reconcile([self.finish(tokens=3, ttit=[0.01, 0.03])], m)
        assert len(drift) == 1 and drift[0].startswith("ttit_samples:")

    def test_finish_replays_under_its_labels(self):
        """The recorder lifts ``seq_id`` out of the attrs; replay puts it
        back, so the ledgered turn keeps its conversation."""
        m = ServingMetrics()
        self.finish(m, seq_id=3, prompt=9, tokens=2, generated=[4, 5])
        event = self.finish(seq_id=3, prompt=9, tokens=2, generated=[4, 5])
        assert "seq_id" not in event.attrs and event.seq_id == 3
        assert reconcile([event], m) == []
        assert [t.seq_id for t in replay([event], ServingMetrics()).turns] == [3]
        drift = reconcile([self.finish(seq_id=4, prompt=9, tokens=2, generated=[4, 5])], m)
        assert len(drift) == 1 and drift[0].startswith("turns:")

    def test_peak_kv_is_replayed_per_pool(self):
        m = ServingMetrics()
        m.fold("decode_round", 0.5, {"pool": "decode", "kv": {"decode": 0.5}})
        events = [ev("decode_round", 0.0, phase="span", dur=0.5, pool="decode",
                     attrs={"kv": {"decode": 0.5}})]
        assert reconcile(events, m) == []
        events[0].attrs["kv"]["decode"] = 0.25
        drift = reconcile(events, m)
        assert len(drift) == 1 and drift[0].startswith("peak_kv_utilization:")

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
