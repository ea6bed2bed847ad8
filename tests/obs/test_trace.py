"""Unit tests for the tracer: null behavior, scoping, wire round-trip."""

import pytest

from repro.obs import NULL_TRACER, EventStream, RecordingTracer, TraceEvent


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.instant("admit", 1.0, request_id=3)
        NULL_TRACER.span("prefill_round", 1.0, 2.0, pool="prefill")
        # nothing recorded anywhere, nothing raised

    def test_scoped_returns_itself(self):
        assert NULL_TRACER.scoped(replica=2) is NULL_TRACER
        assert NULL_TRACER.scoped(replica=2).scoped(pool="wire") is NULL_TRACER


class TestRecordingTracer:
    def test_ident_fields_lift_rest_to_attrs(self):
        t = RecordingTracer()
        t.instant(
            "preempt", 4.0,
            replica=1, pool="prefill", request_id=7, seq_id=2,
            remedy="trim", tokens=16,
        )
        [e] = t.events
        assert (e.replica, e.pool, e.request_id, e.seq_id) == (1, "prefill", 7, 2)
        assert e.attrs == {"remedy": "trim", "tokens": 16}
        assert e.phase == "instant" and e.dur == 0.0

    def test_span_carries_duration(self):
        t = RecordingTracer()
        t.span("decode_round", 1.0, 0.5, pool="decode")
        [e] = t.events
        assert e.phase == "span" and e.dur == 0.5

    def test_emission_order_preserved(self):
        t = RecordingTracer()
        for i in range(5):
            t.instant("decode_token", float(i), request_id=i)
        assert [e.t for e in t.events] == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestScoping:
    def test_scope_stamps_defaults(self):
        t = RecordingTracer()
        t.scoped(replica=3).instant("admit", 1.0, request_id=0)
        assert t.events[0].replica == 3

    def test_emit_site_wins_over_scope(self):
        t = RecordingTracer()
        t.scoped(pool="wire").instant("kv_transfer", 1.0, pool="decode")
        assert t.events[0].pool == "decode"

    def test_nested_scopes_merge_inner_wins(self):
        t = RecordingTracer()
        inner = t.scoped(replica=1, pool="prefill").scoped(pool="wire")
        inner.instant("kv_transfer_schedule", 2.0, seq_id=5)
        [e] = t.events
        assert (e.replica, e.pool, e.seq_id) == (1, "wire", 5)

    def test_scoped_view_shares_event_list(self):
        t = RecordingTracer()
        view = t.scoped(replica=0)
        view.instant("admit", 1.0)
        assert view.events is t.events
        assert len(t.events) == 1


class TestEventStream:
    """The runtime's one emit point: fold first, then the recorder."""

    @staticmethod
    def stream(recorder=None):
        seen = []
        return EventStream(lambda name, dur, fields: seen.append((name, dur, dict(fields))), recorder), seen

    def test_folds_every_event_with_no_recorder(self):
        stream, seen = self.stream()
        assert stream.enabled is False
        stream.instant("prefix_miss", 1.0, pool="prefill", request_id=3)
        stream.span("swap_in", 2.0, 0.25, tokens=8)
        assert seen == [
            ("prefix_miss", 0.0, {"pool": "prefill", "request_id": 3}),
            ("swap_in", 0.25, {"tokens": 8}),
        ]

    def test_enabled_means_a_recorder_is_attached(self):
        assert self.stream(NULL_TRACER)[0].enabled is False
        assert self.stream(RecordingTracer())[0].enabled is True

    def test_records_exactly_what_a_bare_recorder_would(self):
        direct, via = RecordingTracer(), RecordingTracer()
        stream, seen = self.stream(via)
        for tracer in (direct, stream):
            tracer.span("swap_out", 3.0, 0.5, pool="decode", request_id=1, seq_id=1, tokens=64)
            tracer.instant("finish", 4.0, request_id=1, seq_id=1, status="finished", gaps=0)
        assert via.events == direct.events
        assert [name for name, _, _ in seen] == ["swap_out", "finish"]

    def test_fold_runs_before_the_recorder_sees_the_event(self):
        """A fold that rejects an event keeps it out of the trace too."""
        recorder = RecordingTracer()

        def fold(name, dur, fields):
            raise ValueError("rejected")

        with pytest.raises(ValueError):
            EventStream(fold, recorder).instant("prefix_hit", 1.0, reused=0)
        assert recorder.events == []

    def test_scoped_view_shares_the_fold_and_stamps_the_recording(self):
        recorder = RecordingTracer()
        stream, seen = self.stream(recorder.scoped(replica=2))
        wire = stream.scoped(pool="wire")
        wire.instant("kv_transfer_cancel", 5.0, request_id=9, refunded=True)
        assert seen == [("kv_transfer_cancel", 0.0, {"request_id": 9, "refunded": True})]
        [e] = recorder.events
        assert (e.replica, e.pool, e.request_id, e.attrs) == (2, "wire", 9, {"refunded": True})
        # untraced, the view still folds
        bare, seen = self.stream()
        bare.scoped(pool="wire").instant("kv_transfer_cancel", 5.0, refunded=False)
        assert [name for name, _, _ in seen] == ["kv_transfer_cancel"]

    def test_mutant_scoped_view_without_the_fold_dies(self, monkeypatch):
        monkeypatch.setattr(
            EventStream, "scoped", lambda self, **defaults: self._recorder.scoped(**defaults)
        )
        with pytest.raises(AssertionError):
            self.test_scoped_view_shares_the_fold_and_stamps_the_recording()


class TestWireFormat:
    def test_round_trip(self):
        original = TraceEvent(
            name="swap_out", phase="span", t=3.0, dur=0.25,
            replica=2, pool="decode", request_id=9, seq_id=4,
            attrs={"tokens": 64},
        )
        assert TraceEvent.from_dict(original.to_dict()) == original

    def test_nones_dropped_and_instant_has_no_dur(self):
        d = TraceEvent(name="admit", phase="instant", t=1.0).to_dict()
        assert d == {"name": "admit", "phase": "instant", "t": 1.0}

    def test_span_keeps_dur(self):
        d = TraceEvent(name="x", phase="span", t=1.0, dur=2.0).to_dict()
        assert d["dur"] == 2.0
