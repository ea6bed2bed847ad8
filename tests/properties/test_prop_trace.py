"""Property tests: trace determinism and trace/metrics reconciliation.

The observability layer's two tier-1 invariants (PR 10):

- **Trace determinism** — every clock is simulated, so the recorded
  scheduling trace is a pure function of the configuration: running the
  same seeded workload twice through freshly built runtimes yields
  **byte-identical** JSONL serializations. Quantified over deployment
  shape (colocated / disaggregated), remedies, prefix cache, injected
  fault schedules, and multi-replica fleets with every routing policy.
- **Reconciliation** — every value a :class:`ServingMetrics` holds
  (counters, stall totals, TTFT/TTIT samples, the turn ledger, peak KV)
  is *exactly* derivable from the trace: it is a fold over the one event
  stream the runtime emits through, so replaying the recorded events
  reproduces it bit-for-bit (no tolerance), traced or not. Fleet runs
  reconcile per replica through the scoped labels.
- **Explain exactness** — the TTFT decomposition is an exact partition:
  components sum (in insertion order) to the recorded TTFT *as floats*,
  and the TTFT the trace reconstructs equals the one the metrics
  recorded.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import ROUTING_POLICIES
from repro.obs import (
    TraceEvent,
    dumps_jsonl,
    explain_ttft,
    format_explanation,
    reconcile,
    reconcile_fleet,
    request_ids,
    to_chrome,
    validate_chrome,
)
from repro.serving.request import TurnRecord

from helpers import run_traced

SETTINGS = dict(max_examples=8, deadline=None)


def _bump_counter(m):
    m._counters["preemptions"] += 1


def _bump_ttit(m):
    if m.ttit_samples:
        m.ttit_samples[-1] += 1.0  # a value changed, the count kept
    else:
        m.ttit_samples.append(1.0)


def _append_turn(m):
    m.turns.append(TurnRecord(0, 1, 0, 0, "pass-kv"))


def _raise_peak(m):
    pool = next(iter(m._peak_kv), "prefill")
    m._peak_kv[pool] = m._peak_kv.get(pool, 0.0) + 1.0


#: One value of each kind the fold owns, written around the stream: the
#: drift label it must show up under -> the write.
_AROUND_THE_STREAM = {
    "preemptions": _bump_counter,
    "ttit_samples": _bump_ttit,
    "turns": _append_turn,
    "peak_kv_utilization": _raise_peak,
}


def _drift(events, runtime, fleet, report):
    if fleet is None:
        return reconcile(events, runtime.metrics)
    return reconcile_fleet(events, report.metrics)


@st.composite
def trace_case(draw):
    """One serving configuration: traffic x shape x remedy x faults x
    replica count. Returns a dict that fully determines a run, so the
    same case can be executed twice for the byte-identity check."""
    seed = draw(st.integers(0, 2**31 - 1))
    case = dict(
        seed=seed,
        n_replicas=draw(st.integers(1, 3)),
        policy=draw(st.sampled_from(ROUTING_POLICIES)),
        disaggregate=draw(st.booleans()),
        preemption=draw(st.sampled_from(["recompute", "trim", "swap"])),
        prefix_cache=draw(st.booleans()),
        chunk=draw(st.sampled_from([5, 16])),
        capacity=draw(st.sampled_from([None, 144])),
        think=draw(st.sampled_from([0.0, 2.5])),
        shared=draw(st.booleans()),
        sessions=draw(st.integers(2, 4)),
        turns=draw(st.integers(1, 2)),
        faults=None,
    )
    if draw(st.booleans()):
        case["faults"] = dict(
            seed=draw(st.integers(0, 2**16)),
            transfer_fail_rate=draw(st.sampled_from([0.0, 0.3])),
            swap_loss_rate=draw(st.sampled_from([0.0, 0.3])),
            pool_resets=draw(st.integers(0, 1)),
            deadline_s=draw(st.sampled_from([None, 25.0])),
        )
    return case


class TestTraceDeterminism:
    @given(trace_case())
    @settings(**SETTINGS)
    def test_same_seed_trace_is_byte_identical(self, case):
        """Two fresh runs of one configuration serialize to the same
        bytes — JSONL and Chrome alike (the chrome object is derived
        deterministically from the events)."""
        first, _, _, _ = run_traced(case)
        second, _, _, _ = run_traced(case)
        a, b = dumps_jsonl(first.events), dumps_jsonl(second.events)
        assert a == b, (
            f"same-seed traces differ ({len(first.events)} vs "
            f"{len(second.events)} events) for case {case}"
        )
        assert to_chrome(first.events) == to_chrome(second.events)

    @given(trace_case())
    @settings(**SETTINGS)
    def test_chrome_export_validates(self, case):
        """Every recorded shape exports a structurally valid Chrome
        trace: parseable container, non-negative spans, and proper
        nesting on every (pid, tid) track."""
        tracer, _, _, _ = run_traced(case)
        problems = validate_chrome(to_chrome(tracer.events))
        assert problems == [], f"case {case}"


class TestReconciliation:
    @given(trace_case())
    @settings(**SETTINGS)
    def test_trace_reconciles_exactly_with_metrics(self, case):
        """Every counter / stall-second / TTFT-sample population in the
        metrics is exactly derivable from the trace (per replica in a
        fleet). Any drift means something wrote a counter around the
        event stream."""
        tracer, runtime, fleet, report = run_traced(case)
        assert _drift(tracer.events, runtime, fleet, report) == [], f"case {case}"

    @pytest.mark.parametrize("label", sorted(_AROUND_THE_STREAM))
    @given(case=trace_case())
    @settings(**SETTINGS)
    def test_a_counter_bumped_around_the_stream_is_drift(self, label, case):
        """Teeth, way 1: the live metrics hold something no event carried
        — a counter, a TTIT value at an unchanged count, a ledger entry or
        a pool's peak KV."""
        tracer, runtime, fleet, report = run_traced(case)
        live = runtime.metrics if fleet is None else report.metrics.replicas[0]
        _AROUND_THE_STREAM[label](live)
        drift = _drift(tracer.events, runtime, fleet, report)
        assert len(drift) == 1 and f"{label}: trace-derived" in drift[0], f"case {case}: {drift}"

    @given(trace_case())
    @settings(**SETTINGS)
    def test_an_event_the_runtime_never_folded_is_drift(self, case):
        """Teeth, way 2: the trace holds an event the live fold never saw."""
        tracer, runtime, fleet, report = run_traced(case)
        replica = None if fleet is None else 0
        forged = TraceEvent(
            "swap_in", "span", t=1.0, dur=0.125, replica=replica, pool="prefill",
            request_id=0, seq_id=0, attrs={"tokens": 7},
        )
        drift = _drift(tracer.events + [forged], runtime, fleet, report)
        assert sorted(d.split(":")[-2].strip() for d in drift) == [
            "swap_stall_s", "swapped_in_tokens", "swaps_in",
        ], f"case {case}: {drift}"

    @given(trace_case())
    @settings(**SETTINGS)
    def test_counters_do_not_depend_on_a_recorder(self, case):
        """The same case with no recorder attached exposes byte-identical
        metrics: every counted event is folded whether or not anything
        records it (a counted emit left behind `if tracer.enabled:` reads
        zero here)."""
        _, traced, _, traced_report = run_traced(case)
        _, bare, fleet, bare_report = run_traced(case, record=False)
        if fleet is None:
            assert bare.metrics.prometheus_text() == traced.metrics.prometheus_text(), f"case {case}"
        else:
            assert (
                bare_report.metrics.prometheus_text() == traced_report.metrics.prometheus_text()
            ), f"case {case}"
        assert bare_report.makespan == traced_report.makespan


class TestExplain:
    @given(trace_case())
    @settings(**SETTINGS)
    def test_components_sum_exactly_to_recorded_ttft(self, case):
        """For every request that streamed a first token: the explain
        decomposition's components sum to its TTFT exactly (float
        equality, no tolerance), every component is non-negative up to
        the closing term, and the reconstruction renders."""
        tracer, _, _, report = run_traced(case)
        finished = {
            e.request_id
            for e in tracer.events
            if e.name == "finish" and "ttft" in e.attrs
        }
        recorded = {
            e.request_id: e.attrs["ttft"]
            for e in tracer.events
            if e.name == "finish" and "ttft" in e.attrs
        }
        if case["faults"] is None:
            assert finished, "a fault-free case completes every request"
        for rid in sorted(finished):
            bd = explain_ttft(tracer.events, rid)
            assert sum(bd.components.values()) == bd.ttft, (
                f"request {rid}: components sum {sum(bd.components.values())!r} != "
                f"TTFT {bd.ttft!r} (case {case})"
            )
            assert bd.ttft == recorded[rid], (
                f"request {rid}: trace-reconstructed TTFT {bd.ttft!r} != "
                f"metrics-recorded {recorded[rid]!r}"
            )
            for name, v in bd.components.items():
                if name != "queue_wait":
                    assert v >= 0.0, f"negative {name} for request {rid}"
            text = format_explanation(tracer.events, rid)
            assert f"request {rid}" in text
            assert "TTFT" in text

    @given(trace_case())
    @settings(**SETTINGS)
    def test_every_request_is_reconstructible(self, case):
        """request_ids covers every id the report knows, and each one
        formats without error (finished or shed alike)."""
        tracer, _, _, report = run_traced(case)
        ids = set(request_ids(tracer.events))
        assert set(report.records) <= ids
        for rid in sorted(ids):
            assert format_explanation(tracer.events, rid)
