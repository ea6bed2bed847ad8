"""Tests for serving metrics aggregation."""

import math
import re

import pytest

from repro.serving.metrics import FleetMetrics, ServingMetrics
from repro.serving.request import TurnRecord

from helpers import finish_fields


def fold(m, name, dur=0.0, **fields):
    """One event into the fold, the way the runtime's stream hands it over."""
    m.fold(name, dur, fields)


def finished(m, ttft=None, **fields):
    """One ``finish``: a turn of conversation 0 that streamed nothing,
    unless ``fields`` say otherwise."""
    if ttft is not None:
        fields["ttft"] = ttft
    fold(m, "finish", **finish_fields(**fields))


def folded(m):
    """Every fold-owned value that is not at its zero."""
    return {k: v for k, v in m.folded_state().items() if v not in (0, 0.0, [], {})}


class TestServingMetrics:
    def test_token_accounting(self):
        m = ServingMetrics()
        finished(m, prompt=100, tokens=5)
        finished(m, prompt=10, cached=105, tokens=3)
        assert m.total_prompt_tokens == 110
        assert m.total_generated_tokens == 8

    def test_cache_hit_rate(self):
        m = ServingMetrics()
        finished(m, prompt=100)             # hit rate 0
        finished(m, prompt=50, cached=50)   # hit rate 0.5
        assert m.mean_cache_hit_rate == pytest.approx(0.25)

    def test_algo_counts(self):
        m = ServingMetrics()
        finished(m, prompt=10, algo="pass-kv")
        finished(m, prompt=1, cached=100, algo="pass-q")
        finished(m, prompt=1, cached=200, algo="pass-q")
        assert m.algo_counts() == {"pass-kv": 1, "pass-q": 2}

    def test_latency_percentiles(self):
        m = ServingMetrics()
        for t in [1.0, 2.0, 3.0]:
            finished(m, ttft=t, ttit=[t / 100])
        assert m.percentile_ttft(50) == pytest.approx(2.0)
        assert m.percentile_ttit(100) == pytest.approx(0.03)

    def test_empty_percentiles_are_nan(self):
        assert math.isnan(ServingMetrics().percentile_ttft(50))
        assert math.isnan(ServingMetrics().percentile_ttit(99))

    def test_tail_percentiles(self):
        m = ServingMetrics()
        for t in range(1, 101):
            finished(m, ttft=float(t))
        assert m.percentile_ttft(95) == pytest.approx(95.05)
        assert m.percentile_ttft(99) == pytest.approx(99.01)

    def test_preemption_accounting(self):
        m = ServingMetrics()
        assert m.preemptions == 0 and m.evicted_tokens == 0
        fold(m, "preempt", remedy="recompute", evicted=120, victim="active")
        fold(m, "preempt", remedy="recompute", evicted=8, victim="idle")
        assert folded(m) == {"preemptions": 2, "evicted_tokens": 128}
        assert "preemptions: 2 (128 KV tokens evicted)" in m.summary()

    def test_ttit_stream(self):
        m = ServingMetrics()
        finished(m, ttit=[0.01, 0.02])
        finished(m, ttit=[0.03])
        assert m.ttit_samples == [0.01, 0.02, 0.03]  # stream order, across finishes
        assert m.percentile_ttit(50) == pytest.approx(0.02)

    def test_summary_renders(self):
        m = ServingMetrics()
        finished(m, ttft=1.5, prompt=10, ttit=[0.05])
        text = m.summary()
        assert "turns: 1" in text
        assert "TTFT p50/p95/p99" in text
        assert "TTIT p50/p95/p99" in text

    def test_empty_summary(self):
        text = ServingMetrics().summary()
        assert "turns: 0" in text
        assert "TTFT" not in text
        assert "KV transfers" not in text
        assert "pool busy" not in text

    def test_transfer_accounting(self):
        m = ServingMetrics()
        fold(m, "kv_transfer", dur=0.3, tokens=40, landed_at=1.0)
        fold(m, "kv_transfer", dur=0.1, tokens=8, landed_at=2.0)
        fold(m, "kv_transfer_refused")
        fold(m, "kv_transfer_cancel", refunded=False)
        fold(m, "transfer_stall", dur=2.5)
        fold(m, "transfer_stall", dur=0.5)
        assert folded(m) == {
            "transfers": 2,
            "transferred_kv_tokens": 48,
            "transfer_refusals": 1,
            "transfers_cancelled": 1,
            "transfer_stall_s": 3.0,
        }
        assert "KV transfers: 2 (48 tokens, 1 refused, 1 cancelled" in m.summary()

    def test_refunded_cancel_counts_once(self):
        """A refunded cancel is a cancel AND a refund — never double-
        counted into either tally, and the refunded subset can never
        exceed the cancel total."""
        m = ServingMetrics()
        fold(m, "kv_transfer_cancel", refunded=True)
        fold(m, "kv_transfer_cancel", refunded=False)
        fold(m, "kv_transfer_cancel", refunded=False)
        assert folded(m) == {"transfers_cancelled": 3, "transfers_refunded": 1}
        assert m.transfers_refunded <= m.transfers_cancelled
        assert "3 cancelled (1 refunded)" in m.summary()

    def test_negative_transfer_stall_rejected(self):
        """Negative stall would mean a repacked transfer schedule placed
        a finish behind the clock that waited on it — reject loudly
        instead of silently corrupting the counter."""
        m = ServingMetrics()
        fold(m, "transfer_stall", dur=0.0)
        with pytest.raises(ValueError):
            fold(m, "transfer_stall", dur=-1e-9)
        assert m.transfer_stall_s == 0.0

    def test_trim_accounting(self):
        m = ServingMetrics()
        fold(m, "preempt", remedy="trim", tokens=24, victim="active")
        fold(m, "preempt", remedy="trim", tokens=8, victim="idle")
        assert folded(m) == {"trims": 2, "trimmed_kv_tokens": 32}
        assert "tail trims: 2 (32 KV tokens dropped)" in m.summary()

    def test_swap_accounting(self):
        m = ServingMetrics()
        fold(m, "swap_out", dur=0.25, tokens=120)
        fold(m, "swap_out", dur=0.05, tokens=40)
        fold(m, "swap_in", dur=0.25, tokens=120)
        # the remedy instant beside a swap_out feeds nothing: no double count
        fold(m, "preempt", remedy="swap", tokens=120, victim="active")
        assert folded(m) == {
            "swaps_out": 2,
            "swaps_in": 1,
            "swapped_out_tokens": 160,
            "swapped_in_tokens": 120,
            "swap_stall_s": 0.25 + 0.05 + 0.25,
        }
        assert "KV swaps: 2 out/1 in (160 tokens out, 120 back" in m.summary()
        before = m.folded_state()
        with pytest.raises(ValueError):
            fold(m, "swap_out", dur=-0.1, tokens=1)
        with pytest.raises(ValueError):
            fold(m, "swap_in", dur=-0.1, tokens=1)
        assert m.folded_state() == before, "a rejected event must change nothing"

    def test_empty_summary_hides_remedy_lines(self):
        text = ServingMetrics().summary()
        assert "tail trims" not in text
        assert "KV swaps" not in text

    def test_kv_occupancy_keeps_peak(self):
        """Any event may carry a ``kv`` sample; each pool keeps its max."""
        m = ServingMetrics()
        fold(m, "decode_round", dur=0.5, kv={"decode": 0.25})
        fold(m, "swap_in", dur=0.5, tokens=8, kv={"decode": 0.75})
        fold(m, "decode_round", dur=0.5, kv={"decode": 0.5})
        fold(m, "kv_transfer", tokens=8, kv={"decode": 0.125})
        fold(m, "preempt", remedy="trim", tokens=8, kv={"prefill": 0.5})
        fold(m, "decode_round", dur=0.5)  # an unbounded pool samples nothing
        assert m.peak_kv_utilization == {"decode": 0.75, "prefill": 0.5}
        assert "peak KV occupancy: decode: 75.0%, prefill: 50.0%" in m.summary()

    def test_pool_accounting(self):
        m = ServingMetrics()
        fold(m, "prefill_round", dur=2.0, algo="pass-kv", tokens=64, seqs=2)
        fold(m, "prefill_round", dur=2.0, algo="pass-q", tokens=8, seqs=1)
        fold(m, "decode_round", dur=0.5, seqs=3)
        assert m.pool_rounds == {"prefill": 2, "decode": 1}
        assert m.pool_utilization("prefill", makespan=8.0) == pytest.approx(0.5)
        assert m.pool_utilization("decode", makespan=8.0) == pytest.approx(0.0625)
        assert math.isnan(m.pool_utilization("decode", makespan=0.0))
        assert math.isnan(m.pool_utilization("missing", makespan=8.0))
        assert "pool busy: decode: 0.500s/1 rounds, prefill: 4.000s/2 rounds" in m.summary()

    @pytest.mark.parametrize("event", ["prefill_round", "decode_round"])
    def test_negative_round_duration_rejected(self, event):
        """A round that ends before it starts is a clock bug: reject it
        before either pool counter moves."""
        m = ServingMetrics()
        fold(m, event, dur=0.5)
        before = m.folded_state()
        with pytest.raises(ValueError):
            fold(m, event, dur=-1e-9)
        assert m.folded_state() == before

    @pytest.mark.parametrize("first", ["prefill", "decode"])
    def test_busy_s_is_bit_equal_to_the_label_ordered_sum(self, first):
        """The router's load probe reads `busy_s` (no dict built per probe);
        it feeds placement, so it must give the bits the sorted-label sum
        over `pool_busy_s` gave, whichever pool recorded a round first."""
        second = "decode" if first == "prefill" else "prefill"
        m = ServingMetrics()
        assert m.busy_s == 0.0 and isinstance(m.busy_s, float)
        for i in range(1, 40):
            fold(m, f"{first}_round", dur=0.1 * i)
            assert m.busy_s == float(sum(m.pool_busy_s.values()))
            fold(m, f"{second}_round", dur=1e-3 / i)
            assert m.busy_s == float(sum(m.pool_busy_s.values()))


class TestFoldTable:
    """One case per row of `FOLD` not exercised above: event in, exact
    counter deltas out — `folded` lists every fold-owned value that moved,
    so a row feeding a counter it should not is caught too."""

    def test_prefix_rows(self):
        m = ServingMetrics()
        fold(m, "prefix_hit", reused=12, donor=3)
        fold(m, "prefix_hit", reused=1, donor=3)
        fold(m, "prefix_miss")
        fold(m, "prefix_evict", tokens=40)
        assert folded(m) == {
            "prefix_hits": 2,
            "prefix_reused_tokens": 13,
            "prefix_misses": 1,
            "prefix_evictions": 1,
            "prefix_evicted_tokens": 40,
        }
        assert m.prefix_hit_rate == pytest.approx(2 / 3)

    def test_a_hit_must_reuse_a_token(self):
        m = ServingMetrics()
        with pytest.raises(ValueError, match="prefix_reused_tokens.*must be >= 1"):
            fold(m, "prefix_hit", reused=0, donor=3)
        assert folded(m) == {}

    def test_finish_row(self):
        m = ServingMetrics()
        # eligible, hit
        finished(m, ttft=2.0, warm=True, seq_id=3, prompt=9, cached=4, algo="pass-q",
                 tokens=4, generated=[7, 1, 7, 2], ttit=[0.5, 0.25, 0.125])
        # eligible, missed
        finished(m, ttft=5.0, warm=False, tokens=2, generated=[5, 6], ttit=[0.0625])
        finished(m, ttft=1.0, tokens=1, generated=[8])  # follow-up turn: no split
        finished(m)                                     # streamed nothing: no TTFT
        assert folded(m) == {
            "completed_requests": 4,
            "ttft_samples": [2.0, 5.0, 1.0],
            "ttft_warm_samples": [2.0],
            "ttft_cold_samples": [5.0],
            "ttit_samples": [0.5, 0.25, 0.125, 0.0625],
            "turns": [
                TurnRecord(3, 9, 4, 4, "pass-q", [7, 1, 7, 2]),
                TurnRecord(0, 1, 0, 2, "pass-kv", [5, 6]),
                TurnRecord(0, 1, 0, 1, "pass-kv", [8]),
                TurnRecord(0, 1, 0, 0, "pass-kv", []),
            ],
        }

    def test_a_finish_missing_its_ledger_changes_nothing(self):
        m = ServingMetrics()
        fields = finish_fields(ttft=1.0, ttit=[0.5])
        del fields["algo"]
        with pytest.raises(KeyError):
            m.fold("finish", 0.0, fields)
        assert folded(m) == {}

    def test_fault_rows(self):
        m = ServingMetrics()
        fold(m, "fault_inject", kind="transfer", attempt=1)
        assert folded(m) == {"transfer_faults": 1}
        fold(m, "fault_retry", attempt=1, backoff=0.25)
        fold(m, "fault_retry", attempt=2, backoff=0.5)
        assert folded(m) == {"transfer_faults": 1, "fault_retries": 2, "fault_backoff_s": 0.75}

        m = ServingMetrics()
        fold(m, "fault_inject", kind="swap", attempt=1)
        fold(m, "fault_fallback", reason="swap_loss", tokens=32)
        fold(m, "fault_fallback", reason="transfer")
        assert folded(m) == {"swap_losses": 1, "swap_lost_tokens": 32, "degraded_fallbacks": 2}

        m = ServingMetrics()
        fold(m, "fault_inject", kind="pool_reset", tokens=100, holders=3)
        assert folded(m) == {"pool_resets": 1, "pool_reset_evicted_tokens": 100}

    def test_shed_row(self):
        m = ServingMetrics()
        fold(m, "shed", status="timed_out")
        fold(m, "shed", status="shed")
        fold(m, "shed", status="shed")
        assert folded(m) == {"timeouts": 1, "sheds": 2}
        assert "shed: 1 timed out, 2 rejected/cascaded" in m.summary()

    def test_trace_only_events_feed_nothing(self):
        m = ServingMetrics()
        for name in ("route", "admit", "prefill_chunk", "first_token", "decode_token",
                     "prefix_adopt", "kv_transfer_schedule", "kv_transfer_extend", "sendrecv"):
            fold(m, name, dur=1.0, tokens=5)
        assert folded(m) == {}

    def test_float_totals_add_in_event_order(self):
        """The bits of a stall total are those of the running sum in
        emission order — what lets a replayed trace match exactly."""
        durs = [0.1, 0.2, 0.3]
        m, total = ServingMetrics(), 0
        for d in durs:
            fold(m, "swap_out", dur=d, tokens=1)
            total += d
        assert m.swap_stall_s == total and m.swap_stall_s != sum(reversed(durs))


class TestMutantsDie:
    """Seeded defects in the fold, each killed by a named assertion here
    (monkeypatched; nothing random)."""

    def test_swap_in_folded_without_its_dur(self, monkeypatch):
        from repro.serving import metrics as mod

        def check():
            m = ServingMetrics()
            fold(m, "swap_out", dur=0.25, tokens=8)
            fold(m, "swap_in", dur=0.5, tokens=8)
            assert m.swap_stall_s == 0.75

        check()
        monkeypatch.setitem(
            mod.FOLD, "swap_in", mod._adds(("swaps_in", 1), ("swapped_in_tokens", "tokens"))
        )
        with pytest.raises(AssertionError):
            check()

    def test_trim_counted_as_an_eviction(self, monkeypatch):
        from repro.serving import metrics as mod

        def check():
            m = ServingMetrics()
            fold(m, "preempt", remedy="trim", tokens=16, evicted=16)
            assert folded(m) == {"trims": 1, "trimmed_kv_tokens": 16}

        check()
        evict = mod._adds(("preemptions", 1), ("evicted_tokens", "evicted"))
        monkeypatch.setitem(mod.FOLD, "preempt", mod._by("remedy", recompute=evict, trim=evict))
        with pytest.raises(AssertionError):
            check()


class TestInstanceIndependence:
    """Every replica in a fleet owns its own ServingMetrics; no counter
    state may bleed between instances (the classic mutable-default
    trap)."""

    def test_no_shared_mutable_defaults(self):
        a, b = ServingMetrics(), ServingMetrics()
        assert a._counters is not b._counters, "ServingMetrics counters are shared"
        for name in (
            "turns",
            "ttft_samples",
            "ttit_samples",
            "ttft_cold_samples",
            "ttft_warm_samples",
            "pool_busy_s",
            "pool_rounds",
            "peak_kv_utilization",
        ):
            va, vb = getattr(a, name), getattr(b, name)
            assert va is not vb, f"ServingMetrics.{name} is shared between instances"

    def test_mutations_stay_local(self):
        a, b = ServingMetrics(), ServingMetrics()
        a.fold("prefill_round", 1.0, {})
        a.fold("prefix_hit", 0.0, {"reused": 8})
        a.ttft_samples.append(0.5)
        a.fold("fault_inject", 0.0, {"kind": "transfer"})
        assert b.pool_rounds == {}
        assert b.pool_busy_s == {}
        assert b.prefix_hits == 0
        assert b.ttft_samples == []
        assert b.transfer_faults == 0

    def test_fleet_metrics_reads_do_not_mutate_replicas(self):
        from repro.serving.metrics import FleetMetrics

        m = ServingMetrics()
        m.fold("prefix_hit", 0.0, {"reused": 4})
        fm = FleetMetrics()
        fm.add_replica(0, m, 1.0)
        before = (m.prefix_hits, m.prefix_misses, list(m.ttft_samples))
        fm.summary()
        fm.prefix_hit_rate
        fm.percentile_ttft(50)
        assert (m.prefix_hits, m.prefix_misses, list(m.ttft_samples)) == before


#: What ``_fed()`` exposes.
FED_TEXT = """\
# HELP repro_completed_requests_total Requests that reached FINISHED
# TYPE repro_completed_requests_total counter
repro_completed_requests_total 6
# HELP repro_degraded_fallbacks_total Fault recoveries that bottomed out in recompute
# TYPE repro_degraded_fallbacks_total counter
repro_degraded_fallbacks_total 0
# HELP repro_fault_backoff_seconds_total Retry backoff seconds charged to the wire schedule
# TYPE repro_fault_backoff_seconds_total counter
repro_fault_backoff_seconds_total 2
# HELP repro_fault_retries_total Failed transfers rescheduled after backoff
# TYPE repro_fault_retries_total counter
repro_fault_retries_total 1
# HELP repro_kv_peak_utilization Peak claimed KV-block fraction per pool
# TYPE repro_kv_peak_utilization gauge
repro_kv_peak_utilization{pool="decode"} 0.25
repro_kv_peak_utilization{pool="prefill"} 0.5
# HELP repro_kv_transfer_refusals_total Transfers the decode pool's admission refused
# TYPE repro_kv_transfer_refusals_total counter
repro_kv_transfer_refusals_total 0
# HELP repro_kv_transfers_cancelled_total In-flight transfers cancelled by eviction/shed
# TYPE repro_kv_transfers_cancelled_total counter
repro_kv_transfers_cancelled_total 0
# HELP repro_kv_transfers_refunded_total Cancelled transfers that wasted no wire time
# TYPE repro_kv_transfers_refunded_total counter
repro_kv_transfers_refunded_total 0
# HELP repro_kv_transfers_total Landed prefill-to-decode KV transfers
# TYPE repro_kv_transfers_total counter
repro_kv_transfers_total 0
# HELP repro_pool_busy_seconds_total Engine busy seconds per pool
# TYPE repro_pool_busy_seconds_total counter
repro_pool_busy_seconds_total{pool="decode"} 0.75
repro_pool_busy_seconds_total{pool="prefill"} 2
# HELP repro_pool_reset_evicted_kv_tokens_total Resident KV tokens dropped by pool resets
# TYPE repro_pool_reset_evicted_kv_tokens_total counter
repro_pool_reset_evicted_kv_tokens_total 0
# HELP repro_pool_resets_total Whole-pool KV resets injected
# TYPE repro_pool_resets_total counter
repro_pool_resets_total 0
# HELP repro_pool_rounds_total Engine rounds executed per pool
# TYPE repro_pool_rounds_total counter
repro_pool_rounds_total{pool="decode"} 2
repro_pool_rounds_total{pool="prefill"} 1
# HELP repro_preempt_evicted_kv_tokens_total KV tokens dropped by full evictions
# TYPE repro_preempt_evicted_kv_tokens_total counter
repro_preempt_evicted_kv_tokens_total 120
# HELP repro_preemptions_total Full KV evictions under capacity pressure
# TYPE repro_preemptions_total counter
repro_preemptions_total 1
# HELP repro_prefix_evicted_kv_tokens_total KV tokens dropped by prefix evictions
# TYPE repro_prefix_evicted_kv_tokens_total counter
repro_prefix_evicted_kv_tokens_total 0
# HELP repro_prefix_evictions_total LRU evictions of cached prefix residents
# TYPE repro_prefix_evictions_total counter
repro_prefix_evictions_total 0
# HELP repro_prefix_hits_total Prefix-cache lookups that adopted a cached prefix
# TYPE repro_prefix_hits_total counter
repro_prefix_hits_total 0
# HELP repro_prefix_misses_total Prefix-cache lookups that matched nothing
# TYPE repro_prefix_misses_total counter
repro_prefix_misses_total 0
# HELP repro_prefix_reused_kv_tokens_total KV tokens adopted from cached prefixes
# TYPE repro_prefix_reused_kv_tokens_total counter
repro_prefix_reused_kv_tokens_total 0
# HELP repro_sheds_total Requests shed by backpressure or cascade
# TYPE repro_sheds_total counter
repro_sheds_total 0
# HELP repro_swap_losses_total Host-store payloads lost at swap-in time
# TYPE repro_swap_losses_total counter
repro_swap_losses_total 0
# HELP repro_swap_lost_kv_tokens_total KV tokens in lost swap payloads
# TYPE repro_swap_lost_kv_tokens_total counter
repro_swap_lost_kv_tokens_total 0
# HELP repro_swap_stall_seconds_total Pool stall seconds spent on swap DMA
# TYPE repro_swap_stall_seconds_total counter
repro_swap_stall_seconds_total 0.1
# HELP repro_swapped_in_kv_tokens_total KV tokens swapped back from the host store
# TYPE repro_swapped_in_kv_tokens_total counter
repro_swapped_in_kv_tokens_total 0
# HELP repro_swapped_out_kv_tokens_total KV tokens swapped out to the host store
# TYPE repro_swapped_out_kv_tokens_total counter
repro_swapped_out_kv_tokens_total 8
# HELP repro_swaps_in_total Host-to-device KV swap-ins
# TYPE repro_swaps_in_total counter
repro_swaps_in_total 0
# HELP repro_swaps_out_total Device-to-host KV swap-outs
# TYPE repro_swaps_out_total counter
repro_swaps_out_total 1
# HELP repro_timeouts_total Requests shed for blowing their deadline
# TYPE repro_timeouts_total counter
repro_timeouts_total 0
# HELP repro_transfer_faults_total Injected mid-stream KV-transfer failures
# TYPE repro_transfer_faults_total counter
repro_transfer_faults_total 0
# HELP repro_transfer_stall_seconds_total Decode idle seconds waiting on the KV wire
# TYPE repro_transfer_stall_seconds_total counter
repro_transfer_stall_seconds_total 0.25
# HELP repro_transferred_kv_tokens_total KV tokens landed over the transfer wire
# TYPE repro_transferred_kv_tokens_total counter
repro_transferred_kv_tokens_total 0
# HELP repro_trimmed_kv_tokens_total KV tokens dropped by tail-trims
# TYPE repro_trimmed_kv_tokens_total counter
repro_trimmed_kv_tokens_total 0
# HELP repro_trims_total Tail-trim preemption remedies applied
# TYPE repro_trims_total counter
repro_trims_total 0
# HELP repro_ttft_cold_seconds TTFT of prefix-cache-eligible requests that missed
# TYPE repro_ttft_cold_seconds histogram
repro_ttft_cold_seconds_bucket{le="0.001"} 0
repro_ttft_cold_seconds_bucket{le="0.005"} 0
repro_ttft_cold_seconds_bucket{le="0.01"} 0
repro_ttft_cold_seconds_bucket{le="0.05"} 0
repro_ttft_cold_seconds_bucket{le="0.1"} 0
repro_ttft_cold_seconds_bucket{le="0.25"} 0
repro_ttft_cold_seconds_bucket{le="0.5"} 0
repro_ttft_cold_seconds_bucket{le="1"} 0
repro_ttft_cold_seconds_bucket{le="2.5"} 0
repro_ttft_cold_seconds_bucket{le="5"} 0
repro_ttft_cold_seconds_bucket{le="10"} 0
repro_ttft_cold_seconds_bucket{le="30"} 0
repro_ttft_cold_seconds_bucket{le="60"} 0
repro_ttft_cold_seconds_bucket{le="120"} 0
repro_ttft_cold_seconds_bucket{le="300"} 0
repro_ttft_cold_seconds_bucket{le="+Inf"} 0
repro_ttft_cold_seconds_sum 0
repro_ttft_cold_seconds_count 0
# HELP repro_ttft_seconds Time to first token per completed request
# TYPE repro_ttft_seconds histogram
repro_ttft_seconds_bucket{le="0.001"} 1
repro_ttft_seconds_bucket{le="0.005"} 1
repro_ttft_seconds_bucket{le="0.01"} 1
repro_ttft_seconds_bucket{le="0.05"} 1
repro_ttft_seconds_bucket{le="0.1"} 2
repro_ttft_seconds_bucket{le="0.25"} 2
repro_ttft_seconds_bucket{le="0.5"} 2
repro_ttft_seconds_bucket{le="1"} 3
repro_ttft_seconds_bucket{le="2.5"} 4
repro_ttft_seconds_bucket{le="5"} 4
repro_ttft_seconds_bucket{le="10"} 4
repro_ttft_seconds_bucket{le="30"} 4
repro_ttft_seconds_bucket{le="60"} 5
repro_ttft_seconds_bucket{le="120"} 5
repro_ttft_seconds_bucket{le="300"} 5
repro_ttft_seconds_bucket{le="+Inf"} 6
repro_ttft_seconds_sum 395.6005
repro_ttft_seconds_count 6
# HELP repro_ttft_warm_seconds TTFT of prefix-cache-eligible requests that hit
# TYPE repro_ttft_warm_seconds histogram
repro_ttft_warm_seconds_bucket{le="0.001"} 0
repro_ttft_warm_seconds_bucket{le="0.005"} 0
repro_ttft_warm_seconds_bucket{le="0.01"} 0
repro_ttft_warm_seconds_bucket{le="0.05"} 0
repro_ttft_warm_seconds_bucket{le="0.1"} 1
repro_ttft_warm_seconds_bucket{le="0.25"} 1
repro_ttft_warm_seconds_bucket{le="0.5"} 1
repro_ttft_warm_seconds_bucket{le="1"} 1
repro_ttft_warm_seconds_bucket{le="2.5"} 1
repro_ttft_warm_seconds_bucket{le="5"} 1
repro_ttft_warm_seconds_bucket{le="10"} 1
repro_ttft_warm_seconds_bucket{le="30"} 1
repro_ttft_warm_seconds_bucket{le="60"} 1
repro_ttft_warm_seconds_bucket{le="120"} 1
repro_ttft_warm_seconds_bucket{le="300"} 1
repro_ttft_warm_seconds_bucket{le="+Inf"} 1
repro_ttft_warm_seconds_sum 0.1
repro_ttft_warm_seconds_count 1
# HELP repro_ttit_seconds Inter-token gaps of streamed responses
# TYPE repro_ttit_seconds histogram
repro_ttit_seconds_bucket{le="0.001"} 0
repro_ttit_seconds_bucket{le="0.005"} 1
repro_ttit_seconds_bucket{le="0.01"} 2
repro_ttit_seconds_bucket{le="0.05"} 2
repro_ttit_seconds_bucket{le="0.1"} 2
repro_ttit_seconds_bucket{le="0.25"} 2
repro_ttit_seconds_bucket{le="0.5"} 2
repro_ttit_seconds_bucket{le="1"} 2
repro_ttit_seconds_bucket{le="2.5"} 2
repro_ttit_seconds_bucket{le="5"} 2
repro_ttit_seconds_bucket{le="10"} 2
repro_ttit_seconds_bucket{le="30"} 2
repro_ttit_seconds_bucket{le="60"} 2
repro_ttit_seconds_bucket{le="120"} 2
repro_ttit_seconds_bucket{le="300"} 2
repro_ttit_seconds_bucket{le="+Inf"} 2
repro_ttit_seconds_sum 0.013000000000000001
repro_ttit_seconds_count 2
"""


def _fed() -> ServingMetrics:
    """Int and float counters (one float integral), both pool-labelled
    counters, the peak gauge, and histograms with samples below, on,
    between and above the bucket bounds; ``ttft_cold_samples`` stays empty."""
    m = ServingMetrics()
    fold(m, "preempt", remedy="recompute", evicted=120, victim="active")
    fold(m, "swap_out", dur=0.1, tokens=8)
    fold(m, "transfer_stall", dur=0.25)
    fold(m, "fault_retry", attempt=1, backoff=2.0)
    fold(m, "prefill_round", dur=2.0, kv={"prefill": 0.5})
    fold(m, "decode_round", dur=0.5, kv={"decode": 0.25})
    fold(m, "decode_round", dur=0.25, kv={"decode": 0.125})
    finished(m, ttft=0.0005, ttit=[0.01, 0.003])
    finished(m, ttft=0.1, warm=True)
    for ttft in (1.0, 2.5, 42.0, 350.0):
        finished(m, ttft=ttft)
    return m


def _blocks(text: str) -> dict[str, list[str]]:
    """Exposition lines by family, each block opening with its HELP line."""
    blocks: dict[str, list[str]] = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            block = blocks.setdefault(line.split()[2], [])
        block.append(line)
    return blocks


class TestExposition:
    """The Prometheus text, byte for byte: families sorted by name with one
    HELP/TYPE header each, label values sorted, cumulative buckets then
    ``+Inf``, ``_sum`` and ``_count``, integral values bare, and in a fleet
    ``replica`` as the first label."""

    def test_runtime_text(self):
        assert _fed().prometheus_text() == FED_TEXT

    def test_fleet_text(self):
        fm = FleetMetrics()
        for rid in (1, 0):  # added out of order: series still list replica 0 first
            m = ServingMetrics()
            fold(m, "prefill_round", dur=1.5 + rid)
            fold(m, "preempt", remedy="recompute", evicted=8 * (rid + 1))
            finished(m, ttft=0.05 * (rid + 1))  # each on a bucket bound
            fm.add_replica(rid, m, 10.0)
        fold(m, "preempt", remedy="swap", tokens=8, kv={"decode": 0.5})  # replica 0 only
        text = fm.prometheus_text()
        blocks = _blocks(text)
        assert list(blocks) == list(_blocks(FED_TEXT))
        assert text.count("# HELP ") == text.count("# TYPE ") == len(blocks)
        for name, block in blocks.items():
            for line in block[2:]:
                assert re.match(rf'{name}(_bucket|_sum|_count)?{{replica="[01]"[,}}]', line), line
        assert blocks["repro_preempt_evicted_kv_tokens_total"][2:] == [
            'repro_preempt_evicted_kv_tokens_total{replica="0"} 8',
            'repro_preempt_evicted_kv_tokens_total{replica="1"} 16',
        ]
        assert blocks["repro_pool_busy_seconds_total"] == [
            "# HELP repro_pool_busy_seconds_total Engine busy seconds per pool",
            "# TYPE repro_pool_busy_seconds_total counter",
            'repro_pool_busy_seconds_total{replica="0",pool="prefill"} 1.5',
            'repro_pool_busy_seconds_total{replica="1",pool="prefill"} 2.5',
        ]
        assert blocks["repro_kv_peak_utilization"][2:] == [
            'repro_kv_peak_utilization{replica="0",pool="decode"} 0.5',
        ]
        ttft = blocks["repro_ttft_seconds"]
        assert len(ttft) == 2 + 2 * 18
        assert [line for line in ttft if "0.05" in line or "Inf" in line or "_bucket" not in line] == [
            "# HELP repro_ttft_seconds Time to first token per completed request",
            "# TYPE repro_ttft_seconds histogram",
            'repro_ttft_seconds_bucket{replica="0",le="0.05"} 1',
            'repro_ttft_seconds_bucket{replica="0",le="+Inf"} 1',
            'repro_ttft_seconds_sum{replica="0"} 0.05',
            'repro_ttft_seconds_count{replica="0"} 1',
            'repro_ttft_seconds_bucket{replica="1",le="0.05"} 0',
            'repro_ttft_seconds_bucket{replica="1",le="+Inf"} 1',
            'repro_ttft_seconds_sum{replica="1"} 0.1',
            'repro_ttft_seconds_count{replica="1"} 1',
        ]

    def test_empty(self):
        """An idle runtime exposes every family at zero (no pool series
        yet); an empty fleet exposes nothing."""
        zeroed = "".join(
            (line if line.startswith("#") else line.rpartition(" ")[0] + " 0") + "\n"
            for line in FED_TEXT.splitlines()
            if 'pool="' not in line
        )
        assert ServingMetrics().prometheus_text() == zeroed
        assert FleetMetrics().prometheus_text() == ""
