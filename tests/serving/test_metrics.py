"""Tests for serving metrics aggregation."""

import math

import pytest

from repro.serving.metrics import ServingMetrics
from repro.serving.request import TurnRecord


def turn(prompt, cached, response=2, algo="pass-kv"):
    return TurnRecord(
        seq_id=0, prompt_tokens=prompt, cached_tokens=cached,
        response_tokens=response, algo=algo,
    )


def fold(m, name, dur=0.0, **fields):
    """One event into the fold, the way the runtime's stream hands it over."""
    m.fold(name, dur, fields)


def finished(m, ttft=None, **fields):
    if ttft is not None:
        fields["ttft"] = ttft
    fold(m, "finish", status="finished", **fields)


def folded(m):
    """Every fold-owned value that is not at its zero."""
    return {k: v for k, v in m.folded_state().items() if v not in (0, 0.0, [], {})}


class TestServingMetrics:
    def test_token_accounting(self):
        m = ServingMetrics()
        m.record_turn(turn(100, 0, response=5))
        m.record_turn(turn(10, 105, response=3))
        assert m.total_prompt_tokens == 110
        assert m.total_generated_tokens == 8

    def test_cache_hit_rate(self):
        m = ServingMetrics()
        m.record_turn(turn(100, 0))      # hit rate 0
        m.record_turn(turn(50, 50))      # hit rate 0.5
        assert m.mean_cache_hit_rate == pytest.approx(0.25)

    def test_algo_counts(self):
        m = ServingMetrics()
        m.record_turn(turn(10, 0, algo="pass-kv"))
        m.record_turn(turn(1, 100, algo="pass-q"))
        m.record_turn(turn(1, 200, algo="pass-q"))
        assert m.algo_counts() == {"pass-kv": 1, "pass-q": 2}

    def test_latency_percentiles(self):
        m = ServingMetrics()
        for t in [1.0, 2.0, 3.0]:
            finished(m, ttft=t, gaps=1)
            m.record_ttit(t / 100)
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

    def test_record_ttit_stream(self):
        m = ServingMetrics()
        for gap in (0.01, 0.02, 0.03):
            m.record_ttit(gap)
        assert m.percentile_ttit(50) == pytest.approx(0.02)

    def test_summary_renders(self):
        m = ServingMetrics()
        m.record_turn(turn(10, 0))
        finished(m, ttft=1.5, gaps=1)
        m.record_ttit(0.05)
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
        m = ServingMetrics()
        m.record_kv_occupancy("decode", 0.25)
        m.record_kv_occupancy("decode", 0.75)
        m.record_kv_occupancy("decode", 0.5)
        assert m.peak_kv_utilization == {"decode": 0.75}
        assert "peak KV occupancy: decode: 75.0%" in m.summary()

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
        finished(m, ttft=2.0, warm=True, tokens=4, gaps=3)   # eligible, hit
        finished(m, ttft=5.0, warm=False, tokens=2, gaps=1)  # eligible, missed
        finished(m, ttft=1.0, tokens=1, gaps=0)              # follow-up turn: no split
        finished(m, tokens=0, gaps=0)                        # streamed nothing: no TTFT
        assert folded(m) == {
            "completed_requests": 4,
            "ttft_samples": [2.0, 5.0, 1.0],
            "ttft_warm_samples": [2.0],
            "ttft_cold_samples": [5.0],
            "ttit_gaps_announced": 4,
        }

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

    def test_writer_drift_holds_ttit_values_to_the_announced_count(self):
        m = ServingMetrics()
        finished(m, ttft=1.0, gaps=2)
        m.record_ttit(0.01)
        assert m.writer_drift() == ["ttit_sample_count: trace-derived 2 != metrics 1"]
        m.record_ttit(0.01)
        assert m.writer_drift() == []


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
        assert a.registry is not b.registry, "ServingMetrics.registry is shared"
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
