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
        for i, t in enumerate([1.0, 2.0, 3.0]):
            m.record_turn(turn(10, 0), ttft=t, ttit=t / 100)
        assert m.percentile_ttft(50) == pytest.approx(2.0)
        assert m.percentile_ttit(100) == pytest.approx(0.03)

    def test_empty_percentiles_are_nan(self):
        assert math.isnan(ServingMetrics().percentile_ttft(50))
        assert math.isnan(ServingMetrics().percentile_ttit(99))

    def test_tail_percentiles(self):
        m = ServingMetrics()
        for t in range(1, 101):
            m.record_turn(turn(10, 0), ttft=float(t))
        assert m.percentile_ttft(95) == pytest.approx(95.05)
        assert m.percentile_ttft(99) == pytest.approx(99.01)

    def test_preemption_accounting(self):
        m = ServingMetrics()
        assert m.preemptions == 0 and m.evicted_tokens == 0
        m.record_preemption(120)
        m.record_preemption(8)
        assert m.preemptions == 2
        assert m.evicted_tokens == 128
        assert "preemptions: 2 (128 KV tokens evicted)" in m.summary()

    def test_record_ttit_stream(self):
        m = ServingMetrics()
        for gap in (0.01, 0.02, 0.03):
            m.record_ttit(gap)
        assert m.percentile_ttit(50) == pytest.approx(0.02)

    def test_summary_renders(self):
        m = ServingMetrics()
        m.record_turn(turn(10, 0), ttft=1.5, ttit=0.05)
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
        m.record_transfer(40)
        m.record_transfer(8)
        m.record_transfer_refusal()
        m.record_transfer_cancel()
        m.record_transfer_stall(2.5)
        m.record_transfer_stall(0.5)
        assert m.transfers == 2
        assert m.transferred_kv_tokens == 48
        assert m.transfer_refusals == 1
        assert m.transfers_cancelled == 1
        assert m.transfer_stall_s == pytest.approx(3.0)
        assert "KV transfers: 2 (48 tokens, 1 refused, 1 cancelled" in m.summary()

    def test_refunded_cancel_counts_once(self):
        """A refunded cancel is a cancel AND a refund — never double-
        counted into either tally, and the refunded subset can never
        exceed the cancel total."""
        m = ServingMetrics()
        m.record_transfer_cancel(refunded=True)
        m.record_transfer_cancel(refunded=False)
        m.record_transfer_cancel()
        assert m.transfers_cancelled == 3
        assert m.transfers_refunded == 1
        assert m.transfers_refunded <= m.transfers_cancelled
        assert "3 cancelled (1 refunded)" in m.summary()

    def test_negative_transfer_stall_rejected(self):
        """Negative stall would mean a repacked transfer schedule placed
        a finish behind the clock that waited on it — reject loudly
        instead of silently corrupting the counter."""
        m = ServingMetrics()
        m.record_transfer_stall(0.0)
        with pytest.raises(ValueError):
            m.record_transfer_stall(-1e-9)
        assert m.transfer_stall_s == 0.0

    def test_trim_accounting(self):
        m = ServingMetrics()
        m.record_trim(24)
        m.record_trim(8)
        assert m.trims == 2
        assert m.trimmed_kv_tokens == 32
        assert "tail trims: 2 (32 KV tokens dropped)" in m.summary()

    def test_swap_accounting(self):
        m = ServingMetrics()
        m.record_swap_out(120, stall_s=0.25)
        m.record_swap_out(40, stall_s=0.05)
        m.record_swap_in(120, stall_s=0.25)
        assert m.swaps_out == 2 and m.swaps_in == 1
        assert m.swapped_out_tokens == 160
        assert m.swapped_in_tokens == 120
        assert m.swap_stall_s == pytest.approx(0.55)
        assert "KV swaps: 2 out/1 in (160 tokens out, 120 back" in m.summary()
        with pytest.raises(ValueError):
            m.record_swap_out(1, stall_s=-0.1)
        with pytest.raises(ValueError):
            m.record_swap_in(1, stall_s=-0.1)

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
        m.record_round("prefill", 2.0)
        m.record_round("prefill", 2.0)
        m.record_round("decode", 0.5)
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
            m.record_round(first, 0.1 * i)
            assert m.busy_s == float(sum(m.pool_busy_s.values()))
            m.record_round(second, 1e-3 / i)
            assert m.busy_s == float(sum(m.pool_busy_s.values()))


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
        a.record_round("prefill", 1.0)
        a.record_prefix_hit(8)
        a.ttft_samples.append(0.5)
        a.record_transfer_fault(retried=True, backoff_s=0.25)
        assert b.pool_rounds == {}
        assert b.pool_busy_s == {}
        assert b.prefix_hits == 0
        assert b.ttft_samples == []
        assert b.transfer_faults == 0

    def test_fleet_metrics_reads_do_not_mutate_replicas(self):
        from repro.serving.metrics import FleetMetrics

        m = ServingMetrics()
        m.record_prefix_hit(4)
        fm = FleetMetrics()
        fm.add_replica(0, m, 1.0)
        before = (m.prefix_hits, m.prefix_misses, list(m.ttft_samples))
        fm.summary()
        fm.prefix_hit_rate
        fm.percentile_ttft(50)
        assert (m.prefix_hits, m.prefix_misses, list(m.ttft_samples)) == before
