"""Unit tests for the Prometheus exposition of labeled counters, gauges and
histograms, driven through ``ServingMetrics`` and ``FleetMetrics``."""

from repro.serving.metrics import FleetMetrics, ServingMetrics, _exposition

from helpers import finish_fields


def fold(m, name, dur=0.0, **fields):
    m.fold(name, dur, fields)


def block(text, name):
    """The HELP/TYPE header and series lines of one family."""
    lines = text.splitlines()
    start = lines.index(next(line for line in lines if line.startswith(f"# HELP {name} ")))
    end = next(
        (i for i in range(start + 2, len(lines)) if lines[i].startswith("# HELP ")), len(lines)
    )
    return lines[start:end]


class TestCounter:
    def test_labeled_values_are_independent(self):
        m = ServingMetrics()
        fold(m, "prefill_round", dur=1.0)
        fold(m, "decode_round", dur=0.5)
        fold(m, "prefill_round", dur=1.0)
        assert m.pool_rounds == {"decode": 1, "prefill": 2}
        assert m.pool_busy_s == {"decode": 0.5, "prefill": 2.0}
        assert m.busy_s == 2.5
        assert block(m.prometheus_text(), "repro_pool_rounds_total")[2:] == [
            'repro_pool_rounds_total{pool="decode"} 1',
            'repro_pool_rounds_total{pool="prefill"} 2',
        ]

    def test_expose_sorts_label_values(self):
        m = ServingMetrics()
        fold(m, "prefill_round", dur=1.0, kv={"prefill": 0.25})  # prefill seen first, listed second
        fold(m, "decode_round", dur=2.0, kv={"decode": 0.75})
        text = m.prometheus_text()
        assert block(text, "repro_pool_busy_seconds_total") == [
            "# HELP repro_pool_busy_seconds_total Engine busy seconds per pool",
            "# TYPE repro_pool_busy_seconds_total counter",
            'repro_pool_busy_seconds_total{pool="decode"} 2',
            'repro_pool_busy_seconds_total{pool="prefill"} 1',
        ]
        assert block(text, "repro_kv_peak_utilization") == [
            "# HELP repro_kv_peak_utilization Peak claimed KV-block fraction per pool",
            "# TYPE repro_kv_peak_utilization gauge",
            'repro_kv_peak_utilization{pool="decode"} 0.75',
            'repro_kv_peak_utilization{pool="prefill"} 0.25',
        ]


class TestHistogram:
    def test_empty_histogram_exposes_zero_counts(self):
        """A scrape of an idle runtime is valid: every bucket (including
        +Inf), _sum, and _count expose 0."""
        lines = block(ServingMetrics().prometheus_text(), "repro_ttft_seconds")
        assert lines[:2] == [
            "# HELP repro_ttft_seconds Time to first token per completed request",
            "# TYPE repro_ttft_seconds histogram",
        ]
        assert 'repro_ttft_seconds_bucket{le="0.1"} 0' in lines
        assert 'repro_ttft_seconds_bucket{le="1"} 0' in lines
        assert 'repro_ttft_seconds_bucket{le="+Inf"} 0' in lines
        assert "repro_ttft_seconds_sum 0" in lines
        assert "repro_ttft_seconds_count 0" in lines
        assert all(line.endswith(" 0") for line in lines[2:])

    def test_cumulative_buckets(self):
        m = ServingMetrics()
        fold(m, "finish", **finish_fields(ttit=[0.05, 0.5, 0.5, 5.0, 500.0]))
        lines = block(m.prometheus_text(), "repro_ttit_seconds")
        assert 'repro_ttit_seconds_bucket{le="0.05"} 1' in lines  # a bound is inclusive
        assert 'repro_ttit_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_ttit_seconds_bucket{le="1"} 3' in lines
        assert 'repro_ttit_seconds_bucket{le="10"} 4' in lines
        assert 'repro_ttit_seconds_bucket{le="300"} 4' in lines
        assert 'repro_ttit_seconds_bucket{le="+Inf"} 5' in lines
        assert "repro_ttit_seconds_sum 506.05" in lines
        assert "repro_ttit_seconds_count 5" in lines


class TestRegistry:
    def test_exposition_is_sorted_and_deterministic(self):
        def build():
            m = ServingMetrics()
            fold(m, "prefix_miss")
            fold(m, "preempt", remedy="recompute", evicted=4)
            fold(m, "decode_round", dur=0.25)
            fold(m, "finish", **finish_fields(ttft=0.5))
            return m.prometheus_text()

        text = build()
        assert text == build()
        names = [line.split()[2] for line in text.splitlines() if line.startswith("# HELP ")]
        assert names == sorted(names)
        assert len(names) == len(set(names))
        assert text.count("# TYPE ") == len(names)
        assert text.endswith("\n")

    def test_empty_registry_exposes_empty(self):
        assert _exposition({}) == ""


class TestMultiReplicaExposition:
    def test_empty_multi_exposes_empty(self):
        assert FleetMetrics().prometheus_text() == ""
