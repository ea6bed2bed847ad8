"""Tests for the disaggregated serving model."""

import pytest

from repro.model.config import llama3_405b_config
from repro.perf.hardware import gtt_host
from repro.serving.disaggregated import DisaggregatedSimulator


@pytest.fixture(scope="module")
def sim():
    return DisaggregatedSimulator(llama3_405b_config(), gtt_host())


class TestLatencies:
    def test_disaggregated_decode_matches_tp8(self, sim):
        disagg = sim.disaggregated(131072, 100, prefill_ranks=4)
        tp8_ttit = sim.sim.tp_decode(131072, n_nodes=1).total
        assert disagg.ttit == pytest.approx(tp8_ttit)

    def test_colocated_decode_pays_cp_tax(self, sim):
        colo = sim.colocated(131072, 100, n_ranks=4)
        disagg = sim.disaggregated(131072, 100, prefill_ranks=4)
        assert colo.ttit > disagg.ttit

    def test_kv_transfer_scales_with_context(self, sim):
        assert sim.sim.kv_transfer_s(262144) == pytest.approx(2 * sim.sim.kv_transfer_s(131072))

    def test_transfer_tail_exposed_in_ttft(self, sim):
        colo = sim.colocated(131072, 0, n_ranks=4)
        disagg = sim.disaggregated(131072, 0, prefill_ranks=4)
        tail = disagg.ttft - colo.ttft
        assert tail == pytest.approx(sim.sim.kv_transfer_s(131072) / sim.config.n_layers)

    def test_total_composition(self, sim):
        r = sim.disaggregated(131072, 50, prefill_ranks=2)
        assert r.total == pytest.approx(r.ttft + 50 * r.ttit)

    def test_colocated_single_rank_uses_tp_decode(self, sim):
        r = sim.colocated(131072, 10, n_ranks=1)
        assert r.ttit == pytest.approx(sim.sim.tp_decode(131072, n_nodes=1).total)


class TestBreakEven:
    def test_break_even_small_for_long_context(self, sim):
        be = sim.break_even_output_tokens(131072, n_ranks=4)
        assert 0 <= be < 64

    def test_longer_responses_favor_disaggregation(self, sim):
        be = sim.break_even_output_tokens(131072, n_ranks=4)
        short = max(be - 1, 0)
        colo_s = sim.colocated(131072, short, n_ranks=4)
        disagg_s = sim.disaggregated(131072, short, prefill_ranks=4)
        colo_l = sim.colocated(131072, be + 100, n_ranks=4)
        disagg_l = sim.disaggregated(131072, be + 100, prefill_ranks=4)
        assert disagg_l.total < colo_l.total
        if short < be:
            assert colo_s.total <= disagg_s.total
