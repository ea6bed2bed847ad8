"""Behavioral tests for the prefill latency model (shape properties)."""

import pytest

from repro.core.heuristics import RingAlgo
from repro.model.config import llama3_405b_config
from repro.perf.hardware import gti_host, gtt_host
from repro.perf.latency import LatencySimulator


@pytest.fixture(scope="module")
def sim():
    return LatencySimulator(llama3_405b_config(), gtt_host())


@pytest.fixture(scope="module")
def sim_gti():
    return LatencySimulator(llama3_405b_config(), gti_host())


class TestCpScaling:
    def test_near_linear_scaling_128k(self, sim):
        """Figure 6a/7: doubling CP ranks ~halves TTFT at long context."""
        t1 = sim.cp_prefill(131072, n_ranks=1).total
        for n in (2, 4, 8):
            ratio = t1 / sim.cp_prefill(131072, n_ranks=n).total
            assert ratio > 0.85 * n, f"CP{n} scaling ratio {ratio:.2f}"

    def test_gti_scales_to_4_nodes(self, sim_gti):
        """Figure 6b: TCP at ~3 GB/s/rank still hides pass-KV comm."""
        t1 = sim_gti.cp_prefill(131072, n_ranks=1).total
        for n in (2, 4):
            ratio = t1 / sim_gti.cp_prefill(131072, n_ranks=n).total
            assert ratio > 0.85 * n

    def test_short_context_scales_worse(self, sim):
        """At 2K the fixed overheads dominate and scaling degrades."""
        t1 = sim.cp_prefill(2048, n_ranks=1).total
        t8 = sim.cp_prefill(2048, n_ranks=8).total
        assert t1 / t8 < 4.0

    def test_superquadratic_ttft_growth(self, sim):
        """Figure 8: >=512K doubling context more than doubles TTFT."""
        t512 = sim.cp_prefill(524288, n_ranks=16).total
        t1m = sim.cp_prefill(1048576, n_ranks=16).total
        assert t1m > 2.0 * t512

    def test_cp_beats_multinode_tp(self, sim):
        """Figure 7: the CP-TP gap widens with node count."""
        gaps = []
        for n in (2, 4, 8):
            cp = sim.cp_prefill(131072, n_ranks=n).total
            tp = sim.tp_prefill(131072, n_nodes=n).total
            gaps.append(tp / cp)
        assert gaps[0] > 1.0
        assert gaps == sorted(gaps)
        assert gaps[-1] > 2.0  # "100% difference" at 8 nodes


class TestAlgoSelection:
    def test_auto_picks_min(self, sim):
        auto = sim.cp_prefill(1280, 126720, n_ranks=4)
        kv = sim.cp_prefill(1280, 126720, n_ranks=4, algo=RingAlgo.PASS_KV)
        qq = sim.cp_prefill(1280, 126720, n_ranks=4, algo=RingAlgo.PASS_Q)
        assert auto.total == min(kv.total, qq.total)

    def test_best_algo_crossover(self, sim):
        """Figure 9: pass-Q wins at very low miss rates, pass-KV at high."""
        assert sim.cp_prefill(1280, 126720, n_ranks=4).algo == RingAlgo.PASS_Q.value
        assert sim.cp_prefill(12800, 115200, n_ranks=4).algo == RingAlgo.PASS_KV.value
        assert sim.cp_prefill(128000, 0, n_ranks=4).algo == RingAlgo.PASS_KV.value

    def test_crossover_near_paper_tipping_point(self, sim):
        """The simulated tipping point falls in the paper's 2.5-5% band."""
        total = 128000
        flips = []
        for t in (1280, 3200, 4160, 6400, 12800):
            algo = RingAlgo(sim.cp_prefill(t, total - t, n_ranks=4).algo)
            flips.append((t / total, algo))
        rates_q = [r for r, a in flips if a is RingAlgo.PASS_Q]
        rates_kv = [r for r, a in flips if a is RingAlgo.PASS_KV]
        assert rates_q and rates_kv
        assert max(rates_q) < min(rates_kv)
        assert 0.02 <= max(rates_q) <= 0.05

    def test_ttft_linear_in_miss_rate(self, sim):
        """Table 4: TTFT grows ~linearly with miss rate at fixed T+P."""
        total = 128000
        samples = [
            sim.cp_prefill(t, total - t, n_ranks=4, algo=RingAlgo.PASS_KV).total
            for t in (12800, 25600, 51200, 102400)
        ]
        # doubling T should roughly double (attention-dominated) latency
        for a, b in zip(samples, samples[1:]):
            assert 1.5 < b / a < 2.2


class TestBreakdownConsistency:
    def test_components_sum(self, sim):
        r = sim.cp_prefill(131072, n_ranks=4, algo=RingAlgo.PASS_Q)
        reconstructed = r.gemm + r.attn + r.exposed_comm + r.all2all + r.overhead
        assert r.total == pytest.approx(reconstructed, rel=1e-9)

    def test_passkv_has_no_all2all(self, sim):
        assert sim.cp_prefill(131072, n_ranks=4, algo=RingAlgo.PASS_KV).all2all == 0.0

    def test_single_rank_has_no_comm(self, sim):
        r = sim.cp_prefill(131072, n_ranks=1)
        assert r.sendrecv_per_iter == 0.0
        assert r.exposed_comm == 0.0

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            sim.cp_prefill(0, n_ranks=4)
        with pytest.raises(ValueError):
            sim.cp_prefill(100, n_ranks=0)
        with pytest.raises(ValueError):
            sim.tp_prefill(100, n_nodes=0)
