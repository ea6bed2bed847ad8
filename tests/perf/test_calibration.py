"""Regression tests pinning the latency model near the paper's numbers.

Every number comes from the ``PAPER_*`` constant of the experiment module
that regenerates its table or figure, so each published number has one
home; the model must stay within tolerance of each. If a constant drifts,
the corresponding number fails by name. The qualitative claims (orderings,
ratios, trends) are in ``tests/experiments/test_paper_claims.py``.
"""

import pytest

from repro.core.heuristics import RingAlgo
from repro.experiments.fig6_prefill_scaling import PAPER_CP8_128K_S
from repro.experiments.fig8_million_token import (
    PAPER_FIG8_CP16_TTFT,
    PAPER_FIG8_MFU,
    PAPER_FIG8_TF_PER_GPU,
)
from repro.experiments.table4_fig9_partial_prefill import PAPER_TABLE4
from repro.experiments.table5_breakdown import PAPER_TABLE5
from repro.experiments.table6_ttft_ttit import PAPER_TABLE6
from repro.experiments.table7_parallelism import PAPER_TABLE7
from repro.experiments.table8_decode_attention import PAPER_TABLE8
from repro.model.config import llama3_405b_config
from repro.perf.flops import achieved_flops_per_gpu, mfu, model_flops
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator


@pytest.fixture(scope="module")
def sim():
    return LatencySimulator(llama3_405b_config(), gtt_host())


def within(model, paper, rel):
    assert model == pytest.approx(paper, rel=rel), (
        f"model {model:.4g} vs paper {paper:.4g} (tol {rel:.0%})"
    )


class TestPrefillAnchors:
    def test_tp8_128k_ttft(self, sim):
        within(sim.tp_prefill(131072, n_nodes=1).total * 1e3, PAPER_TABLE6[131072][0], 0.10)

    def test_tp8_8k_ttft(self, sim):
        within(sim.tp_prefill(8192, n_nodes=1).total * 1e3, PAPER_TABLE6[8192][0], 0.10)

    def test_tp8_32k_ttft(self, sim):
        within(sim.tp_prefill(32768, n_nodes=1).total * 1e3, PAPER_TABLE6[32768][0], 0.10)

    def test_tp16_128k_ttft(self, sim):
        within(sim.tp_prefill(131072, n_nodes=2).total * 1e3, PAPER_TABLE7["TP16"][0], 0.10)

    def test_tp32_128k_ttft(self, sim):
        within(sim.tp_prefill(131072, n_nodes=4).total * 1e3, PAPER_TABLE7["TP32"][0], 0.12)

    def test_cp2_128k_ttft(self, sim):
        within(sim.cp_prefill(131072, n_ranks=2).total * 1e3, PAPER_TABLE7["CP2+TP8"][0], 0.10)

    def test_cp4_128k_ttft(self, sim):
        within(sim.cp_prefill(131072, n_ranks=4).total * 1e3, PAPER_TABLE7["CP4+TP8"][0], 0.10)

    def test_cp8_128k_ttft(self, sim):
        within(sim.cp_prefill(131072, n_ranks=8).total, PAPER_CP8_128K_S, 0.10)

    def test_cp16_1m_ttft(self, sim):
        """The headline: 1M tokens in 77 s on 128 GPUs."""
        within(sim.cp_prefill(1048576, n_ranks=16).total, PAPER_FIG8_CP16_TTFT[1048576], 0.06)

    def test_cp16_128k_ttft(self, sim):
        within(sim.cp_prefill(131072, n_ranks=16).total, PAPER_FIG8_CP16_TTFT[131072], 0.15)

    def test_cp16_1m_tflops_per_gpu(self, sim):
        """Appendix A: achieved FLOP/s per GPU over the 1M prefill."""
        cfg, gpus = sim.config, 16 * sim.host.gpus_per_host
        ttft = sim.cp_prefill(1048576, n_ranks=16).total
        tflops = achieved_flops_per_gpu(model_flops(cfg, 1048576), ttft, gpus) / 1e12
        within(tflops, PAPER_FIG8_TF_PER_GPU, 0.10)

    def test_cp16_1m_mfu(self, sim):
        cfg, gpus = sim.config, 16 * sim.host.gpus_per_host
        ttft = sim.cp_prefill(1048576, n_ranks=16).total
        got = mfu(model_flops(cfg, 1048576), ttft, gpus, sim.host.gpu.peak_flops)
        assert got == pytest.approx(PAPER_FIG8_MFU, abs=0.07)


class TestPartialPrefillAnchors:
    def test_table4_passkv_1pct(self, sim):
        r = sim.cp_prefill(1280, 126720, n_ranks=4, algo=RingAlgo.PASS_KV)
        within(r.total * 1e3, PAPER_TABLE4[0.01][0], 0.10)

    def test_table4_passq_1pct(self, sim):
        r = sim.cp_prefill(1280, 126720, n_ranks=4, algo=RingAlgo.PASS_Q)
        within(r.total * 1e3, PAPER_TABLE4[0.01][1], 0.10)

    def test_table4_passkv_100pct(self, sim):
        r = sim.cp_prefill(128000, 0, n_ranks=4, algo=RingAlgo.PASS_KV)
        within(r.total * 1e3, PAPER_TABLE4[1.0][0], 0.10)

    def test_table4_passq_100pct(self, sim):
        r = sim.cp_prefill(128000, 0, n_ranks=4, algo=RingAlgo.PASS_Q)
        within(r.total * 1e3, PAPER_TABLE4[1.0][1], 0.10)

    def test_table5_sendrecv_2p5pct(self, sim):
        r = sim.cp_prefill(3200, 124800, n_ranks=4, algo=RingAlgo.PASS_KV)
        within(r.sendrecv_per_iter * 1e6, PAPER_TABLE5[0.025]["pass-kv"][0], 0.10)

    def test_table5_attn_2p5pct(self, sim):
        r = sim.cp_prefill(3200, 124800, n_ranks=4, algo=RingAlgo.PASS_KV)
        within(r.attn_per_iter * 1e6, PAPER_TABLE5[0.025]["pass-kv"][1], 0.10)

    def test_table5_attn_10pct(self, sim):
        r = sim.cp_prefill(12800, 115200, n_ranks=4, algo=RingAlgo.PASS_KV)
        within(r.attn_per_iter * 1e6, PAPER_TABLE5[0.1]["pass-kv"][1], 0.10)

    def test_table5_all2all_10pct(self, sim):
        r = sim.cp_prefill(12800, 115200, n_ranks=4, algo=RingAlgo.PASS_Q)
        within(r.all2all / 126 * 1e6, PAPER_TABLE5[0.1]["pass-q"][2], 0.15)

    def test_table5_passkv_exposed_at_low_miss(self, sim):
        """At 2.5% miss, pass-KV SendRecv > ATTN (communication exposed);
        at 10% it hides — the paper's §4.2.4 narrative."""
        low = sim.cp_prefill(3200, 124800, n_ranks=4, algo=RingAlgo.PASS_KV)
        high = sim.cp_prefill(12800, 115200, n_ranks=4, algo=RingAlgo.PASS_KV)
        assert low.sendrecv_per_iter > low.attn_per_iter
        assert high.sendrecv_per_iter < high.attn_per_iter


class TestDecodeAnchors:
    def test_tp8_ttit_128k(self, sim):
        within(sim.tp_decode(131072, n_nodes=1).total * 1e3, PAPER_TABLE6[131072][1], 0.10)

    def test_tp8_attn_op(self, sim):
        within(sim.tp_decode(131072, n_nodes=1).attn_op * 1e6, PAPER_TABLE8[(131072, 1, 1)][0], 0.12)

    def test_cp2_ttit_128k(self, sim):
        within(sim.cp_decode(131072, n_ranks=2).total * 1e3, PAPER_TABLE7["CP2+TP8"][1], 0.10)

    def test_cp2_whole_passq(self, sim):
        within(sim.cp_decode(131072, n_ranks=2).whole_attn * 1e6, PAPER_TABLE8[(131072, 1, 2)][4], 0.10)

    def test_cp4_ttit_128k(self, sim):
        within(sim.cp_decode(131072, n_ranks=4).total * 1e3, PAPER_TABLE7["CP4+TP8"][1], 0.10)

    def test_cp4_whole_passq(self, sim):
        within(sim.cp_decode(131072, n_ranks=4).whole_attn * 1e6, PAPER_TABLE8[(131072, 1, 4)][4], 0.10)

    def test_tp16_ttit(self, sim):
        within(sim.tp_decode(131072, n_nodes=2).total * 1e3, PAPER_TABLE7["TP16"][1], 0.10)

    def test_tp32_ttit(self, sim):
        within(sim.tp_decode(131072, n_nodes=4).total * 1e3, PAPER_TABLE7["TP32"][1], 0.10)

    def test_table8_attn_ops_by_rank(self, sim):
        """Individual attention op shrinks with effective context."""
        within(sim.cp_decode(131072, n_ranks=2).attn_op * 1e6, PAPER_TABLE8[(131072, 1, 2)][0], 0.10)
        within(sim.cp_decode(131072, n_ranks=4).attn_op * 1e6, PAPER_TABLE8[(131072, 1, 4)][0], 0.10)
