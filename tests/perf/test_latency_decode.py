"""Behavioral tests for the decode latency model (§4.3 shape properties)."""

import pytest

from repro.model.config import llama3_405b_config
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator


@pytest.fixture(scope="module")
def sim():
    return LatencySimulator(llama3_405b_config(), gtt_host())


class TestContextScalability:
    def test_ttit_flat_in_context(self, sim):
        """Table 6: TTIT barely moves from 8K to 128K (weights dominate)."""
        t8k = sim.tp_decode(8192, n_nodes=1).total
        t128k = sim.tp_decode(131072, n_nodes=1).total
        assert (t128k - t8k) / t8k < 0.15

    def test_cp_ttit_flat_in_context(self, sim):
        t8k = sim.cp_decode(8192, n_ranks=2).total
        t128k = sim.cp_decode(131072, n_ranks=2).total
        assert (t128k - t8k) / t8k < 0.15


class TestParallelismScalability:
    def test_cp_decode_degrades_with_ranks(self, sim):
        """§4.3: CP decode TTIT *increases* with more hosts."""
        ttits = [sim.cp_decode(131072, n_ranks=n).total for n in (1, 2, 4)]
        assert ttits == sorted(ttits)

    def test_individual_attn_op_shrinks(self, sim):
        """Table 8: per-op time falls as effective context shrinks..."""
        ops = [sim.cp_decode(131072, n_ranks=n).attn_op for n in (1, 2, 4)]
        assert ops == sorted(ops, reverse=True)

    def test_but_whole_passq_grows(self, sim):
        """...while the whole per-layer attention path grows (comm wins)."""
        wholes = [sim.cp_decode(131072, n_ranks=n).whole_attn for n in (1, 2, 4)]
        assert wholes == sorted(wholes)

    def test_tp4_nodes_worse_than_single(self, sim):
        """Table 7: 4-node decode can be slower than 1-node (both TP/CP)."""
        assert sim.tp_decode(131072, n_nodes=4).total > sim.tp_decode(131072, n_nodes=1).total
        assert sim.cp_decode(131072, n_ranks=4).total > sim.cp_decode(131072, n_ranks=1).total

    def test_weights_time_parallelizes_in_tp(self, sim):
        w1 = sim.tp_decode(131072, n_nodes=1).weights
        w2 = sim.tp_decode(131072, n_nodes=2).weights
        assert w2 == pytest.approx(w1 / 2)

    def test_weights_time_fixed_in_cp(self, sim):
        """CP replicates weights per rank — no weight-streaming speedup."""
        w1 = sim.cp_decode(131072, n_ranks=1).weights
        w4 = sim.cp_decode(131072, n_ranks=4).weights
        assert w4 == pytest.approx(w1)


class TestBatching:
    def test_batch4_32k_table8_shape(self, sim):
        """Table 8 lower panel: batch 4 at 32K follows the same pattern."""
        wholes = [sim.cp_decode(32768, batch=4, n_ranks=n).whole_attn for n in (1, 2, 4)]
        assert wholes == sorted(wholes)

    def test_batch_padding_effect(self, sim):
        """B=1 on CP4 still processes ceil(1/4)=1 query per rank: total
        queries processed rise from 1 to 4 — the padding overhead the
        paper calls out."""
        b1 = sim.cp_decode(131072, batch=1, n_ranks=4)
        b4 = sim.cp_decode(131072, batch=4, n_ranks=4)
        # same per-rank query count (1), so identical attention path
        assert b1.attn_op == pytest.approx(b4.attn_op)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            sim.cp_decode(0, n_ranks=2)
        with pytest.raises(ValueError):
            sim.cp_decode(100, batch=0, n_ranks=2)


class TestKVTransfer:
    def test_kv_transfer_scales_with_context(self, sim):
        """§4.3's prefill-to-decode KV stream is priced per token shipped."""
        assert sim.kv_transfer_s(262144) == pytest.approx(2 * sim.kv_transfer_s(131072))
