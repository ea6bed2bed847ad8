"""Tests for message sizes and overlap predicates (Tables 2-3, Eqs. 1-3)."""

from dataclasses import replace

import pytest

from repro.core.heuristics import HeuristicConfig
from repro.model.config import llama3_405b_config, tiny_config
from repro.perf.roofline import all2all_bytes, kv_bytes, q_bytes, tp_block_comm_bytes


CFG = llama3_405b_config()


class TestMessageSizes:
    def test_q_bytes_formula(self):
        assert q_bytes(CFG, 1000) == 1000 * 16384 * 2

    def test_kv_bytes_gqa_ratio(self):
        """KV messages are 16x smaller than Q for Llama3 405B (§3.2)."""
        t = 10000
        assert q_bytes(CFG, t) / kv_bytes(CFG, t, 0) == pytest.approx(
            CFG.n_heads / (2 * CFG.n_kv_heads)
        )

    def test_kv_bytes_include_cache(self):
        assert kv_bytes(CFG, 100, 900) == kv_bytes(CFG, 1000, 0)

    def test_table2_cp_vs_tp(self):
        """Table 2: per block, TP moves 2*T*NH*DH vs CP's T*NKV*DH-scale
        KV traffic — a 16x gap for full prefill on this model."""
        t = 131072
        tp = tp_block_comm_bytes(CFG, t)
        cp = kv_bytes(CFG, t, 0)
        assert tp / cp == pytest.approx(16.0)


def overlap_config(model, n_ranks):
    """The Eq. 2/3 thresholds of ``model`` on GTT hosts (8 x 540 TF/s,
    220 GB/s ring bandwidth)."""
    return HeuristicConfig(
        n_heads=model.n_heads,
        n_kv_heads=model.n_kv_heads,
        element_bytes=2.0,
        peak_compute=8 * 540e12,
        bandwidth=220e9,
        world_size=n_ranks,
    )


class TestOverlapPredicates:
    def test_eq2_monotone_in_t(self):
        threshold = overlap_config(CFG, 4).passkv_overlap_threshold
        assert 100 < threshold <= 128000

    def test_eq2_threshold_independent_of_p(self):
        """The paper stresses the pass-KV threshold doesn't involve P."""
        assert overlap_config(CFG, 4).passkv_overlap_threshold <= 12800
        # (no P field even exists in the configuration)

    def test_eq3_total_context(self):
        threshold = overlap_config(CFG, 4).passq_overlap_threshold
        assert 1000 < threshold <= 128000

    def test_more_ranks_raise_thresholds(self):
        t = 15000
        assert overlap_config(CFG, 4).passkv_overlap_threshold <= t
        assert overlap_config(CFG, 16).passkv_overlap_threshold > t

    def test_gqa_ratio_matters(self):
        """An MHA model (NKV == NH) has 16x bigger KV messages, making
        pass-KV much harder to hide."""
        mha = replace(tiny_config(), n_kv_heads=8)
        gqa = replace(tiny_config(), n_kv_heads=1)
        t = 60000
        assert overlap_config(gqa, 4).passkv_overlap_threshold <= t
        assert overlap_config(mha, 4).passkv_overlap_threshold > t


class TestAll2AllBytes:
    def test_appendix_c_formula(self):
        """(N-1) partials of (D+1) values per token."""
        n, tokens = 4, 3200
        expected = 3 * tokens * (16384 + 1) * 2
        assert all2all_bytes(CFG, tokens, n) == expected

    def test_single_rank_zero(self):
        assert all2all_bytes(CFG, 100, 1) == 0
