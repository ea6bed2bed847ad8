"""Tests for FLOP counting and MFU (Appendix A)."""

import pytest

from repro.experiments.fig8_million_token import (
    PAPER_FIG8_CP16_TTFT,
    PAPER_FIG8_MFU,
    PAPER_FIG8_TF_PER_GPU,
)
from repro.model.config import llama3_405b_config
from repro.perf.flops import (
    achieved_flops_per_gpu,
    attention_flops,
    attention_pairs,
    gemm_flops,
    mfu,
    model_flops,
    weight_bytes,
)


class TestAttentionPairs:
    def test_full_prefill_triangle(self):
        assert attention_pairs(4, 0) == 4 + 3 + 2 + 1

    def test_partial_prefill(self):
        assert attention_pairs(2, 10) == 2 * 10 + 3

    def test_decode_token(self):
        assert attention_pairs(1, 100) == 101

    def test_zero(self):
        assert attention_pairs(0, 50) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            attention_pairs(-1, 0)


class TestAppendixA:
    def test_1m_attention_flops(self):
        """Appendix A: ~4.1e18 attention FLOPs for 1M context."""
        cfg = llama3_405b_config()
        flops = attention_flops(cfg, 1_000_000, 0)
        # exact pair counting vs the paper's T^2/2 approximation
        assert flops == pytest.approx(4.13e18, rel=0.02)

    def test_1m_gemm_flops(self):
        """Appendix A: GEMM = 2 * 405B * 1M ~ 8.1e17."""
        cfg = llama3_405b_config()
        assert gemm_flops(cfg, 1_000_000) == pytest.approx(8.1e17, rel=0.02)

    def test_paper_mfu_calculation(self):
        """77 s on 128 H100s -> ~502 TF/s/GPU -> ~63% of 800 TF/s peak."""
        cfg = llama3_405b_config()
        total = model_flops(cfg, 1_000_000)
        ttft = PAPER_FIG8_CP16_TTFT[1048576]
        per_gpu = achieved_flops_per_gpu(total, ttft, 128)
        assert per_gpu == pytest.approx(PAPER_FIG8_TF_PER_GPU * 1e12, rel=0.05)
        assert mfu(total, ttft, 128, 800e12) == pytest.approx(PAPER_FIG8_MFU, abs=0.03)

    def test_attention_dominates_at_1m(self):
        cfg = llama3_405b_config()
        assert attention_flops(cfg, 1_000_000) > 4 * gemm_flops(cfg, 1_000_000)

    def test_gemm_dominates_at_8k(self):
        cfg = llama3_405b_config()
        assert gemm_flops(cfg, 8192) > 10 * attention_flops(cfg, 8192)


class TestWeightBytes:
    def test_mixed_precision_between_full_precisions(self):
        cfg = llama3_405b_config()
        assert cfg.param_count < weight_bytes(cfg) < 2 * cfg.param_count

    def test_ffn_dominates_405b(self):
        """FFN holds ~80% of 405B's parameters, so FP8 saves ~40%."""
        cfg = llama3_405b_config()
        assert weight_bytes(cfg) < 1.3 * cfg.param_count


class TestValidation:
    def test_mfu_validation(self):
        with pytest.raises(ValueError):
            mfu(1e18, 0, 8, 800e12)

    def test_gemm_validation(self):
        with pytest.raises(ValueError):
            gemm_flops(llama3_405b_config(), -1)
