"""Tests for the pass-KV/pass-Q selection heuristics (Eqs. 1-3, 5)."""

import sys

import numpy as np
import pytest

from repro.core.heuristics import (
    PAPER_EMPIRICAL_COEFFS,
    HeuristicConfig,
    RingAlgo,
    empirical_score,
    fit_empirical,
    miss_rate,
    select_algo_empirical,
    select_algo_simple,
    select_algo_with_all2all,
)


def llama405b_cp4_config(**overrides) -> HeuristicConfig:
    """Llama3 405B on 4 GTT hosts — the Table 4 configuration."""
    params = dict(
        n_heads=128,
        n_kv_heads=8,
        element_bytes=2.0,
        peak_compute=8 * 540e12,
        bandwidth=220e9,
        world_size=4,
    )
    params.update(overrides)
    return HeuristicConfig(**params)


class TestThresholds:
    def test_equation1_constant(self):
        assert llama405b_cp4_config().kv_message_ratio == pytest.approx(0.125)

    def test_equation2_threshold_scales_with_ranks(self):
        t4 = llama405b_cp4_config().passkv_overlap_threshold
        t8 = llama405b_cp4_config(world_size=8).passkv_overlap_threshold
        assert t8 == pytest.approx(2 * t4)

    def test_equation2_magnitude(self):
        """For 405B on CP4/GTT the overlap threshold is a few thousand
        tokens (the paper validates pass-KV staying hidden at T=12800)."""
        t = llama405b_cp4_config().passkv_overlap_threshold
        assert 1000 < t < 12800

    def test_equation3_threshold(self):
        cfg = llama405b_cp4_config()
        expected = 4 * 2.0 * 8 * 540e12 / (4 * 220e9)
        assert cfg.passq_overlap_threshold == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            llama405b_cp4_config(n_heads=10, n_kv_heads=3)
        with pytest.raises(ValueError):
            llama405b_cp4_config(bandwidth=0)
        with pytest.raises(ValueError):
            llama405b_cp4_config(world_size=0)


class TestMissRate:
    def test_values(self):
        assert miss_rate(10, 90) == pytest.approx(0.1)
        assert miss_rate(5, 0) == 1.0
        assert miss_rate(0, 0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            miss_rate(-1, 5)


class TestAlgorithm1:
    def test_full_prefill_selects_passkv(self):
        cfg = llama405b_cp4_config()
        assert select_algo_simple(cfg, 128000, 0) is RingAlgo.PASS_KV

    def test_decode_selects_passq(self):
        cfg = llama405b_cp4_config()
        assert select_algo_simple(cfg, 1, 128000) is RingAlgo.PASS_Q

    def test_miss_rate_branch(self):
        """Above 12.5% miss rate pass-KV wins regardless of T (Eq. 1)."""
        cfg = llama405b_cp4_config()
        # tiny T (below Eq. 2 threshold) but high miss rate
        assert select_algo_simple(cfg, 100, 500) is RingAlgo.PASS_KV

    def test_low_miss_small_t_selects_passq(self):
        cfg = llama405b_cp4_config()
        t = 1280
        p = 126720  # 1% miss
        assert t < cfg.passkv_overlap_threshold
        assert select_algo_simple(cfg, t, p) is RingAlgo.PASS_Q

    def test_table4_large_t_branch(self):
        """At 10% miss (T=12800 > Eq. 2 threshold) pass-KV remains chosen
        because SendRecv hides under ATTN — the paper's §4.2.4 validation."""
        cfg = llama405b_cp4_config()
        assert 12800 >= cfg.passkv_overlap_threshold
        assert select_algo_simple(cfg, 12800, 115200) is RingAlgo.PASS_KV


class TestAlgorithm5:
    def test_all2all_penalty_shrinks_passq_region(self):
        """Algorithm 5 only moves choices from pass-Q to pass-KV."""
        cfg = llama405b_cp4_config()
        total = 128000
        for t in range(256, 16001, 256):
            simple = select_algo_simple(cfg, t, total - t)
            refined = select_algo_with_all2all(cfg, t, total - t)
            if simple is RingAlgo.PASS_KV:
                assert refined is RingAlgo.PASS_KV

    def test_boundary_point_flips(self):
        """The paper's 3.25% row: Algorithm 1 says pass-Q, but charging the
        All2All moves the boundary down."""
        cfg = llama405b_cp4_config()
        t, p = 4160, 123840
        assert select_algo_simple(cfg, t, p) is RingAlgo.PASS_Q
        assert select_algo_with_all2all(cfg, t, p) is RingAlgo.PASS_KV

    def test_extreme_hit_rate_still_passq(self):
        cfg = llama405b_cp4_config()
        assert select_algo_with_all2all(cfg, 1280, 126720) is RingAlgo.PASS_Q


class TestEmpiricalModel:
    def test_paper_coefficients_exposed(self):
        assert PAPER_EMPIRICAL_COEFFS == (-1.059, 1.145, 12.112)

    def test_score_monotonic_in_miss_rate(self):
        """At fixed T, increasing miss rate pushes toward pass-KV."""
        scores = [empirical_score(1000, p) for p in (99000, 9000, 0)]
        assert scores == sorted(scores)

    def test_selector_consistency(self):
        t, p = 100, 100000
        expected = RingAlgo.PASS_KV if empirical_score(t, p) > 0 else RingAlgo.PASS_Q
        assert select_algo_empirical(t, p) is expected

    def test_requires_new_tokens(self):
        with pytest.raises(ValueError):
            empirical_score(0, 100)

    def test_fit_recovers_planted_boundary(self):
        """fit_empirical recovers a linear decision boundary from labels."""
        pytest.importorskip("scipy")  # the "fit" extra; CI runs without it
        rng = np.random.default_rng(0)
        true = (-1.2, 1.4, 10.0)
        t = rng.integers(64, 200000, size=600).astype(float)
        rate = rng.uniform(0.001, 1.0, size=600)
        p = t / rate - t
        h = true[0] * np.log(t) + true[1] * np.log(rate) + true[2]
        labels = h > 0
        fitted = fit_empirical(t, p, labels)
        h_fit = fitted[0] * np.log(t) + fitted[1] * np.log(rate) + fitted[2]
        agreement = np.mean((h_fit > 0) == labels)
        assert agreement > 0.97

    def test_fit_without_scipy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)  # import raises ImportError
        with pytest.raises(ImportError, match=r"repro\[fit\]"):
            fit_empirical(np.array([8.0]), np.array([1.0]), np.array([True]))

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_empirical(np.array([1.0, 2.0]), np.array([1.0]), np.array([True]))
        with pytest.raises(ValueError):
            fit_empirical(np.array([0.0]), np.array([1.0]), np.array([True]))
