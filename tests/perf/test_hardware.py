"""Tests for hardware specs."""

import pytest

from repro.perf.hardware import gti_host, gtt_host


class TestHostSpecs:
    def test_gtt_aggregates(self):
        host = gtt_host()
        assert host.attn_flops == pytest.approx(8 * 540e12)
        assert host.gemm_flops == pytest.approx(8 * 560e12)
        assert host.hbm_bandwidth == pytest.approx(8 * 2.4e12)

    def test_gti_network_personality(self):
        gti = gti_host()
        gtt = gtt_host()
        # same compute, slower network
        assert gti.attn_flops == gtt.attn_flops
        assert gti.ring_bandwidth < gtt.ring_bandwidth / 5
        assert gti.message_latency > gtt.message_latency

    def test_gti_paper_achieved_bandwidth(self):
        """3 GB/s per GPU rank x 8 = 24 GB/s per host (§4.2.1)."""
        assert gti_host().ring_bandwidth == pytest.approx(24e9)

    def test_h100_power_limited_peak(self):
        """Appendix A: 800 TF/s BF16 peak for the 500 W HBM2e part."""
        assert gtt_host().gpu.peak_flops == pytest.approx(800e12)
        assert gtt_host().gpu.hbm_bandwidth == pytest.approx(2.4e12)

