"""Tests for the experiment parameter grids."""

import pytest

from repro.workloads import traces


class TestTraces:
    def test_table4_sums(self):
        for p, t in traces.TABLE4_SWEEP:
            assert p + t == traces.TABLE4_TOTAL

    def test_fig6_range(self):
        assert traces.FIG6_CONTEXT_LENGTHS[0] == 2048
        assert traces.FIG6_CONTEXT_LENGTHS[-1] == 131072
        assert traces.FIG6_CONTEXT_LENGTHS == sorted(traces.FIG6_CONTEXT_LENGTHS)

    def test_fig8_reaches_1m(self):
        assert traces.FIG8_CONTEXT_LENGTHS[-1] == 1_048_576
        assert traces.FIG8_RANKS == [8, 16]

    def test_table7_configs(self):
        labels = [label for label, _, _ in traces.TABLE7_CONFIGS]
        assert "CP4+TP8" in labels and "TP32" in labels

    def test_table5_points_match_paper(self):
        rates = [t / (p + t) for p, t in traces.TABLE5_POINTS]
        assert rates == pytest.approx([0.025, 0.10])

    def test_table8_scenarios(self):
        (ctx1, b1, ranks1), (ctx2, b2, ranks2) = traces.TABLE8_SCENARIOS
        assert (ctx1, b1) == (131072, 1)
        assert (ctx2, b2) == (32768, 4)
        assert ranks1 == ranks2 == [1, 2, 4]
