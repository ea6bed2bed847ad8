"""Tests for paper-vs-model deviation accounting (+ the global budget)."""

import pytest

from repro.experiments import (
    compare,
    table4_fig9_partial_prefill,
    table6_ttft_ttit,
    table7_parallelism,
    table8_decode_attention,
)
from repro.experiments.base import ExperimentResult


class TestPairing:
    def test_pairs_found(self):
        res = ExperimentResult("T", "d", ["x", "paper x", "y"])
        assert compare.paired_columns(res) == [("x", "paper x")]

    def test_no_pairs(self):
        res = ExperimentResult("T", "d", ["a", "b"])
        assert compare.paired_columns(res) == []

    def test_deviation_math(self):
        res = ExperimentResult("T", "d", ["v", "paper v"])
        res.add_row(110.0, 100.0)
        res.add_row(95.0, 100.0)
        (d,) = compare.deviations(res)
        assert d.n == 2
        assert d.mean_rel == pytest.approx(0.075)
        assert d.max_rel == pytest.approx(0.10)

    def test_zero_paper_values_skipped(self):
        res = ExperimentResult("T", "d", ["v", "paper v"])
        res.add_row(5.0, 0.0)
        assert compare.deviations(res) == []


class TestGlobalBudget:
    """The reproduction-wide regression guard."""

    @pytest.fixture(scope="class")
    def comparable(self):
        return [
            table4_fig9_partial_prefill.run(),
            table6_ttft_ttit.run(),
            table7_parallelism.run(),
            table8_decode_attention.run(),
        ]

    # known deviations, each wider than the 15% default:
    # - CP2 TTFT at 8K is dominated by fixed costs our model over-charges;
    # - decode "whole pass-Q" at batch 4 misses unmodelled per-sequence
    #   kernel overheads on the single-host row.
    BUDGETS = {"CP2 TTFT": 0.60, "whole pass-Q": 0.45}

    def test_every_column_within_budget(self, comparable):
        for result in comparable:
            for d in compare.deviations(result):
                budget = self.BUDGETS.get(d.column, 0.15)
                assert d.max_rel < budget, f"{d.experiment_id}/{d.column}: {d.max_rel:.1%}"

    def test_mean_deviation_small(self, comparable):
        devs = [d for r in comparable for d in compare.deviations(r)]
        overall = sum(d.mean_rel * d.n for d in devs) / sum(d.n for d in devs)
        assert overall < 0.08, f"mean reproduction deviation {overall:.1%}"

    def test_report_renders(self, comparable):
        report = compare.deviation_report(comparable)
        assert len(report.rows) >= 6
        text = report.render()
        assert "Table 4" in text
