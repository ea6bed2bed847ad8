"""The serving grid's checks raise without ``assert`` statements, so they
hold under ``python -O``; each failure names the experiment and the cell."""

import pytest

from repro.experiments import serving_grid
from repro.model.config import tiny_config
from repro.runtime import ContinuousBatchingRuntime, ServeConfig
from repro.workloads.generator import WorkloadGenerator

CELLS = {"chunk 16": ServeConfig(world=1), "chunk 8": ServeConfig(world=1, chunk=8)}


def scripts():
    gen = WorkloadGenerator(tiny_config().vocab_size, seed=5)
    return [gen.conversation(sid, turns=2, first_prompt=12) for sid in range(2)]


def test_clean_cells_return_reports_in_cell_order():
    reports = serving_grid.run_grid("Probe", scripts(), CELLS)
    assert list(reports) == list(CELLS)
    assert all(report.statuses() == {"finished": 4} for report in reports.values())


def test_a_diverging_cell_raises_naming_experiment_and_cell(monkeypatch):
    replay = serving_grid.replay_scripts_sequential

    def off_by_one(make_engine, scripts):
        reference = replay(make_engine, scripts)
        first = next(iter(reference))
        reference[first][-1][0] += 1
        return reference

    monkeypatch.setattr(serving_grid, "replay_scripts_sequential", off_by_one)
    with pytest.raises(AssertionError, match=r"^Probe \[chunk 16\]: seq 0 turn 1 diverged"):
        serving_grid.run_grid("Probe", scripts(), CELLS)


def test_a_leaking_cell_raises_naming_experiment_and_cell(monkeypatch):
    monkeypatch.setattr(
        ContinuousBatchingRuntime, "kv_leak_report", lambda self: ["rank 0: seeded leak"]
    )
    with pytest.raises(AssertionError, match=r"^Probe \[chunk 16\]: rank 0: seeded leak$"):
        serving_grid.run_grid("Probe", scripts(), CELLS)
