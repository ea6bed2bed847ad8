"""Tests for workload replay glue."""

from types import SimpleNamespace

import pytest

from repro.runtime.state import RequestState
from repro.workloads import replay
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.replay import script_to_arrivals

FINISHED, SHED = RequestState.FINISHED, RequestState.SHED

#: One conversation of three turns and the tokens its sequential replay decodes.
RIDS = {7: [0, 1, 2]}
REFERENCE = {7: [[1, 2], [3, 4], [5, 6]]}


def run_report(*turns):
    """A report whose request ``i`` ended in ``turns[i] = (state, tokens)``;
    ``divergences`` reads only ``record``."""
    records = [SimpleNamespace(state=s, generated=list(g)) for s, g in turns]
    return SimpleNamespace(record=records.__getitem__)


class TestDivergences:
    """Called through the module so the mutation catalogue's patched
    ``divergences`` is the one under test."""

    def test_exact_run_has_none(self):
        report = run_report(*((FINISHED, toks) for toks in REFERENCE[7]))
        assert replay.divergences(report, RIDS, REFERENCE) == []

    def test_divergence_in_a_later_turn_is_reported(self):
        report = run_report((FINISHED, [1, 2]), (FINISHED, [3, 4]), (FINISHED, [5, 0]))
        assert replay.divergences(report, RIDS, REFERENCE) == [
            "seq 7 turn 2 diverged from sequential replay: [5, 0] != [5, 6]"
        ]

    def test_turn_finishing_after_its_shed_turn_is_reported(self):
        report = run_report((FINISHED, [1, 2]), (SHED, []), (FINISHED, [5, 6]))
        assert replay.divergences(report, RIDS, REFERENCE) == [
            "seq 7 turn 2 finished after turn 1 ended shed"
        ]

    def test_shed_tail_is_not_reported(self):
        """A shed turn's partial stream claims nothing, and neither do the
        turns it took down with it."""
        report = run_report((FINISHED, [1, 2]), (SHED, [3]), (SHED, []))
        assert replay.divergences(report, RIDS, REFERENCE) == []


class TestScriptToArrivals:
    def test_contexts_accumulate(self):
        gen = WorkloadGenerator(100, seed=1)
        script = gen.conversation(0, turns=3, first_prompt=50, followup_range=(4, 4),
                                  response_range=(2, 2))
        arrivals = script_to_arrivals([script])
        assert len(arrivals) == 3
        assert arrivals[0].context_tokens == 50
        # turn 2 context = 50 + 2 (response) + 4 (new prompt)
        assert arrivals[1].context_tokens == 56
        assert arrivals[2].context_tokens == 62

    def test_turn_spacing(self):
        gen = WorkloadGenerator(100, seed=2)
        script = gen.conversation(0, turns=2, first_prompt=10)
        arrivals = script_to_arrivals([script], turn_gap_s=5.0, start_offset_s=1.0)
        assert arrivals[0].time == pytest.approx(1.0)
        assert arrivals[1].time == pytest.approx(6.0)

    def test_multiple_conversations_staggered_and_sorted(self):
        gen = WorkloadGenerator(100, seed=3)
        scripts = [gen.conversation(i, turns=2, first_prompt=10) for i in range(3)]
        arrivals = script_to_arrivals(scripts, turn_gap_s=10.0, start_offset_s=1.0)
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert len({a.request_id for a in arrivals}) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            script_to_arrivals([], turn_gap_s=-1)
