"""Tests for workload replay glue."""

import pytest

from repro.workloads.generator import WorkloadGenerator
from repro.workloads.replay import script_to_arrivals


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
