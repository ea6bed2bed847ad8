"""Tests for workload replay glue."""

from types import SimpleNamespace

from repro.runtime.state import RequestState
from repro.workloads import replay

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

