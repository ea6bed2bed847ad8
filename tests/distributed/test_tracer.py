"""Collective tracing: `SimProcessGroup` spans through the one tracer,
totalled by `repro.obs.comm_totals`."""

import numpy as np
import pytest

from repro.obs import CommTotal, RecordingTracer, comm_totals

from helpers import comm, traced_group


class TestCommTracer:
    def test_record_and_aggregate(self):
        g = traced_group(2)
        g.ring_shift([np.zeros(50)] * 2, step=0)
        g.ring_shift([np.zeros(100)] * 2, step=1)
        g.all_to_all([[np.zeros(25)] * 2] * 2)
        totals = comm(g)
        assert len(g.tracer.events) == 3
        assert sum(t.bytes for t in totals.values()) == 350
        assert totals["sendrecv"] == CommTotal(
            2, 300, g.tracer.events[0].dur + g.tracer.events[1].dur
        )
        assert totals["all2all"].seconds == pytest.approx(g.tracer.events[2].dur)
        assert {k: t.bytes for k, t in totals.items() if t.count} == {
            "sendrecv": 300, "all2all": 50,
        }

    def test_clear(self):
        """A fresh recorder starts empty; the group-local clock runs on."""
        g = traced_group(2)
        g.ring_shift([np.zeros(4)] * 2)
        elapsed = g.tracer.events[0].dur
        g.tracer = RecordingTracer()
        assert comm(g)["sendrecv"] == CommTotal()
        g.ring_shift([np.zeros(4)] * 2)
        assert g.tracer.events[0].t == elapsed

    def test_iteration(self):
        g = traced_group(2)
        g.ring_shift([np.zeros(1)] * 2)
        g.all_gather([np.zeros(2)] * 2)
        assert [e.name for e in g.tracer.events] == ["sendrecv", "allgather"]
        # laid end to end on the group-local clock
        first, second = g.tracer.events
        assert second.t == first.t + first.dur

    def test_summary_lists_kinds(self):
        """Every kind is present in the totals, used or not."""
        g = traced_group(2)
        g.ring_shift([np.zeros(5)] * 2)
        g.all_reduce_sum([np.zeros(10)] * 2)
        totals = comm(g)
        assert sorted(totals) == ["all2all", "allgather", "allreduce", "sendrecv"]
        assert [k for k, t in totals.items() if t.count] == ["sendrecv", "allreduce"]

    def test_compute_events_carry_no_bytes(self):
        """Runtime spans on the same recorder are not collectives."""
        tracer = RecordingTracer()
        tracer.span("decode_round", 0.0, 0.5, pool="decode", seqs=1)
        assert all(t == CommTotal() for t in comm_totals(tracer.events).values())
