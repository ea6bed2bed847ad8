"""Tests for the lockstep simulated process group."""

import numpy as np
import pytest

from repro.core.sharding import ShardedKV
from repro.distributed.process_group import SimProcessGroup, payload_elements
from repro.distributed.topology import gtt_topology
from repro.obs import RecordingTracer

from helpers import comm, traced_group


class TestPayloadElements:
    def test_array(self):
        assert payload_elements(np.zeros((3, 4))) == 12

    def test_nested(self):
        payload = {"a": [np.zeros(2), np.zeros(3)], "b": (np.zeros(5), 1.0)}
        assert payload_elements(payload) == 11

    def test_none(self):
        assert payload_elements(None) == 0

    def test_dataclass(self):
        kv = ShardedKV(
            k=np.zeros((2, 2, 4)), v=np.zeros((2, 2, 4)),
            positions=np.zeros(2, dtype=np.int64), seq_ids=np.zeros(2, dtype=np.int64),
        )
        assert payload_elements(kv) == 16 + 16 + 2 + 2

    def test_unsupported(self):
        with pytest.raises(TypeError):
            payload_elements(object())


class TestRingShift:
    def test_rotation(self):
        g = SimProcessGroup(4)
        payloads = [np.full(3, k) for k in range(4)]
        shifted = g.ring_shift(payloads)
        for k in range(4):
            np.testing.assert_array_equal(shifted[k], payloads[(k - 1) % 4])

    def test_no_aliasing(self):
        """Buffers are shared, not copied, and frozen at send: a write on
        either side raises at the faulty line instead of reaching the peer."""
        g = SimProcessGroup(2)
        payloads = [{"x": np.zeros(3)}, {"x": np.ones(3)}]
        shifted = g.ring_shift(payloads)
        assert shifted[0] is not payloads[1]  # containers are rebuilt
        assert np.shares_memory(shifted[0]["x"], payloads[1]["x"])
        with pytest.raises(ValueError, match="read-only"):
            shifted[0]["x"][0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            payloads[1]["x"][0] = 99.0
        assert payloads[1]["x"][0] == 1.0

    def test_collectives_freeze_every_payload_array(self):
        g = SimProcessGroup(2)
        sent = [[(np.zeros(2), np.ones(2)) for _ in range(2)] for _ in range(2)]
        received = g.all_to_all(sent)
        gathered = g.all_gather([np.zeros(2), np.ones(2)])
        for arr in (received[0][1][0], received[1][0][1], gathered[0][1], gathered[1][0]):
            assert not arr.flags.writeable

    def test_singleton_world(self):
        g = traced_group(1)
        out = g.ring_shift([np.arange(3)])
        np.testing.assert_array_equal(out[0], np.arange(3))
        assert g.tracer.events == []  # no wire traffic

    def test_bytes_accounting(self):
        g = traced_group(2, wire_bytes_per_element=2)
        g.ring_shift([np.zeros(10), np.zeros(7)])
        [event] = g.tracer.events
        assert event.attrs["bytes"] == 10 * 2  # max payload sets the step size

    def test_wrong_world_size(self):
        g = SimProcessGroup(3)
        with pytest.raises(ValueError):
            g.ring_shift([np.zeros(1)] * 2)


class TestAllToAll:
    def test_transpose_semantics(self):
        g = SimProcessGroup(3)
        matrix = [[np.array([src * 10 + dst]) for dst in range(3)] for src in range(3)]
        out = g.all_to_all(matrix)
        for dst in range(3):
            for src in range(3):
                assert out[dst][src][0] == src * 10 + dst

    def test_egress_accounting_excludes_self(self):
        g = traced_group(2, wire_bytes_per_element=2)
        matrix = [[np.zeros(5), np.zeros(5)], [np.zeros(5), np.zeros(5)]]
        g.all_to_all(matrix)
        assert comm(g)["all2all"].bytes == 5 * 2  # one off-diagonal payload per rank

    def test_non_square_rejected(self):
        g = SimProcessGroup(2)
        with pytest.raises(ValueError):
            g.all_to_all([[np.zeros(1)], [np.zeros(1)]])


class TestAllGather:
    def test_everyone_sees_everything(self):
        g = SimProcessGroup(3)
        out = g.all_gather([np.full(2, k) for k in range(3)])
        for k in range(3):
            for s in range(3):
                np.testing.assert_array_equal(out[k][s], np.full(2, s))

    def test_bytes_scale_with_world(self):
        g2 = traced_group(2, wire_bytes_per_element=2)
        g4 = traced_group(4, wire_bytes_per_element=2)
        g2.all_gather([np.zeros(8)] * 2)
        g4.all_gather([np.zeros(8)] * 4)
        assert comm(g4)["allgather"].bytes == 3 * comm(g2)["allgather"].bytes


class TestAllReduce:
    def test_sum(self):
        g = SimProcessGroup(3)
        out = g.all_reduce_sum([np.full(4, float(k)) for k in range(3)])
        for arr in out:
            np.testing.assert_array_equal(arr, np.full(4, 3.0))

    def test_shape_mismatch(self):
        g = SimProcessGroup(2)
        with pytest.raises(ValueError):
            g.all_reduce_sum([np.zeros(3), np.zeros(4)])


class TestUntracedGroup:
    """The default group (every serving engine's) does no byte walk and
    keeps nothing per collective."""

    def test_no_attribute_changes_however_many_collectives(self):
        g = SimProcessGroup(4)
        before = {name: repr(value) for name, value in vars(g).items()}
        for step in range(40):
            g.ring_shift([np.zeros(8)] * 4, step=step)
            g.all_to_all([[np.zeros(2)] * 4] * 4)
            g.all_gather([np.zeros(3)] * 4)
            g.all_reduce_sum([np.ones(5)] * 4)
        assert {name: repr(value) for name, value in vars(g).items()} == before

    def test_payload_nbytes_still_answers(self):
        """The e2e benchmark's payload counter calls it on untraced groups."""
        g = SimProcessGroup(2, wire_bytes_per_element=2)
        assert g.payload_nbytes([np.zeros(10), {"a": np.zeros(3)}]) == 26

    def test_attaching_a_recorder_later_starts_recording(self):
        g = SimProcessGroup(2)
        g.ring_shift([np.zeros(4)] * 2)
        g.tracer = RecordingTracer()
        g.ring_shift([np.zeros(4)] * 2, step=1, tag="passkv")
        [event] = g.tracer.events
        assert (event.name, event.t, event.pool) == ("sendrecv", 0.0, "comm")
        assert event.attrs == {"step": 1, "bytes": 8, "tag": "passkv"}


class TestConstruction:
    def test_topology_world_mismatch(self):
        with pytest.raises(ValueError):
            SimProcessGroup(4, topology=gtt_topology(2))

    def test_matching_topology(self):
        g = SimProcessGroup(2, topology=gtt_topology(2))
        assert g.topology.name == "GTT-2n"

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SimProcessGroup(0)
        with pytest.raises(ValueError):
            SimProcessGroup(2, wire_bytes_per_element=0)
