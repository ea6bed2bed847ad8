"""Tests for the lockstep simulated process group."""

import numpy as np
import pytest

from repro.attention.flash import AttentionResult
from repro.core.engine import ContextParallelEngine
from repro.core.heuristics import RingAlgo
from repro.distributed.process_group import SimProcessGroup, payload_elements
from repro.model.config import llama3_405b_config, tiny_config
from repro.model.llama import LlamaModel
from repro.obs import RecordingTracer
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.perf.roofline import kv_bytes, q_bytes
from repro.serving.session import ChatSession

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
        """Every field is on the wire: a pass-Q step that fell back ships
        its normalised partial."""
        partial = AttentionResult(out=np.zeros((2, 2, 4)), lse=np.zeros((2, 2)))
        assert payload_elements(partial) == 16 + 4
        received = SimProcessGroup(2).all_to_all([[partial, partial], [partial, partial]])[1][0]
        assert isinstance(received, AttentionResult) and not received.lse.flags.writeable

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

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("payload", [object, lambda: "text"], ids=["object", "str"])
    def test_a_payload_it_cannot_freeze_is_rejected(self, traced, payload):
        """What the wire cannot carry is refused whether or not a recorder
        is attached, never handed to the receiver as the sender's object."""
        g = traced_group(2) if traced else SimProcessGroup(2)
        with pytest.raises(TypeError, match="unsupported payload type"):
            g.ring_shift([payload(), payload()])
        with pytest.raises(TypeError, match="unsupported payload type"):
            g.all_to_all([[payload(), None], [None, payload()]])

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
        g = traced_group(2)
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
        g = traced_group(2)
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
        g2 = traced_group(2)
        g4 = traced_group(4)
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
        g = SimProcessGroup(2)
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
    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SimProcessGroup(0)


def _gtt_formula(kind: str, nbytes: int, world: int) -> float:
    """The ``gtt_host()`` price of one collective of ``kind`` whose span
    carries ``nbytes``, spelled out from the constants so a change to a
    ``HostSpec`` formula shows here."""
    h = gtt_host()
    if kind == "sendrecv":
        return h.message_latency + nbytes / h.ring_bandwidth
    if kind == "all2all":
        return (world - 1) * h.message_latency + nbytes / h.all2all_bandwidth
    if kind == "allgather":  # N - 1 SendRecvs of the largest shard
        hops = world - 1
        return hops * (h.message_latency + nbytes // hops / h.ring_bandwidth)
    assert kind == "allreduce"  # the span carries 2(N-1)/N of the array
    full = nbytes * world // (2 * (world - 1))
    return 2.0 * full * (world - 1) / world / h.allreduce_bandwidth + h.allreduce_latency * (world - 1)


class TestOneHardwareModel:
    """Collective spans and ``LatencySimulator`` are priced by one
    ``HostSpec``: a span's ``dur`` is the formula for its kind and bytes."""

    def test_every_collective_span_is_priced_by_the_host_formula(self):
        model = LlamaModel(tiny_config(), seed=0)
        engine = ContextParallelEngine(model, world_size=4)
        group = engine.group
        group.tracer = RecordingTracer()
        toks = np.arange(40) % model.config.vocab_size
        engine.prefill({0: toks}, force_algo=RingAlgo.PASS_KV)
        engine.prefill({0: toks[:3]}, force_algo=RingAlgo.PASS_Q)
        ChatSession(engine, 0).send(toks[:1], max_new_tokens=2)
        group.all_gather([np.zeros(8), np.zeros(5), np.zeros(8), np.zeros(2)])
        group.all_reduce_sum([np.ones(6)] * 4)

        spans = group.tracer.events
        assert {e.name for e in spans} == {"sendrecv", "all2all", "allgather", "allreduce"}
        for e in spans:
            assert e.dur == _gtt_formula(e.name, e.attrs["bytes"], 4), e

    @pytest.mark.parametrize("algo", [RingAlgo.PASS_KV, RingAlgo.PASS_Q])
    def test_latency_model_prices_a_ring_step_by_the_same_formula(self, algo):
        cfg = llama3_405b_config()
        new, cached, world = 3200, 124800, 4
        prefill = LatencySimulator(cfg, gtt_host()).cp_prefill(new, cached, n_ranks=world, algo=algo)
        message = kv_bytes(cfg, new, cached) if algo is RingAlgo.PASS_KV else q_bytes(cfg, new)
        assert prefill.sendrecv_per_iter == _gtt_formula("sendrecv", message / world, world)
