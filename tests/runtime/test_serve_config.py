"""Tests for :class:`repro.runtime.ServeConfig`, the one deployment builder.

``ServeConfig`` owns a single rule of its own (a decode capacity needs a
decode pool); every other bad value is rejected by the layer that owns
it, and ``build`` only has to surface that layer's ``ValueError``. The
rest pins what ``build`` derives: TP-priced decode exactly when a decode
pool exists, one replica-scoped tracer view per fleet replica, a fleet
of one from ``build_fleet``, and the decode pool's capacity.
"""

from dataclasses import replace

import pytest

from repro.cluster import ReplicaFleet
from repro.model.config import llama3_405b_config, tiny_config
from repro.model.llama import LlamaModel
from repro.obs import RecordingTracer
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.runtime import (
    ContinuousBatchingRuntime,
    ServeConfig,
    SimulatedStepClock,
    UnitStepClock,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.replay import submit_scripts_to_runtime

MODEL = LlamaModel(tiny_config(), seed=0)
SIM = LatencySimulator(llama3_405b_config(), gtt_host())


def pool(engine):
    """``(world size, per-rank KV capacity)`` of one pool's engine."""
    return engine.world_size, engine.caches[0].capacity_tokens


def test_decode_capacity_without_decode_pool_rejected():
    with pytest.raises(ValueError, match="decode-pool capacity needs a disaggregated"):
        ServeConfig(decode_capacity=64)


@pytest.mark.parametrize(
    ("fields", "match"),
    [
        (dict(world=0), "world_size"),
        (dict(decode_world=0), "world_size"),
        (dict(capacity=0), "capacity_tokens"),
        (dict(decode_world=2, decode_capacity=-4), "capacity_tokens"),
        (dict(chunk=0), "chunk_tokens"),
        (dict(round_budget=8), "token budget"),
        (dict(max_seqs=0), "max_seqs_per_round"),
        (dict(preemption="hibernate"), "preemption"),
        (dict(swap_capacity=100), "swap preemption"),
        (dict(preemption="swap", swap_capacity=-1), "swap capacity"),
        (dict(replicas=0), "replica count"),
        (dict(replicas=2, routing="random"), "routing policy"),
    ],
    ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else None,
)
def test_build_surfaces_the_owners_rejection(fields, match):
    """Every other rule is owned below: ``build`` raises the owner's error."""
    with pytest.raises(ValueError, match=match):
        ServeConfig(**fields).build(MODEL)


def test_no_sim_prices_with_the_unit_clock():
    assert isinstance(ServeConfig().build(MODEL).clock, UnitStepClock)


@pytest.mark.parametrize("decode_world", [None, 1, 2])
def test_decode_is_tp_priced_exactly_when_disaggregated(decode_world):
    runtime = ServeConfig(decode_world=decode_world, priced_ranks=4).build(MODEL, sim=SIM)
    clock = runtime.clock
    assert isinstance(clock, SimulatedStepClock) and clock.n_ranks == 4
    cp = SIM.cp_decode(4096, batch=2, n_ranks=4).total
    tp = SIM.tp_decode(4096, batch=2, n_nodes=1).total
    assert cp != tp  # else this test could not tell the two apart
    assert clock.price_decode([4096, 100]) == (cp if decode_world is None else tp)


def test_fleet_replicas_record_through_their_own_scope():
    tracer = RecordingTracer()
    fleet = ServeConfig(world=1, replicas=3, routing="round-robin").build(MODEL, tracer=tracer)
    assert isinstance(fleet, ReplicaFleet)
    assert all(isinstance(r.runtime, ContinuousBatchingRuntime) for r in fleet._replicas.values())
    gen = WorkloadGenerator(MODEL.config.vocab_size, seed=3)
    scripts = [gen.conversation(sid, turns=1, first_prompt=12) for sid in range(3)]
    submit_scripts_to_runtime(fleet, scripts)
    report = fleet.run(max_steps=10_000)
    runtime_events = [e for e in tracer.events if e.name != "route"]
    assert runtime_events
    for event in runtime_events:
        assert event.replica is not None, event
        if event.request_id is not None:
            assert event.replica == report.owners[event.request_id], event
    assert {e.replica for e in runtime_events} == {0, 1, 2}


def test_lone_replica_records_through_the_tracer_itself():
    tracer = RecordingTracer()
    runtime = ServeConfig().build(MODEL, tracer=tracer)
    assert isinstance(runtime, ContinuousBatchingRuntime)
    gen = WorkloadGenerator(MODEL.config.vocab_size, seed=3)
    submit_scripts_to_runtime(runtime, [gen.conversation(0, turns=1, first_prompt=12)])
    runtime.run(max_steps=10_000)
    assert tracer.events and all(e.replica is None for e in tracer.events)


def test_build_fleet_wraps_a_lone_replica():
    fleet = ServeConfig(routing="round-robin").build_fleet(MODEL)
    assert isinstance(fleet, ReplicaFleet) and fleet.router.name == "round-robin"
    assert [type(r.runtime) for r in fleet._replicas.values()] == [ContinuousBatchingRuntime]


def test_decode_capacity_defaults_to_capacity():
    runtime = ServeConfig(decode_world=2, capacity=64).build(MODEL)
    assert pool(runtime.engine) == pool(runtime.decode_engine) == (2, 64)
    assert runtime.decode_engine is not runtime.engine


def test_decode_capacity_sizes_only_the_decode_pool():
    config = ServeConfig(world=2, decode_world=1, capacity=64, decode_capacity=128)
    runtime = config.build(MODEL)
    assert (pool(runtime.engine), pool(runtime.decode_engine)) == ((2, 64), (1, 128))
    unbounded_prefill = replace(config, capacity=None).build(MODEL)
    assert (pool(unbounded_prefill.engine), pool(unbounded_prefill.decode_engine)) == (
        (2, None), (1, 128)
    )


def test_replicas_get_fresh_pieces():
    fleet = ServeConfig(replicas=2, decode_world=2).build(MODEL, sim=SIM)
    a, b = (r.runtime for r in fleet._replicas.values())
    for piece in ("engine", "decode_engine", "policy", "clock"):
        assert getattr(a, piece) is not getattr(b, piece), piece
    assert a.engine.model is b.engine.model is MODEL
