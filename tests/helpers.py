"""Shared test helpers (importable as `helpers` via pytest pythonpath)."""

from __future__ import annotations

import numpy as np

from repro.cluster import ReplicaFleet, make_router
from repro.core.engine import ContextParallelEngine
from repro.core.sharding import SequenceSpec, ShardedKV, ShardedQueries, shard_sequences
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.distributed.process_group import SimProcessGroup
from repro.obs import NULL_TRACER, RecordingTracer, comm_totals
from repro.runtime import ContinuousBatchingRuntime, FaultPlan
from repro.runtime.state import RequestState
from repro.serving.scheduler import ChunkedPrefillPolicy
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.replay import submit_scripts_to_runtime

#: Model every traced serving case runs (weights are read-only).
TRACE_MODEL = LlamaModel(tiny_config(), seed=0)


def assert_exact_vs_sequential(
    report,
    rids: dict[int, list[int]],
    reference: dict[int, list[list[int]]],
    *,
    completed_only: bool = False,
    context: str = "",
) -> None:
    """The serving-exactness bit-equality harness.

    Compares a runtime/fleet report's decoded streams against a
    sequential per-conversation replay (the shapes
    :func:`repro.workloads.replay.submit_scripts_to_runtime` and
    :func:`repro.workloads.replay.replay_scripts_sequential` produce).

    Args:
        report: a ``RuntimeReport`` or ``FleetReport`` (both expose
            ``record`` and ``generated``).
        rids: ``{seq_id: [request_id per turn]}``.
        reference: ``{seq_id: [expected tokens per turn]}``.
        completed_only: ``False`` (default) asserts every request
            reached ``FINISHED`` and every stream matches — the
            fault-free contract. ``True`` rescopes to fault schedules:
            only ``FINISHED`` turns are compared, and a non-finished
            turn's conversation must not finish any *later* turn (a
            shed chain sheds its whole tail).
        context: appended to failure messages (fault plans, policies,
            counters — whatever identifies the schedule that diverged).
    """
    suffix = f" ({context})" if context else ""
    for seq_id, turn_rids in rids.items():
        for i, rid in enumerate(turn_rids):
            rec = report.record(rid)
            if rec.state is RequestState.FINISHED:
                got = list(report.generated(rid))
                want = list(reference[seq_id][i])
                assert got == want, (
                    f"seq {seq_id} turn {i} diverged from sequential "
                    f"replay: {got} != {want}{suffix}"
                )
            elif completed_only:
                later = [report.record(r) for r in turn_rids[i + 1 :]]
                assert all(
                    rec2.state is not RequestState.FINISHED for rec2 in later
                ), (
                    f"seq {seq_id} finished a turn after turn {i} "
                    f"ended {rec.state}{suffix}"
                )
            else:
                raise AssertionError(
                    f"seq {seq_id} turn {i} did not finish: "
                    f"{rec.state}{suffix}"
                )


def assert_leak_free(target, *, context: str = "") -> None:
    """Post-drain KV audit for a runtime or a whole fleet.

    Asserts the engines' KV bookkeeping audits clean (no orphaned KV,
    leaked paged blocks/refcounts, dangling radix anchors or stale
    pins) and that no host-side swap payload outlived the drain —
    per replica when ``target`` is a :class:`repro.cluster.ReplicaFleet`.
    """
    suffix = f" ({context})" if context else ""
    if hasattr(target, "kv_leak_reports"):  # a fleet: audit every replica
        for replica_id, leaks in target.kv_leak_reports().items():
            assert not leaks, (
                f"replica {replica_id} leaked KV state after drain"
                f"{suffix}: {leaks}"
            )
    else:
        leaks = target.kv_leak_report()
        assert not leaks, f"KV state leaked after drain{suffix}: {leaks}"


def traced_group(world_size: int, **kwargs) -> SimProcessGroup:
    """A process group recording one span per collective."""
    return SimProcessGroup(world_size, tracer=RecordingTracer(), **kwargs)


def comm(group: SimProcessGroup):
    """Per-kind (count, bytes, seconds) totals of a traced group's collectives."""
    return comm_totals(group.tracer.events)


def make_qkv(
    rng: np.random.Generator,
    tq: int,
    tk: int,
    n_heads: int = 8,
    n_kv_heads: int = 2,
    head_dim: int = 16,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random GQA tensors with the library's token-major layout."""
    q = rng.standard_normal((tq, n_heads, head_dim))
    k = rng.standard_normal((tk, n_kv_heads, head_dim))
    v = rng.standard_normal((tk, n_kv_heads, head_dim))
    return q, k, v


def shard_qkv_full_prefill(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    world_size: int,
    *,
    seq_id: int = 0,
) -> tuple[list[ShardedQueries], list[ShardedKV]]:
    """Load-balance shard one full-prefill sequence across ranks."""
    t = q.shape[0]
    shards = shard_sequences([SequenceSpec(seq_id, t)], world_size)
    queries, kvs = [], []
    for pos, sid in shards:
        queries.append(ShardedQueries(q=q[pos], positions=pos, seq_ids=sid))
        kvs.append(ShardedKV(k=k[pos], v=v[pos], positions=pos, seq_ids=sid))
    return queries, kvs


def shard_varseq_full_prefill(
    per_seq_qkv: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]],
    world_size: int,
) -> tuple[list[ShardedQueries], list[ShardedKV]]:
    """Load-balance shard a fused batch of full-prefill sequences."""
    specs = [SequenceSpec(sid, qkv[0].shape[0]) for sid, qkv in sorted(per_seq_qkv.items())]
    shards = shard_sequences(specs, world_size)
    queries, kvs = [], []
    for pos, sids in shards:
        qs, ks, vs = [], [], []
        for p, sid in zip(pos, sids):
            q, k, v = per_seq_qkv[int(sid)]
            qs.append(q[int(p)])
            ks.append(k[int(p)])
            vs.append(v[int(p)])
        if qs:
            queries.append(
                ShardedQueries(q=np.stack(qs), positions=pos, seq_ids=sids)
            )
            kvs.append(
                ShardedKV(k=np.stack(ks), v=np.stack(vs), positions=pos, seq_ids=sids)
            )
        else:
            nh, dh = next(iter(per_seq_qkv.values()))[0].shape[1:]
            nkv = next(iter(per_seq_qkv.values()))[1].shape[1]
            queries.append(
                ShardedQueries(
                    q=np.zeros((0, nh, dh)),
                    positions=np.zeros(0, dtype=np.int64),
                    seq_ids=np.zeros(0, dtype=np.int64),
                )
            )
            kvs.append(ShardedKV.empty(nkv, dh))
    return queries, kvs


def trace_scripts(case):
    """The conversations a traced serving ``case`` submits."""
    gen = WorkloadGenerator(TRACE_MODEL.config.vocab_size, seed=case["seed"])
    if case["shared"]:
        return gen.shared_prefix_traffic(
            n_system_prompts=2,
            n_fewshot_variants=2,
            conversations=case["sessions"],
            system_tokens=24,
            fewshot_tokens=8,
            unique_range=(4, 12),
            turns=case["turns"],
            response_range=(2, 5),
        )
    return [
        gen.conversation(
            sid, turns=case["turns"], first_prompt=24,
            followup_range=(4, 12), response_range=(2, 5),
        )
        for sid in range(case["sessions"])
    ]


def run_traced(case, *, record: bool = True):
    """Build fresh engines/clocks/tracer, run the case, return
    ``(tracer, runtime_or_fleet, fleet_or_None, report)``.

    ``case`` is a dict that fully determines the run: ``seed``,
    ``n_replicas``, ``policy`` (routing), ``disaggregate``,
    ``preemption``, ``prefix_cache``, ``chunk``, ``capacity``, ``think``,
    ``shared``, ``sessions``, ``turns``, ``faults`` (``FaultPlan`` kwargs
    or ``None``) and optionally ``order`` (prefill packing, default
    ``"fifo"``). ``record=False`` runs the same case with no recorder
    attached (the returned tracer is the null tracer).
    """
    plan = FaultPlan(**case["faults"]) if case["faults"] else None
    tracer = RecordingTracer() if record else NULL_TRACER

    def make_runtime(replica_id=None):
        rt_tracer = (
            tracer if replica_id is None else tracer.scoped(replica=replica_id)
        )
        kwargs = dict(
            policy=ChunkedPrefillPolicy(
                chunk_tokens=case["chunk"],
                max_tokens_per_round=2 * case["chunk"],
                max_seqs_per_round=4,
                order=case.get("order", "fifo"),
            ),
            preemption=case["preemption"],
            prefix_cache=case["prefix_cache"],
            faults=plan,
            tracer=rt_tracer,
        )
        engine = ContextParallelEngine(
            TRACE_MODEL, world_size=2, capacity_tokens=case["capacity"]
        )
        if case["disaggregate"]:
            decode = ContextParallelEngine(
                TRACE_MODEL, world_size=2, capacity_tokens=case["capacity"]
            )
            return ContinuousBatchingRuntime(engine, decode_engine=decode, **kwargs)
        return ContinuousBatchingRuntime(engine, **kwargs)

    if case["n_replicas"] == 1:
        runtime = make_runtime()
        fleet = None
    else:
        fleet = ReplicaFleet.build(
            make_runtime,
            case["n_replicas"],
            router=make_router(case["policy"]),
            tracer=tracer,
        )
        runtime = fleet
    submit_scripts_to_runtime(runtime, trace_scripts(case), think_time_s=case["think"])
    report = runtime.run(max_steps=200_000)
    return tracer, runtime, fleet, report
