"""The four benchmark workloads: inputs, deployment, SLO and asserted shape.

Each workload stresses a different layer (README.md has the measured
shares) so that an optimisation has one workload that exercises it and
one that bypasses it. Everything random comes from ``--seed`` through
``WorkloadGenerator``; the program under test receives only the generated
scripts. Lengths are drawn from *narrow* ranges: the seed changes the
inputs without changing the workload's shape, which keeps the simulated
metrics comparable across seeds.

Names, SLO constants and property floors are the benchmark's contract —
changing them re-bases every recorded baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cluster import ReplicaFleet, make_router
from repro.core.engine import ContextParallelEngine
from repro.model.config import llama3_405b_config, tiny_config
from repro.model.llama import LlamaModel
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.runtime import ContinuousBatchingRuntime, FaultPlan, SimulatedStepClock
from repro.serving.scheduler import ChunkedPrefillPolicy
from repro.workloads.generator import ConversationScript, WorkloadGenerator

#: Every round is priced for Llama3 405B on 4 GTT CP hosts, whatever the
#: numeric engine's world size (numerics at test scale, latency at paper
#: scale — the split the rest of the repository uses).
PRICED_RANKS = 4


def priced_clock(*, tp_decode: bool = False) -> SimulatedStepClock:
    sim = LatencySimulator(llama3_405b_config(), gtt_host())
    return SimulatedStepClock(sim, n_ranks=PRICED_RANKS, tp_decode=tp_decode)


@dataclass(frozen=True)
class Workload:
    """One traffic mix on one deployment.

    Attributes:
        name / why: the contract name and one-line rationale.
        n_layers: transformer blocks of the tiny numeric model.
        world_size: CP ranks of each numeric engine (and of the fresh
            per-conversation reference engine verification replays on).
        make_scripts: ``(generator, smoke) -> scripts``.
        build: ``(model, tracer, smoke) -> runtime or fleet`` — a fresh
            deployment per repetition.
        start_offset_s / think_time_s: open-loop stagger of first turns
            and closed-loop think time of follow-ups, in simulated seconds.
        slo_ttft_s / slo_ttit_ms: goodput limits (a finished request
            counts when TTFT and its mean TTIT both meet them).
        properties: ``stats -> [violations]`` — the workload's stated
            shape, asserted at full scale on every run.
    """

    name: str
    why: str
    n_layers: int
    world_size: int
    make_scripts: Callable[[WorkloadGenerator, bool], list[ConversationScript]]
    build: Callable[[LlamaModel, object, bool], object]
    start_offset_s: float
    think_time_s: float
    slo_ttft_s: float
    slo_ttit_ms: float
    properties: Callable[[dict], list[str]]

    def make_model(self) -> LlamaModel:
        return LlamaModel(tiny_config(n_layers=self.n_layers), seed=0)

    def reference_engine(self, model: LlamaModel) -> ContextParallelEngine:
        return ContextParallelEngine(model, world_size=self.world_size)


def _floor(stats: dict, key: str, low: float) -> list[str]:
    return [] if stats[key] >= low else [f"{key} = {stats[key]} < floor {low}"]


def _no_pressure(stats: dict) -> list[str]:
    """Unbounded-KV workloads: preemption would mean the shape changed."""
    bad = [k for k in ("runtime.preemptions", "runtime.swaps_out") if stats[k] != 0]
    return [f"{k} = {stats[k]} on an unbounded-KV workload" for k in bad]


# --------------------------------------------------------------------- #
# long_prefill
# --------------------------------------------------------------------- #


def _long_prefill_scripts(gen: WorkloadGenerator, smoke: bool) -> list[ConversationScript]:
    convs, lo, hi = (2, 249, 256) if smoke else (4, 1985, 2048)
    # lengths stay inside the last chunk so every prompt is exactly 4 chunks
    return [
        ConversationScript(i, [gen.prompt(int(gen.rng.integers(lo, hi + 1)))], [2])
        for i in range(convs)
    ]


def _long_prefill_build(model, tracer, smoke):
    chunk = 64 if smoke else 512
    return ContinuousBatchingRuntime(
        ContextParallelEngine(model, world_size=4),
        policy=ChunkedPrefillPolicy(
            chunk_tokens=chunk, max_tokens_per_round=chunk, max_seqs_per_round=1
        ),
        clock=priced_clock(),
        tracer=tracer,
    )


def _long_prefill_properties(stats: dict) -> list[str]:
    out = _no_pressure(stats)
    if stats["runtime.prefill_rounds"] != 16:
        out.append(f"expected 4 prompts x 4 chunks = 16 prefill rounds, got {stats['runtime.prefill_rounds']}")
    return out


# --------------------------------------------------------------------- #
# decode_batch
# --------------------------------------------------------------------- #


def _decode_batch_scripts(gen: WorkloadGenerator, smoke: bool) -> list[ConversationScript]:
    convs, lo, hi = (8, 6, 8) if smoke else (32, 44, 52)
    return [
        ConversationScript(
            i, [gen.prompt(int(gen.rng.integers(56, 73)))], [int(gen.rng.integers(lo, hi + 1))]
        )
        for i in range(convs)
    ]


def _decode_batch_build(model, tracer, smoke):
    return ContinuousBatchingRuntime(
        ContextParallelEngine(model, world_size=4),
        policy=ChunkedPrefillPolicy(
            chunk_tokens=128, max_tokens_per_round=4096, max_seqs_per_round=32
        ),
        clock=priced_clock(),
        tracer=tracer,
    )


def _decode_batch_properties(stats: dict) -> list[str]:
    out = _no_pressure(stats)
    # a conversation takes one round per generated token; no more rounds
    # than the longest budget means every round was shared by all still
    # decoding, and the narrow budget range keeps the mean batch near 32
    if stats["runtime.decode_rounds"] > 52:
        out.append(f"expected <= 52 shared decode rounds, got {stats['runtime.decode_rounds']}")
    return out


# --------------------------------------------------------------------- #
# chat_pressure
# --------------------------------------------------------------------- #

def _chat_pressure_scripts(gen: WorkloadGenerator, smoke: bool) -> list[ConversationScript]:
    return gen.shared_prefix_traffic(
        n_system_prompts=6,
        n_fewshot_variants=2,
        conversations=10 if smoke else 48,
        system_tokens=96,
        fewshot_tokens=32,
        unique_range=(8, 24),
        turns=2 if smoke else 3,
        followup_range=(6, 12),
        response_range=(4, 8),
    )


def chat_pressure_build(model, tracer, smoke, *, capacity: int | None = 384):
    """``capacity=None`` is the ``--inject no-pressure`` test hook: it lifts
    the KV pressure so the property floors below must fire."""

    def pool():
        return ContextParallelEngine(model, world_size=2, capacity_tokens=capacity)

    return ContinuousBatchingRuntime(
        pool(),
        decode_engine=pool(),
        policy=ChunkedPrefillPolicy(
            chunk_tokens=64, max_tokens_per_round=128, max_seqs_per_round=8
        ),
        clock=priced_clock(tp_decode=True),
        preemption="swap",
        prefix_cache=True,
        # fixed seed: *which* transfers die is part of the workload, not of
        # the random input, so every --seed sees the same fault schedule
        faults=FaultPlan(seed=7, transfer_fail_rate=0.1, deadline_s=20.0),
        tracer=tracer,
    )


def _chat_pressure_properties(stats: dict) -> list[str]:
    # over seeds 0-99: 177-200 preemptions, hit rate 0.39-0.63, 300-362
    # pass-KV chunks, 16 injected faults. Swap-outs (1-67) and pass-Q chunks
    # (3-21) swing too much from seed to seed to carry a floor: they are
    # reported as metrics only.
    out = _floor(stats, "runtime.preemptions", 100)
    hit = stats["kvcache.prefix_hit_rate"]
    if not 0.25 <= hit <= 0.75:
        out.append(f"kvcache.prefix_hit_rate = {hit:.3f} outside [0.25, 0.75]")
    out += _floor(stats, "core.algo.passkv_chunks", 100)
    out += _floor(stats, "runtime.faults.injected", 10)
    return out


# --------------------------------------------------------------------- #
# fleet_smallreq
# --------------------------------------------------------------------- #


def _fleet_scripts(gen: WorkloadGenerator, smoke: bool) -> list[ConversationScript]:
    return gen.shared_prefix_traffic(
        n_system_prompts=8 if smoke else 32,
        n_fewshot_variants=2,
        conversations=64 if smoke else 1024,
        system_tokens=8,
        fewshot_tokens=4,
        unique_range=(2, 6),
        turns=2,
        followup_range=(2, 6),
        response_range=(1, 2),
    )


def _fleet_build(model, tracer, smoke):
    def make_runtime(replica_id: int) -> ContinuousBatchingRuntime:
        return ContinuousBatchingRuntime(
            ContextParallelEngine(model, world_size=1),
            policy=ChunkedPrefillPolicy(
                chunk_tokens=16, max_tokens_per_round=32, max_seqs_per_round=4
            ),
            clock=priced_clock(),
            prefix_cache=True,
            tracer=tracer.scoped(replica=replica_id) if tracer is not None else None,
        )

    return ReplicaFleet.build(
        make_runtime, 4 if smoke else 24, router=make_router("prefix"), tracer=tracer
    )


def _fleet_properties(stats: dict) -> list[str]:
    out = _no_pressure(stats)
    # over 50 seeds: always all 24 replicas, hit rate 0.93-0.95
    out += _floor(stats, "cluster.replicas_used", 20)
    out += _floor(stats, "kvcache.prefix_hit_rate", 0.85)
    return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="long_prefill",
            why="4 prompts of ~2048 tokens prefilled in 512-token chunks on CP4: wall is the flash kernel under ring pass-KV, so kernel and ring-prefill changes show and scheduler or KV-read changes must not",
            n_layers=2,
            world_size=4,
            make_scripts=_long_prefill_scripts,
            build=_long_prefill_build,
            start_offset_s=1.0,
            think_time_s=30.0,
            slo_ttft_s=7.5,
            slo_ttit_ms=100.0,
            properties=_long_prefill_properties,
        ),
        Workload(
            name="decode_batch",
            why="32 conversations decoding ~48 tokens each in shared batched rounds on CP4: wall is ring pass-Q decode, KV reads and process-group copies; the bypass workload for prefill-side changes",
            n_layers=2,
            world_size=4,
            make_scripts=_decode_batch_scripts,
            build=_decode_batch_build,
            start_offset_s=0.0,
            think_time_s=0.0,
            slo_ttft_s=2.0,
            slo_ttit_ms=100.0,
            properties=_decode_batch_properties,
        ),
        Workload(
            name="chat_pressure",
            why="48 shared-prefix 3-turn chats on disaggregated CP2 pools of 384 KV tokens/rank with swap preemption, prefix cache, 10% transfer deaths, 20 s deadline: KV writes, moves and remedies beside reads",
            n_layers=2,
            world_size=2,
            make_scripts=_chat_pressure_scripts,
            build=chat_pressure_build,
            start_offset_s=1.5,
            think_time_s=30.0,
            slo_ttft_s=8.0,
            slo_ttit_ms=150.0,
            properties=_chat_pressure_properties,
        ),
        Workload(
            name="fleet_smallreq",
            why="2048 tiny requests over a 24-replica prefix-affinity fleet of one-layer CP1 engines: wall is the control plane (runtime loop, router, prefix index, pricing); kernel changes must not show",
            n_layers=1,
            world_size=1,
            make_scripts=_fleet_scripts,
            build=_fleet_build,
            start_offset_s=0.04,
            think_time_s=5.0,
            slo_ttft_s=1.4,
            slo_ttit_ms=100.0,
            properties=_fleet_properties,
        ),
    )
}
