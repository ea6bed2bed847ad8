"""Numeric-kernel microbenchmarks (simulator performance, not paper claims).

Times the NumPy substrate itself — the flash kernel, the ring algorithms,
an end-to-end engine prefill and a continuous-batching runtime replay at
test scale — so regressions in the simulation's own speed are visible.
The ``*_no_block_skip`` / ``*_fp32_compute`` variants pin the A/B knobs of
the fused grouped-head kernel (PR 1): masked-block skipping off, and the
mixed-precision (fp32 compute, fp64 merge) mode. (The seed-equivalent
``fused=False`` expand-path baseline was retired with the path itself; its
seed timing survives in ``run_benchmarks.py``'s baseline table. The
shard-skip A/B ``bench_ring_passkv_cp4_no_skip`` is gone too: on a full
prefill it could not move — 11.31 vs 11.38 ms.)

Every benchmark here has an exactness twin in ``tests/properties`` (the
WLB-LLM-CP layout: a performance compare beside a correctness test):
``bench_flash_decode_shape`` — ``test_prop_flash_fused.py::TestOneBlockBaseCase``
and ``test_prop_flash_varlen.py``; ``bench_merge_partials_cp4`` —
``test_prop_merge.py::TestOneShotEqualsSequential``; the rings —
``test_prop_ring.py``.

Run via ``python benchmarks/run_benchmarks.py`` to record the results into
``BENCH_kernels.json``, or directly::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only -q

(add ``--smoke`` for the 1-round CI import/run check).
"""

import numpy as np
import pytest

from repro.attention.flash import AttentionResult, flash_attention
from repro.attention.masks import run_index
from repro.attention.reference import reference_attention_with_lse
from repro.core.engine import ContextParallelEngine
from repro.core.merge import merge_partials
from repro.core.ring_decode import DecodeBatch, ring_passq_decode
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.sharding import SequenceSpec, ShardedKV, ShardedQueries, shard_sequences
from repro.distributed.process_group import SimProcessGroup
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel

pytestmark = pytest.mark.perf

T = 256
RNG = np.random.default_rng(0)
Q = RNG.standard_normal((T, 8, 32))
K = RNG.standard_normal((T, 2, 32))
V = RNG.standard_normal((T, 2, 32))


def _shards(world):
    shards = shard_sequences([SequenceSpec(0, T)], world)
    queries = [ShardedQueries(q=Q[pos], positions=pos, seq_ids=sid) for pos, sid in shards]
    kvs = [ShardedKV(k=K[pos], v=V[pos], positions=pos, seq_ids=sid) for pos, sid in shards]
    return queries, kvs


def bench_reference_attention(benchmark):
    benchmark(reference_attention_with_lse, Q, K, V)


def bench_flash_attention(benchmark):
    benchmark(flash_attention, Q, K, V, block_size=64)


def bench_flash_attention_no_block_skip(benchmark):
    """Fused kernel with masked-block skipping / row trimming disabled."""
    benchmark(flash_attention, Q, K, V, block_size=64, skip_masked_blocks=False)


def bench_flash_attention_fp32_compute(benchmark):
    """fp32 kernel arithmetic, fp64 merge accumulation."""
    benchmark(flash_attention, Q, K, V, block_size=64, compute_dtype=np.float32)


def bench_flash_decode_shape(benchmark):
    """The call ``decode_batch`` makes 1.6k times a repetition: one ring
    step of one rank — 8 query rows (one per sequence) against a fused
    shard of 32 sequences x 19-30 keys, run structure handed over as the
    ring hands it. 8 segments x 1 row x <= 30 keys is ~1.6k scores: all
    fixed cost, which is what the one-block base case is for."""
    rng = np.random.default_rng(3)
    lengths = rng.integers(19, 31, 32)
    runs = np.concatenate(([0], np.cumsum(lengths)))
    k_seq = np.repeat(np.arange(32), lengths)
    k_pos = np.concatenate([np.arange(n) for n in lengths])
    kv = ShardedKV(
        k=rng.standard_normal((runs[-1], 2, 8)), v=rng.standard_normal((runs[-1], 2, 8)),
        positions=k_pos, seq_ids=k_seq, runs=runs,
    )
    q_seq = np.arange(3, 32, 4)  # the 8 sequences this payload's rows belong to
    q_runs = (np.arange(9), run_index(q_seq, np.arange(9)))
    q = rng.standard_normal((8, 8, 8))
    benchmark(
        flash_attention, q, kv.k, kv.v,
        q_pos=lengths[q_seq], k_pos=kv.positions, q_seq=q_seq, k_seq=kv.seq_ids,
        q_runs=q_runs, k_runs=(kv.runs, kv.run_index),
    )


def bench_merge_partials_cp4(benchmark):
    """Equation 4 over one rank's N = 4 ring partials of a decode payload
    (8 rows x 8 heads x 8), one of them a skipped shard's identity."""
    rng = np.random.default_rng(4)
    partials = [
        AttentionResult(out=rng.standard_normal((8, 8, 8)), lse=rng.standard_normal((8, 8)))
        for _ in range(3)
    ] + [AttentionResult.empty(8, 8, 8)]
    benchmark(merge_partials, partials)


def bench_ring_passkv_cp4(benchmark):
    queries, kvs = _shards(4)

    def run():
        return ring_passkv_prefill(SimProcessGroup(4), queries, kvs, block_size=64)

    benchmark(run)


def bench_ring_passq_cp4(benchmark):
    queries, kvs = _shards(4)

    def run():
        return ring_passq_prefill(SimProcessGroup(4), queries, kvs, block_size=64)

    benchmark(run)


def _decode_shards(k_all, v_all, b, world):
    """``b`` sequences' cached tokens dealt round-robin over ``world``
    ranks, each rank's shard laid out the way ``RankKVCache.get`` hands it
    to the ring: one run per sequence, positions ascending inside a run."""
    t = k_all.shape[0]
    seq_all = np.arange(t, dtype=np.int64) % b
    pos_all = np.arange(t, dtype=np.int64) // b
    kvs = []
    for r in range(world):
        idx = np.arange(r, t, world)
        idx = idx[np.argsort(seq_all[idx], kind="stable")]
        kvs.append(
            ShardedKV(k=k_all[idx], v=v_all[idx], positions=pos_all[idx], seq_ids=seq_all[idx])
        )
    return kvs


def bench_ring_decode_cp4(benchmark):
    """Batched pass-Q decode: 6 sequences' cached KV spread over 4 ranks
    (B=6, N=4 also pads two query slots — the shard-skip sweet spot). The
    batch object is reused, as ``engine.decode`` reuses it across a round's
    layers, so rounds after the first time a layer's ring, not the
    per-round plan."""
    world, b = 4, 6
    kvs = _decode_shards(K, V, b, world)
    batch = DecodeBatch(
        q=RNG.standard_normal((b, 8, 32)),
        positions=np.full(b, T // b, dtype=np.int64),
        seq_ids=np.arange(b, dtype=np.int64),
    )

    def run():
        return ring_passq_decode(SimProcessGroup(world), kvs, batch, block_size=64)

    benchmark(run)


def bench_runtime_decode_hotloop(benchmark):
    """Batched pass-Q decode under a large decode trace: 24 sequences,
    ~1.5K cached tokens spread round-robin over 4 ranks, 4 consecutive
    decode steps per round (the rotating-assignment offsets included).

    This is the runtime's hot loop at serving scale — post PR 1 the
    engine's prefill is dense-linear-bound, so decode rounds dominate
    replayed-trace wall time (the ROADMAP's decode-path perf item)."""
    world, b, t = 4, 24, 1536
    rng = np.random.default_rng(7)
    k_all = rng.standard_normal((t, 2, 32))
    v_all = rng.standard_normal((t, 2, 32))
    kvs = _decode_shards(k_all, v_all, b, world)
    batch = DecodeBatch(
        q=rng.standard_normal((b, 8, 32)),
        positions=np.full(b, t // b, dtype=np.int64),
        seq_ids=np.arange(b, dtype=np.int64),
    )
    group = SimProcessGroup(world)

    def run():
        return [
            ring_passq_decode(group, kvs, batch, step=step, block_size=64)
            for step in range(4)
        ]

    benchmark(run)
    benchmark.extra_info["batch"] = b
    benchmark.extra_info["cached_tokens"] = t
    benchmark.extra_info["steps_per_round"] = 4


def bench_engine_prefill_cp2(benchmark):
    model = LlamaModel(tiny_config(), seed=0)
    toks = np.arange(64) % model.config.vocab_size

    def run():
        engine = ContextParallelEngine(model, world_size=2)
        return engine.prefill({0: toks})

    benchmark(run)


def bench_runtime_throughput(benchmark):
    """Tokens/s through the continuous-batching runtime on a replayed
    4-session x 2-turn trace (chunked prefill + batched decode, CP2).

    ``extra_info['tokens_per_wall_second']`` records decoded tokens per
    *wall* second — the serving runtime's end-to-end throughput figure."""
    from repro.runtime import ContinuousBatchingRuntime
    from repro.serving.scheduler import ChunkedPrefillPolicy
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.replay import submit_scripts_to_runtime

    model = LlamaModel(tiny_config(), seed=0)
    gen = WorkloadGenerator(model.config.vocab_size, seed=3)
    scripts = [
        gen.conversation(
            sid, turns=2, first_prompt=40, followup_range=(6, 12), response_range=(3, 5)
        )
        for sid in range(4)
    ]

    def run():
        runtime = ContinuousBatchingRuntime(
            ContextParallelEngine(model, world_size=2),
            policy=ChunkedPrefillPolicy(
                chunk_tokens=16, max_tokens_per_round=32, max_seqs_per_round=4
            ),
        )
        submit_scripts_to_runtime(runtime, scripts, think_time_s=2.0)
        return runtime.run(max_steps=100_000)

    report = benchmark(run)
    wall = benchmark.stats.stats.mean if benchmark.stats else None
    if wall:
        benchmark.extra_info["tokens_per_wall_second"] = round(
            report.generated_tokens / wall, 1
        )
    benchmark.extra_info["generated_tokens"] = report.generated_tokens
    benchmark.extra_info["preemptions"] = report.metrics.preemptions


def bench_runtime_trace_overhead(benchmark):
    """The same replay as ``bench_runtime_throughput`` with the tracer
    hooks in the hot path: the benchmarked (tracer-off) run must stay
    within noise of ``bench_runtime_throughput`` — a NULL_TRACER guard is
    all the scheduler pays — while ``extra_info`` records the cost of
    actually recording (``traced_mean_ms`` / ``trace_overhead_pct``) and
    the event volume the workload produces."""
    import time

    from repro.obs import RecordingTracer
    from repro.runtime import ContinuousBatchingRuntime
    from repro.serving.scheduler import ChunkedPrefillPolicy
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.replay import submit_scripts_to_runtime

    model = LlamaModel(tiny_config(), seed=0)
    gen = WorkloadGenerator(model.config.vocab_size, seed=3)
    scripts = [
        gen.conversation(
            sid, turns=2, first_prompt=40, followup_range=(6, 12), response_range=(3, 5)
        )
        for sid in range(4)
    ]

    def run(tracer=None):
        runtime = ContinuousBatchingRuntime(
            ContextParallelEngine(model, world_size=2),
            policy=ChunkedPrefillPolicy(
                chunk_tokens=16, max_tokens_per_round=32, max_seqs_per_round=4
            ),
            tracer=tracer,
        )
        submit_scripts_to_runtime(runtime, scripts, think_time_s=2.0)
        return runtime.run(max_steps=100_000)

    report = benchmark(run)

    def best_of(n, **kwargs):
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            run(**kwargs)
            times.append(time.perf_counter() - t0)
        return min(times)

    off = best_of(3)
    tracer = RecordingTracer()
    t0 = time.perf_counter()
    traced_report = run(tracer=tracer)
    traced = time.perf_counter() - t0
    for _ in range(2):
        t0 = time.perf_counter()
        run(tracer=RecordingTracer())
        traced = min(traced, time.perf_counter() - t0)

    assert traced_report.generated_tokens == report.generated_tokens
    benchmark.extra_info["trace_events"] = len(tracer.events)
    benchmark.extra_info["traced_mean_ms"] = round(traced * 1e3, 3)
    benchmark.extra_info["untraced_mean_ms"] = round(off * 1e3, 3)
    benchmark.extra_info["trace_overhead_pct"] = round(100.0 * (traced - off) / off, 1)


def bench_preemption_modes(benchmark):
    """One capacity-pressure trace replayed under all three preemption
    remedies (recompute, tail-trim, CPU swap) back to back.

    Wall time covers the full recompute+trim+swap sweep on a trace whose
    tight paged pool forces every remedy to fire; ``extra_info`` records
    the per-mode remedy counts so the JSON shows what actually ran."""
    from repro.runtime import ContinuousBatchingRuntime
    from repro.serving.scheduler import ChunkedPrefillPolicy
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.replay import submit_scripts_to_runtime

    model = LlamaModel(tiny_config(), seed=0)
    gen = WorkloadGenerator(model.config.vocab_size, seed=11)
    scripts = [
        gen.conversation(
            sid, turns=2, first_prompt=40, followup_range=(6, 14), response_range=(3, 5)
        )
        for sid in range(4)
    ]

    def run():
        reports = {}
        for mode in ("recompute", "trim", "swap"):
            runtime = ContinuousBatchingRuntime(
                ContextParallelEngine(model, world_size=2, capacity_tokens=64),
                policy=ChunkedPrefillPolicy(
                    chunk_tokens=8, max_tokens_per_round=16, max_seqs_per_round=4
                ),
                preemption=mode,
            )
            submit_scripts_to_runtime(runtime, scripts, think_time_s=2.0)
            reports[mode] = runtime.run(max_steps=200_000)
        return reports

    reports = benchmark(run)
    tokens = {m: sorted(r.generated(i) for i in r.records) for m, r in reports.items()}
    assert tokens["trim"] == tokens["recompute"] == tokens["swap"]
    for mode, report in reports.items():
        m = report.metrics
        benchmark.extra_info[f"{mode}_remedies"] = (
            m.preemptions + m.trims + m.swaps_out
        )
    benchmark.extra_info["swaps"] = reports["swap"].metrics.swaps_out
    benchmark.extra_info["trims"] = reports["trim"].metrics.trims


def bench_prefix_reuse(benchmark):
    """One templated shared-prefix trace replayed with the radix prefix
    cache on and off, back to back, bit-checked against each other.

    Wall time covers both runs; ``extra_info`` records the hit rate,
    reused tokens and per-mode prefill rounds so the JSON shows the
    compute the cache actually skipped."""
    from repro.runtime import ContinuousBatchingRuntime
    from repro.serving.scheduler import ChunkedPrefillPolicy
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.replay import collect_generated, submit_scripts_to_runtime

    model = LlamaModel(tiny_config(), seed=0)
    gen = WorkloadGenerator(model.config.vocab_size, seed=11)
    scripts = gen.shared_prefix_traffic(
        n_system_prompts=2, n_fewshot_variants=2, conversations=6,
        system_tokens=32, fewshot_tokens=12, unique_range=(6, 12),
        turns=1, response_range=(3, 5),
    )

    def run():
        out = {}
        for cache_on in (True, False):
            runtime = ContinuousBatchingRuntime(
                ContextParallelEngine(model, world_size=2),
                policy=ChunkedPrefillPolicy(
                    chunk_tokens=16, max_tokens_per_round=32, max_seqs_per_round=4
                ),
                prefix_cache=cache_on,
            )
            rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=2.0)
            out[cache_on] = (runtime.run(max_steps=200_000), rids)
        return out

    out = benchmark(run)
    reports = {on: report for on, (report, _) in out.items()}
    tokens = {on: collect_generated(report, rids) for on, (report, rids) in out.items()}
    assert tokens[True] == tokens[False]
    m = reports[True].metrics
    benchmark.extra_info["hit_rate"] = round(m.prefix_hit_rate, 3)
    benchmark.extra_info["reused_tokens"] = m.prefix_reused_tokens
    benchmark.extra_info["prefill_rounds_cached"] = reports[True].prefill_rounds
    benchmark.extra_info["prefill_rounds_cold"] = reports[False].prefill_rounds


def bench_cluster_routing(benchmark):
    """One shared-prefix trace fanned over a 3-replica fleet under
    prefix-affinity and round-robin routing, back to back, bit-checked
    against each other.

    Wall time covers both fleet runs (routing, per-replica engines,
    merged reporting); ``extra_info`` records each policy's fleet hit
    rate and placement spread so the JSON shows what affinity bought."""
    from repro.cluster import ReplicaFleet, make_router
    from repro.runtime import ContinuousBatchingRuntime
    from repro.serving.scheduler import ChunkedPrefillPolicy
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.replay import collect_generated, submit_scripts_to_runtime

    model = LlamaModel(tiny_config(), seed=0)
    gen = WorkloadGenerator(model.config.vocab_size, seed=11)
    scripts = gen.shared_prefix_traffic(
        n_system_prompts=2, n_fewshot_variants=2, conversations=9,
        system_tokens=32, fewshot_tokens=12, unique_range=(6, 12),
        turns=2, followup_range=(6, 12), response_range=(3, 5),
    )
    scripts = [scripts[i] for i in gen.rng.permutation(len(scripts))]

    def make_runtime(_replica_id):
        return ContinuousBatchingRuntime(
            ContextParallelEngine(model, world_size=2),
            policy=ChunkedPrefillPolicy(
                chunk_tokens=16, max_tokens_per_round=32, max_seqs_per_round=4
            ),
            prefix_cache=True,
        )

    def run():
        out = {}
        for policy in ("prefix", "round-robin"):
            fleet = ReplicaFleet.build(make_runtime, 3, router=make_router(policy))
            rids = submit_scripts_to_runtime(fleet, scripts, think_time_s=2.0)
            out[policy] = (fleet.run(max_steps=200_000), rids)
        return out

    out = benchmark(run)
    tokens = {p: collect_generated(report, rids) for p, (report, rids) in out.items()}
    assert tokens["prefix"] == tokens["round-robin"]
    for policy, (report, _rids) in out.items():
        key = policy.replace("-", "_")
        benchmark.extra_info[f"{key}_hit_rate"] = round(
            report.metrics.prefix_hit_rate, 3
        )
        benchmark.extra_info[f"{key}_replicas_used"] = len(
            set(report.placements.values())
        )
