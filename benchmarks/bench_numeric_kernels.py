"""Numeric-kernel microbenchmarks (simulator performance, not paper claims).

Times the NumPy substrate itself, one layer at a time — the flash kernel,
Equation 4's merge, the three ring algorithms and one engine prefill at
test scale — so regressions in the simulation's own speed are visible at
the layer that caused them. Runtime- and fleet-level wall time is
``benchmarks/e2e``'s job (four workloads, alternating pairs); the replays
that used to stand in for it here are gone. ``*_fp32_compute`` and
``bench_flash_prefill_tile_dh128_fp32`` time the kernel's one A/B choice,
its precision (``compute_dtype``: fp32 compute, fp64 merge). Masked blocks and masked ring-step partials are always
skipped, so there is no off path left to time; neither was ever the
faster one (blocks: 6.24 ms off against 3.47 ms on; shards, on a full
prefill: 11.38 against 11.31 ms). The seed-equivalent ``fused=False``
expand-path baseline was retired with the path itself; its seed timing
survives in ``run_benchmarks.py``'s baseline table.

Every benchmark here has an exactness twin in ``tests/properties`` (the
WLB-LLM-CP layout: a performance compare beside a correctness test):
``bench_flash_attention*`` — ``test_prop_flash_fused.py::TestFusedMatchesReference``;
``bench_flash_prefill_tile*`` / ``bench_flash_diagonal_tile`` —
``test_prop_flash_fused.py::TestScoreTile`` (masking, orientation, key
band; its mutants are listed there) and ``::TestShiftFree`` (the
shift-free sweep every one of them now takes, against the shifted sweep);
``bench_flash_large_logits`` — ``::TestShiftFree``'s adversarial ranges (the
fallback fires and is correct); ``bench_flash_decode_shape`` —
``::TestOneRowBaseCase`` (with ``bench_flash_decode_row_single``: the one-row
base case of the shift-free sweep, its range check and its fallback),
``::TestOneBlockBaseCase`` (the shifted sweep's one-block return) and
``test_prop_flash_varlen.py``; ``bench_merge_partials_cp4`` (the Eq. 4 a
rank runs only when a step fell back to the shifted sweep) —
``test_prop_merge.py::TestOneShotEqualsSequential``; ``bench_ring_passkv_cp4``
and ``bench_ring_decode_cp4`` — ``test_prop_merge.py::TestRunningSum`` (each
rank's kernel sums added and normalised once, against one-shot Eq. 4),
``tests/core/test_ring_decode.py::TestStackedMerge`` (the decode ring's
per-rank sums, bit for bit) and ``tests/core/test_ring_fallback.py`` (one
step shifted, the rest summed); ``bench_cache_get_decode_cp4`` —
``tests/kvcache/test_cache.py::TestStructureIsSharedAcrossLayers``; the rings
and the engine prefill — ``test_prop_ring.py`` / ``test_prop_engine.py``;
``bench_shard_plan`` / ``bench_prefill_token_demand_cp2`` /
``bench_engine_prefill_tiny_cp1`` —
``test_prop_sharding.py::TestShardPlanEqualsOracle`` (the concatenating
implementation kept as oracle; its mutants are listed there).

Run via ``python benchmarks/run_benchmarks.py`` to record the results into
``BENCH_kernels.json``, or directly::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only -q

(add ``--smoke`` for the 1-round CI import/run check).
"""

import numpy as np
import pytest

from repro.attention.flash import AttentionResult, attention_layout, flash_attention
from repro.attention.masks import run_index
from repro.attention.reference import reference_attention_with_lse
from repro.core.engine import ContextParallelEngine
from repro.core.merge import RunningSum, merge_partials
from repro.core.ring_decode import ring_passq_decode
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.ring_skip import plan_prefill
from repro.core.sharding import (
    SequenceSpec,
    ShardedKV,
    ShardedQueries,
    ShardPlan,
    shard_positions,
    shard_sequences,
)
from repro.distributed.process_group import SimProcessGroup
from repro.kvcache.cache import RankKVCache
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel

pytestmark = pytest.mark.perf

T = 256
RNG = np.random.default_rng(0)
Q = RNG.standard_normal((T, 8, 32))
K = RNG.standard_normal((T, 2, 32))
V = RNG.standard_normal((T, 2, 32))
#: ``Q``'s and ``K``'s tokens: one sequence in storage order.
Q_TOKENS = ShardedQueries(q=Q, positions=np.arange(T), seq_ids=np.zeros(T, dtype=np.int64))
KV_TOKENS = ShardedKV(k=K, v=V, positions=np.arange(T), seq_ids=np.zeros(T, dtype=np.int64))


def _attend(q, k, v, queries, keys, **knobs) -> AttentionResult:
    """One exact attention call, the one way through the kernel, as every
    kernel row times it: the structures laid out, swept and normalised
    (``RunningSum``) — the layout built inside the timed call, as the kernel
    built it itself before it took one."""
    sums = flash_attention(q, k, v, attention_layout(queries, keys), **knobs)
    return RunningSum([sums]).result(*q.shape)


def _shards(world):
    shards = shard_sequences([SequenceSpec(0, T)], world)
    queries = [ShardedQueries(q=Q[pos], positions=pos, seq_ids=sid) for pos, sid in shards]
    kvs = [ShardedKV(k=K[pos], v=V[pos], positions=pos, seq_ids=sid) for pos, sid in shards]
    return queries, kvs


def bench_reference_attention(benchmark):
    benchmark(reference_attention_with_lse, Q, K, V)


def bench_flash_attention(benchmark):
    benchmark(_attend, Q, K, V, Q_TOKENS, KV_TOKENS, block_size=64)


def bench_flash_attention_fp32_compute(benchmark):
    """fp32 kernel arithmetic, fp64 merge accumulation."""
    benchmark(_attend, Q, K, V, Q_TOKENS, KV_TOKENS, block_size=64, compute_dtype=np.float32)


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
    q = rng.standard_normal((8, 8, 8))
    queries = ShardedQueries(q, lengths[q_seq], q_seq, runs=np.arange(9), run_index=run_index(q_seq, np.arange(9)))
    benchmark(_attend, q, kv.k, kv.v, queries, kv)


def bench_flash_decode_row_single(benchmark):
    """The modal ``chat_pressure`` call (2,296 of a repetition's calls): one
    decode row x 8 heads against the 73 keys of its own sequence — the key
    side holds one sequence, so the call is one segment under its full mask,
    and the one-row base case is all there is to the sweep."""
    rng = np.random.default_rng(5)
    kv = ShardedKV(
        k=rng.standard_normal((73, 2, 8)), v=rng.standard_normal((73, 2, 8)),
        positions=np.arange(73), seq_ids=np.full(73, 5),
    )
    q_seq = np.array([5])
    q = rng.standard_normal((1, 8, 8))
    queries = ShardedQueries(q, np.array([73]), q_seq, runs=np.arange(2), run_index=run_index(q_seq, np.arange(2)))
    benchmark(_attend, q, kv.k, kv.v, queries, kv)


def _prefill_step(q_rank, kv_rank, chunks, head_dim, spread=1.0):
    """One ring step of ``long_prefill``: rank ``q_rank``'s 128 rows of the
    last of ``chunks`` 512-token chunks on CP4 (two 64-row halves, load-
    balanced) against rank ``kv_rank``'s shard — its 128 keys of every
    chunk so far, cached ones first — handed over as the ring hands it:
    the tensors, then their structures. ``spread`` scales q and k (scores
    by its square)."""
    rng = np.random.default_rng(5)
    q_pos = shard_positions(512, 4, offset=512 * (chunks - 1))[q_rank]
    k_pos = np.concatenate(
        [shard_positions(512, 4, offset=512 * c)[kv_rank] for c in range(chunks)]
    )
    tq, tk = q_pos.size, k_pos.size
    q = rng.standard_normal((tq, 8, head_dim)) * spread
    k = rng.standard_normal((tk, 2, head_dim)) * spread
    v = rng.standard_normal((tk, 2, head_dim))
    queries = ShardedQueries(q, q_pos, np.zeros(tq, dtype=np.int64), runs=np.array([0, tq]), run_index={0: 0})
    keys = ShardedKV(k, v, k_pos, np.zeros(tk, dtype=np.int64), runs=np.array([0, tk]), run_index={0: 0})
    return q, k, v, queries, keys


def bench_flash_prefill_tile(benchmark):
    """The modal ``long_prefill`` call: 128 rows x 8 heads x DH 8 against
    384 keys of an earlier rank's shard — two fully visible 512 x 128
    score tiles and one whose late 64 keys no row may see (the key band)."""
    benchmark(_attend, *_prefill_step(2, 1, 3, 8))


def bench_flash_diagonal_tile(benchmark):
    """A rank's own shard of the first chunk: two causal triangles and one
    full square in one 512 x 128 tile that no band can trim — the partial-
    tile path, which ``chat_pressure``'s small chunks mostly take."""
    benchmark(_attend, *_prefill_step(1, 1, 1, 8))


def bench_flash_large_logits(benchmark):
    """``bench_flash_prefill_tile`` with q and k scaled by 20 — scores of
    order +-1e3, past ``exp``'s float64 range — so the shift-free sweep's
    range check fails and the call is swept again, shifted: the price of the
    fallback on record (the shifted sweep at these scores, plus one wasted
    shift-free pass; no workload in ``benchmarks/e2e`` ever pays it)."""
    benchmark(_attend, *_prefill_step(2, 1, 3, 8, spread=20.0))


def bench_flash_prefill_tile_dh128(benchmark):
    """``bench_flash_prefill_tile`` at the paper's head dim: the two
    matmuls outweigh the softmax passes, so the trajectory also holds a
    compute-bound point."""
    benchmark(_attend, *_prefill_step(2, 1, 3, 128))


def bench_flash_prefill_tile_dh128_fp32(benchmark):
    """``bench_flash_prefill_tile_dh128`` with fp32 kernel arithmetic
    (``compute_dtype``): the shape where the option can pay, since the
    matmuls dominate — the number that decides whether it is kept."""
    benchmark(_attend, *_prefill_step(2, 1, 3, 128), compute_dtype=np.float32)


def bench_merge_partials_cp4(benchmark):
    """Equation 4 over one rank's N = 4 partials of a decode payload (8 rows
    x 8 heads x 8), one of them the identity — the merge a ring runs only
    behind a failed range check (its steps otherwise add their sums)."""
    rng = np.random.default_rng(4)
    partials = [
        AttentionResult(out=rng.standard_normal((8, 8, 8)), lse=rng.standard_normal((8, 8)))
        for _ in range(3)
    ] + [AttentionResult.empty(8, 8, 8)]
    benchmark(merge_partials, partials)


def bench_ring_passkv_cp4(benchmark):
    queries, kvs = _shards(4)

    def run():
        plan = plan_prefill(queries, kvs, pass_q=False)  # (a single-use ring plans inside the timed call)
        return ring_passkv_prefill(SimProcessGroup(4), plan, [s.q for s in queries], kvs)

    benchmark(run)


def bench_ring_passq_cp4(benchmark):
    queries, kvs = _shards(4)

    def run():
        plan = plan_prefill(queries, kvs, pass_q=True)
        return ring_passq_prefill(SimProcessGroup(4), plan, [s.q for s in queries], kvs)

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


def _decode_round(q, position, kvs, step):
    """One decode round's ring inputs as the engine builds them once per
    round: per rank, the query rows of the slots it owns at ``step``, those
    slots ``-1``-padded to the message length, and the round's plan."""
    split = ShardPlan.round_robin(list(range(len(q))), [0] * len(q), len(kvs), step)
    slots = [np.array([span.seq_id for span in spans], dtype=np.int64) for spans in split.spans]
    queries = [ShardedQueries(q=q[s], positions=np.full(len(s), position), seq_ids=s) for s in slots]
    width = max(len(s) for s in slots)
    padded = [np.concatenate([s, np.full(width - len(s), -1, dtype=np.int64)]) for s in slots]
    return [s.q for s in queries], padded, plan_prefill(queries, kvs, pass_q=True)


def bench_ring_decode_cp4(benchmark):
    """Batched pass-Q decode: 6 sequences' cached KV spread over 4 ranks
    (B=6, N=4 also pads two query slots — the shard-skip sweet spot). The
    round's queries, batch ids and plan are built once, outside the timed
    call, and handed to every call, as the engine hands them to every
    layer, so each round times a layer's ring, not the per-round plan."""
    world, b = 4, 6
    kvs = _decode_shards(K, V, b, world)
    qs, slots, plan = _decode_round(RNG.standard_normal((b, 8, 32)), T // b, kvs, 0)

    def run():
        return ring_passq_decode(SimProcessGroup(world), plan, qs, kvs, slots=slots)

    benchmark(run)


def bench_cache_get_decode_cp4(benchmark):
    """One rank's two KV reads of a ``decode_batch`` round on a 2-layer
    model: 32 sequences x ~23 tokens fused at layer 0, then layer 1 handed
    the layer-0 read as ``like`` — which concatenates K and V only and takes
    the rest (positions, sequence ids, runs, run index, reach) from it."""
    rng = np.random.default_rng(6)
    cache = RankKVCache(n_layers=2, n_kv_heads=2, head_dim=8)
    for sid, n in enumerate(rng.integers(19, 28, 32).tolist()):
        for layer in range(2):
            cache.append(layer, sid, rng.standard_normal((n, 2, 8)), rng.standard_normal((n, 2, 8)), np.arange(n))
    sids = list(range(32))

    def run():  # (a layer-0 read always derives; layer 1 shares what it derived)
        first = cache.get(0, sids)
        return first, cache.get(1, sids, like=first)

    benchmark(run)


def bench_runtime_decode_hotloop(benchmark):
    """Batched pass-Q decode under a large decode trace: 24 sequences,
    ~1.5K cached tokens spread round-robin over 4 ranks, 4 consecutive
    decode steps per round (the rotating-assignment offsets included).

    This is the runtime's hot loop at serving scale — post PR 1 the
    engine's prefill is dense-linear-bound, so decode rounds dominate
    replayed-trace wall time (the ROADMAP's decode-path perf item). Each
    step's queries, batch ids and plan are built once, outside the timed
    calls, as the engine builds them once per round for all its layers."""
    world, b, t = 4, 24, 1536
    rng = np.random.default_rng(7)
    k_all = rng.standard_normal((t, 2, 32))
    v_all = rng.standard_normal((t, 2, 32))
    kvs = _decode_shards(k_all, v_all, b, world)
    q = rng.standard_normal((b, 8, 32))
    group = SimProcessGroup(world)
    rounds = [_decode_round(q, t // b, kvs, step) for step in range(4)]

    def run():
        return [
            ring_passq_decode(group, plan, qs, kvs, slots=slots)
            for qs, slots, plan in rounds
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


#: What a prefill round plans, at the three shapes the e2e workloads run:
#: ``[(T, P)]`` per fused sequence and the CP world size.
SHARD_SHAPES = {
    "fleet_1x7_cp1": ([(7, 12)], 1),
    "chat_2x64_cp2": ([(64, 128), (64, 40)], 2),
    "long_1x512_cp4": ([(512, 1024)], 4),
}


def _round_specs(shape):
    sizes, world = SHARD_SHAPES[shape]
    return [SequenceSpec(i, new, cached) for i, (new, cached) in enumerate(sizes)], world


@pytest.mark.parametrize("shape", list(SHARD_SHAPES))
def bench_shard_plan(benchmark, shape):
    """One round's split materialised: per-rank positions and seq ids, as
    ``engine.prefill`` derives them once per round. At ``fleet_1x7_cp1``
    nothing but fixed cost is left to measure."""
    benchmark(shard_sequences, *_round_specs(shape))


def bench_prefill_token_demand_cp2(benchmark):
    """The admission predicate's input — per-rank KV demand of a fused
    2 x 64-token round on CP2 — asked at least once per prefill round and
    once per probe of ``_max_fitting_chunk``'s binary search: the plan's
    arithmetic alone, no array."""
    specs, world = _round_specs("chat_2x64_cp2")
    engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=world)
    benchmark(engine.prefill_token_demand, specs)


def bench_engine_prefill_tiny_cp1(benchmark):
    """A ``fleet_smallreq`` conversation's two prefill rounds on a one-layer
    CP1 engine: a 12-token prompt, then 7 tokens behind it (the modal
    round) — ~40 kFLOP apiece, so each round is its own bookkeeping. The
    eviction that resets the engine for the next call is timed with them."""
    model = LlamaModel(tiny_config(n_layers=1), seed=0)
    engine = ContextParallelEngine(model, world_size=1)
    prompt = np.arange(12) % model.config.vocab_size
    followup = np.arange(3, 10) % model.config.vocab_size

    def run():
        engine.prefill({0: prompt})
        out = engine.prefill({0: followup})
        engine.evict(0)
        return out

    benchmark(run)
