"""Numeric-kernel microbenchmarks (simulator performance, not paper claims).

Times the NumPy substrate itself, one layer at a time — the flash kernel,
Equation 4's merge, the three ring algorithms and one engine prefill at
test scale — so regressions in the simulation's own speed are visible at
the layer that caused them. Runtime- and fleet-level wall time is
``benchmarks/e2e``'s job (four workloads, alternating pairs); the replays
that used to stand in for it here are gone. The ``*_no_block_skip`` /
``*_fp32_compute`` variants pin the A/B knobs of the fused grouped-head
kernel (PR 1): masked-block skipping off, and the mixed-precision (fp32
compute, fp64 merge) mode. (The seed-equivalent ``fused=False``
expand-path baseline was retired with the path itself; its seed timing
survives in ``run_benchmarks.py``'s baseline table. The shard-skip A/B
``bench_ring_passkv_cp4_no_skip`` is gone too: on a full prefill it could
not move — 11.31 vs 11.38 ms.)

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
``test_prop_flash_varlen.py``; ``bench_merge_partials_cp4`` —
``test_prop_merge.py::TestOneShotEqualsSequential``; ``bench_ring_decode_cp4``
— ``test_prop_merge.py::TestStackedEqualsPerRank`` and
``tests/core/test_ring_decode.py::TestStackedMerge`` (one stacked Eq. 4 per
ring against N per-rank merges, bit for bit); ``bench_cache_get_decode_cp4`` —
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

from repro.attention.flash import AttentionResult, flash_attention
from repro.attention.masks import run_index
from repro.attention.reference import reference_attention_with_lse
from repro.core.engine import ContextParallelEngine
from repro.core.merge import merge_partials
from repro.core.ring_decode import DecodeBatch, ring_passq_decode
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.sharding import (
    SequenceSpec,
    ShardedKV,
    ShardedQueries,
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
    benchmark(
        flash_attention, rng.standard_normal((1, 8, 8)), kv.k, kv.v,
        q_pos=np.array([73]), k_pos=kv.positions, q_seq=q_seq, k_seq=kv.seq_ids,
        q_runs=(np.arange(2), run_index(q_seq, np.arange(2))), k_runs=(kv.runs, kv.run_index),
    )


def _prefill_step(q_rank, kv_rank, chunks, head_dim, spread=1.0):
    """One ring step of ``long_prefill``: rank ``q_rank``'s 128 rows of the
    last of ``chunks`` 512-token chunks on CP4 (two 64-row halves, load-
    balanced) against rank ``kv_rank``'s shard — its 128 keys of every
    chunk so far, cached ones first — handed over as the ring hands it.
    ``spread`` scales q and k (scores by its square)."""
    rng = np.random.default_rng(5)
    q_pos = shard_positions(512, 4, offset=512 * (chunks - 1))[q_rank]
    k_pos = np.concatenate(
        [shard_positions(512, 4, offset=512 * c)[kv_rank] for c in range(chunks)]
    )
    tq, tk = q_pos.size, k_pos.size
    args = (
        rng.standard_normal((tq, 8, head_dim)) * spread,
        rng.standard_normal((tk, 2, head_dim)) * spread,
        rng.standard_normal((tk, 2, head_dim)),
    )
    return args, dict(
        q_pos=q_pos, k_pos=k_pos, q_seq=np.zeros(tq, dtype=np.int64),
        k_seq=np.zeros(tk, dtype=np.int64), q_runs=np.array([0, tq]),
        k_runs=(np.array([0, tk]), {0: 0}),
    )


def bench_flash_prefill_tile(benchmark):
    """The modal ``long_prefill`` call: 128 rows x 8 heads x DH 8 against
    384 keys of an earlier rank's shard — two fully visible 512 x 128
    score tiles and one whose late 64 keys no row may see (the key band)."""
    args, coords = _prefill_step(2, 1, 3, 8)
    benchmark(flash_attention, *args, **coords)


def bench_flash_diagonal_tile(benchmark):
    """A rank's own shard of the first chunk: two causal triangles and one
    full square in one 512 x 128 tile that no band can trim — the partial-
    tile path, which ``chat_pressure``'s small chunks mostly take."""
    args, coords = _prefill_step(1, 1, 1, 8)
    benchmark(flash_attention, *args, **coords)


def bench_flash_large_logits(benchmark):
    """``bench_flash_prefill_tile`` with q and k scaled by 20 — scores of
    order +-1e3, past ``exp``'s float64 range — so the shift-free sweep's
    range check fails and the call is swept again, shifted: the price of the
    fallback on record (the shifted sweep at these scores, plus one wasted
    shift-free pass; no workload in ``benchmarks/e2e`` ever pays it)."""
    args, coords = _prefill_step(2, 1, 3, 8, spread=20.0)
    benchmark(flash_attention, *args, **coords)


def bench_flash_prefill_tile_dh128(benchmark):
    """``bench_flash_prefill_tile`` at the paper's head dim: the two
    matmuls outweigh the softmax passes, so the trajectory also holds a
    compute-bound point."""
    args, coords = _prefill_step(2, 1, 3, 128)
    benchmark(flash_attention, *args, **coords)


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


def bench_cache_get_decode_cp4(benchmark):
    """One rank's two KV reads of a ``decode_batch`` round on a 2-layer
    model: 32 sequences x ~23 tokens fused at layer 0, then layer 1 for the
    same ``seq_ids`` list — which concatenates K and V only and takes the
    rest (positions, sequence ids, runs, run index, reach) from layer 0."""
    rng = np.random.default_rng(6)
    cache = RankKVCache(n_layers=2, n_kv_heads=2, head_dim=8)
    for sid, n in enumerate(rng.integers(19, 28, 32).tolist()):
        for layer in range(2):
            cache.append(layer, sid, rng.standard_normal((n, 2, 8)), rng.standard_normal((n, 2, 8)), np.arange(n))
    sids = list(range(32))

    def run():  # (a layer-0 read always derives; layer 1 shares what it derived)
        return cache.get(0, sids), cache.get(1, sids)

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
