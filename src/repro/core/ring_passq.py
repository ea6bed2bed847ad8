"""Ring pass-Q attention — paper Algorithm 3 (Figure 4).

Dual of pass-KV: the (large, cached) KV shards stay resident and the (small)
query shards circulate. Partial outputs therefore end the ring *scattered*:
rank ``k`` holds ``O^k_s`` — the partial for rank ``s``'s queries against
rank ``k``'s KV — so a permute + All2All over the CP group restores them to
their source ranks before the merge. That All2All sits on the critical path
and is what the refined heuristic of Appendix C (Algorithm 5) accounts for.

pass-Q wins when ``T`` (new tokens) is small relative to the persistent KV
length ``P`` — the high-cache-hit-rate partial prefill and decode regimes —
because circulating Q moves ``T * NH * DH`` elements versus pass-KV's
``2 * (P + T) * NKV * DH``.
"""

from __future__ import annotations

import numpy as np

from repro.attention.flash import AttentionResult, flash_attention
from repro.core.merge import merge_partials
from repro.core.ring_skip import kv_reach, partial_fully_masked, query_reach
from repro.core.sharding import ShardedKV, ShardedQueries, pad_query_shards
from repro.distributed.process_group import SimProcessGroup
from repro.distributed.ring import source_rank_at_step


def ring_passq_prefill(
    group: SimProcessGroup,
    queries: list[ShardedQueries],
    kv_shards: list[ShardedKV],
    *,
    scale: float | None = None,
    block_size: int = 128,
    mask_fn=None,
    compute_dtype=None,
    skip_masked_shards: bool = True,
) -> list[AttentionResult]:
    """Fused varseq ring pass-Q prefill (Algorithm 3).

    Args:
        group: lockstep process group.
        queries: per-rank query shards. Load-balanced sharding guarantees
            near-equal lengths; shards are padded to the max so ring
            messages are equal-sized (padding outputs are dropped).
        kv_shards: per-rank resident KV shards (cached + new), never moved.
        scale: attention score scale (default ``1/sqrt(DH)``).
        block_size: KV block size of the local flash kernel.
        mask_fn: optional absolute-coordinate mask override (windowed /
            sink attention).
        compute_dtype: kernel arithmetic dtype forwarded to the local flash
            kernel (merge accumulation stays float64; default exact fp64).
        skip_masked_shards: replace provably all-masked ring-step partials
            with the exact identity element instead of calling the kernel
            (see :mod:`repro.core.ring_skip`); disabled under ``mask_fn``.

    Returns:
        Per-rank exact :class:`AttentionResult`, trimmed back to each rank's
        original (pre-padding) query count.
    """
    n = group.world_size
    if len(queries) != n or len(kv_shards) != n:
        raise ValueError(
            f"need one query and KV shard per rank: world={n}, "
            f"queries={len(queries)}, kvs={len(kv_shards)}"
        )

    original_lengths = [len(q) for q in queries]
    padded, _ = pad_query_shards(list(queries))

    # traveling[k] = the query payload currently held by rank k.
    traveling: list[ShardedQueries] = list(padded)
    # computed[k][s] = partial result rank k computed for origin rank s.
    computed: list[dict[int, AttentionResult]] = [dict() for _ in range(n)]

    # Causal-reach summaries, one scan per shard: padded[s] is the query
    # payload originating at rank s (the ring schedule maps the payload a
    # rank holds at step j back to its origin), KV shards never move.
    skip = skip_masked_shards and mask_fn is None
    if skip:
        q_summary = [query_reach(p.positions, p.seq_ids, p.runs) for p in padded]
        k_summary = [kv_reach(kv.positions, kv.seq_ids, kv.runs) for kv in kv_shards]

    for step in range(n):
        for rank in range(n):
            src = source_rank_at_step(rank, step, n)
            q = traveling[rank]
            if skip and partial_fully_masked(q_summary[src], k_summary[rank]):
                computed[rank][src] = AttentionResult.empty(
                    len(q), q.q.shape[1], q.q.shape[2]
                )
                continue
            kv = kv_shards[rank]
            computed[rank][src] = flash_attention(
                q.q,
                kv.k,
                kv.v,
                q_pos=q.positions,
                k_pos=kv.positions,
                q_seq=q.seq_ids,
                k_seq=kv.seq_ids,
                causal=True,
                scale=scale,
                block_size=block_size,
                mask_fn=mask_fn,
                compute_dtype=compute_dtype,
                q_runs=q.runs,
                k_runs=(kv.runs, kv.run_index),
            )
        if step < n - 1:
            traveling = group.ring_shift(traveling, step=step, tag="passq")

    # Permute + All2All: rank k sends O^k_s (as (out, lse)) back to rank s.
    matrix = [
        [
            (computed[holder][origin].out, computed[holder][origin].lse)
            for origin in range(n)
        ]
        for holder in range(n)
    ]
    restored = group.all_to_all(matrix, tag="passq-merge")

    results = []
    for rank in range(n):
        partials = [
            AttentionResult(out=out, lse=lse) for out, lse in restored[rank]
        ]
        merged = merge_partials(partials)
        keep = original_lengths[rank]
        results.append(AttentionResult(out=merged.out[:keep], lse=merged.lse[:keep]))
    return results
