"""Ring pass-Q attention — paper Algorithm 3 (Figure 4).

Dual of pass-KV: the (large, cached) KV shards stay resident and the (small)
query shards circulate. Partial outputs therefore end the ring *scattered*:
rank ``k`` holds ``O^k_s`` — the partial for rank ``s``'s queries against
rank ``k``'s KV — so a permute + All2All over the CP group restores them to
their source ranks before the merge. That All2All sits on the critical path
and is what the refined heuristic of Appendix C (Algorithm 5) accounts for.
What it carries is each partial's shift-free sums ``(acc, den)`` — as many
elements as ``(O, LSE)`` — and the source rank adds them and normalises
once (merge attention at shift 0, see :mod:`repro.core.merge`).

pass-Q wins when ``T`` (new tokens) is small relative to the persistent KV
length ``P`` — the high-cache-hit-rate partial prefill and decode regimes —
because circulating Q moves ``T * NH * DH`` elements versus pass-KV's
``2 * (P + T) * NKV * DH``.
"""

from __future__ import annotations

import numpy as np

from repro.attention.flash import AttentionResult, flash_attention
from repro.core.merge import RunningSum
from repro.core.ring_skip import kv_reach, partial_fully_masked, query_reach
from repro.core.sharding import ShardedKV, ShardedQueries, pad_query_shards
from repro.distributed.process_group import SimProcessGroup
from repro.distributed.ring import source_rank_at_step


def ring_passq_prefill(
    group: SimProcessGroup,
    queries: list[ShardedQueries],
    kv_shards: list[ShardedKV],
    *,
    block_size: int = 128,
) -> list[AttentionResult]:
    """Fused varseq ring pass-Q prefill (Algorithm 3).

    Args:
        group: lockstep process group.
        queries: per-rank query shards. Load-balanced sharding guarantees
            near-equal lengths; shards are padded to the max so ring
            messages are equal-sized (padding outputs are dropped).
        kv_shards: per-rank resident KV shards (cached + new), never moved.
        block_size: KV block size of the local flash kernel.

    A provably all-masked ring-step partial is the exact identity element,
    zero sums, not a kernel call (see :mod:`repro.core.ring_skip`).

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
    # computed[k][s] = the sums rank k computed for origin rank s (an
    # AttentionResult where a range check failed); a skipped one is the
    # ring's one shared zero pair.
    computed: list[list] = [[None] * n for _ in range(n)]
    tq, nh, dh = padded[0].q.shape
    identity = (np.zeros((tq, nh, dh)), np.zeros((tq, nh)))

    # Causal-reach summaries, one scan per shard: padded[s] is the query
    # payload originating at rank s (the ring schedule maps the payload a
    # rank holds at step j back to its origin), KV shards never move.
    q_summary = [query_reach(p.positions, p.seq_ids, p.runs) for p in padded]
    k_summary = [kv_reach(kv.positions, kv.seq_ids, kv.runs) for kv in kv_shards]

    for step in range(n):
        for rank in range(n):
            src = source_rank_at_step(rank, step, n)
            q = traveling[rank]
            if partial_fully_masked(q_summary[src], k_summary[rank]):
                computed[rank][src] = identity
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
                block_size=block_size,
                q_runs=q.runs,
                k_runs=(kv.runs, kv.run_index),
                sums=True,
            )
        if step < n - 1:
            traveling = group.ring_shift(traveling, step=step, tag="passq")

    # Permute + All2All: rank k sends O^k_s (as its sums) back to rank s,
    # which adds what it receives.
    results = []
    for rank, received in enumerate(group.all_to_all(computed, tag="passq-merge")):
        merged = RunningSum(received).result(tq, nh, dh)
        keep = original_lengths[rank]
        results.append(AttentionResult(out=merged.out[:keep], lse=merged.lse[:keep]))
    return results
