"""All-gather based pass-KV prefill (Llama3 training style, §3.5.2).

Instead of ringing KV shards past the queries one hop at a time, this
baseline first all-gathers every rank's KV and then runs a single local
attention per rank. The result is identical (both are exact); the cost is
not: the all-gather completes *before* any attention can start, so its
latency is fully exposed on the critical path — "complicating the overlap
of operations during inference, especially with variant sequence lengths in
a batch and partial prefill" (the paper's stated reason to prefer the ring).

The traced ``allgather`` bytes versus the ring's overlappable ``sendrecv``
bytes drive the all-gather ablation
(:mod:`repro.experiments.ablation_allgather`).
"""

from __future__ import annotations

from repro.attention.flash import AttentionResult, attention_layout, flash_attention
from repro.core.merge import RunningSum
from repro.core.sharding import ShardedKV, ShardedQueries, pad_kv_shards
from repro.distributed.process_group import SimProcessGroup


def allgather_passkv_prefill(
    group: SimProcessGroup,
    queries: list[ShardedQueries],
    kv_shards: list[ShardedKV],
) -> list[AttentionResult]:
    """Exact prefill attention via AllGather(KV) + one local attention.

    Same shards, padded KV slices and (exact) output as
    :func:`repro.core.ring_passkv.ring_passkv_prefill`; only the
    communication schedule differs.
    """
    n = group.world_size
    if len(queries) != n or len(kv_shards) != n:
        raise ValueError(
            f"need one query and KV shard per rank: world={n}, "
            f"queries={len(queries)}, kvs={len(kv_shards)}"
        )

    blocks, _ = pad_kv_shards(list(kv_shards))

    payloads = [
        {"k": b.k, "v": b.v, "pos": b.positions, "seq": b.seq_ids} for b in blocks
    ]
    gathered = group.all_gather(payloads, tag="allgather-passkv")

    results = []
    for rank in range(n):
        full = [
            ShardedKV(
                k=p["k"], v=p["v"], positions=p["pos"], seq_ids=p["seq"]
            )
            for p in gathered[rank]
        ]
        merged, mine = ShardedKV.concat(full), queries[rank]
        sums = flash_attention(mine.q, merged.k, merged.v, attention_layout(mine, merged))
        results.append(RunningSum([sums]).result(*mine.q.shape))
    return results
