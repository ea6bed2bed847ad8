"""Ring pass-KV attention — paper Algorithm 2 (Figure 3).

Each CP rank keeps its queries stationary and circulates its KV shard around
the ring. At ring step ``j``, rank ``k`` holds the KV shard that originated
at rank ``s = (k - j) mod N``, computes the partial attention
``O_s_k = GQA(Q_k, KV_s)``, and forwards the shard to its next neighbour
(overlapped with the compute on real hardware). The partials compose as
they arrive: each step's shift-free sums are added to the rank's running
pair, and the rank normalises once after ``N`` steps — merge attention
(Appendix B) at shift 0, see :mod:`repro.core.merge`.

Why pass-KV for full prefill: with GQA, KV messages are ``2 * NKV / NH`` the
size of Q messages (16x smaller for Llama3 405B), and with ``P = 0`` the
attention compute per step comfortably hides the SendRecv (Equation 2). The
fused-varseq variant here also honours the equal-message-size invariant by
padding per-sequence KV slices to ``L_i = max_j (P^i_j + T^i_j)`` before
the ring starts (see :func:`repro.core.sharding.pad_kv_shards`).
"""

from __future__ import annotations

from repro.attention.flash import AttentionResult, flash_attention
from repro.core.merge import RunningSum
from repro.core.ring_skip import kv_reach, partial_fully_masked, query_reach
from repro.core.sharding import ShardedKV, ShardedQueries, pad_kv_shards
from repro.distributed.process_group import SimProcessGroup
from repro.distributed.ring import source_rank_at_step


def ring_passkv_prefill(
    group: SimProcessGroup,
    queries: list[ShardedQueries],
    kv_shards: list[ShardedKV],
    *,
    block_size: int = 128,
) -> list[AttentionResult]:
    """Fused varseq ring pass-KV prefill (Algorithm 2).

    Args:
        group: lockstep process group (world_size == len(queries)).
        queries: per-rank query shards (new tokens only, load-balance
            sharded; see :func:`repro.core.sharding.shard_sequences`).
        kv_shards: per-rank KV shards containing both cached tokens from
            previous turns and the freshly projected KV of this turn's new
            tokens. Per-sequence KV slices are padded to a common length
            before the ring starts (the equal-message-size invariant).
        block_size: KV block size of the local flash kernel.

    A ring-step partial whose causal mask is provably all-False (see
    :mod:`repro.core.ring_skip`) is never computed: it is the identity
    element, zero sums, so nothing is added and the output is unchanged.

    Returns:
        Per-rank exact :class:`AttentionResult` for each rank's queries, in
        the rank's local token order.
    """
    n = group.world_size
    if len(queries) != n or len(kv_shards) != n:
        raise ValueError(
            f"need one query and KV shard per rank: world={n}, "
            f"queries={len(queries)}, kvs={len(kv_shards)}"
        )

    blocks, _ = pad_kv_shards(list(kv_shards))

    # Causal-reach summaries, computed once per shard. blocks[r] at step 0
    # originated at rank r, so k_summary is indexed by origin rank and the
    # ring schedule (source_rank_at_step) recovers which summary applies to
    # the payload a rank holds at any later step.
    q_summary = [query_reach(qr.positions, qr.seq_ids, qr.runs) for qr in queries]
    k_summary = [kv_reach(blk.positions, blk.seq_ids, blk.runs) for blk in blocks]

    # Each rank's running sums, added to in place: one partial's memory per
    # rank, whatever N.
    running = [RunningSum() for _ in range(n)]
    for step in range(n):
        for rank in range(n):
            src = source_rank_at_step(rank, step, n)
            if partial_fully_masked(q_summary[rank], k_summary[src]):
                # Provably all-masked partial: the identity, zero sums,
                # without touching the kernel (in causal full prefill this
                # skips roughly half of all rank x step partials).
                continue
            blk = blocks[rank]
            running[rank].add(
                flash_attention(
                    queries[rank].q,
                    blk.k,
                    blk.v,
                    q_pos=queries[rank].positions,
                    k_pos=blk.positions,
                    q_seq=queries[rank].seq_ids,
                    k_seq=blk.seq_ids,
                    block_size=block_size,
                    q_runs=queries[rank].runs,
                    k_runs=(blk.runs, blk.run_index),
                    sums=True,
                )
            )
        if step < n - 1:
            blocks = group.ring_shift(blocks, step=step, tag="passkv")

    return [sums.result(*qr.q.shape) for sums, qr in zip(running, queries)]
