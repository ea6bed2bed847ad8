"""Ring pass-KV attention — paper Algorithm 2 (Figure 3).

Each CP rank keeps its queries stationary and circulates its KV shard around
the ring. At ring step ``j``, rank ``k`` holds the KV shard that originated
at rank ``s = (k - j) mod N``, computes the partial attention
``O_s_k = GQA(Q_k, KV_s)``, and forwards the shard to its next neighbour
(overlapped with the compute on real hardware). After ``N`` partials the
exact output is recovered with merge attention (Appendix B).

Why pass-KV for full prefill: with GQA, KV messages are ``2 * NKV / NH`` the
size of Q messages (16x smaller for Llama3 405B), and with ``P = 0`` the
attention compute per step comfortably hides the SendRecv (Equation 2). The
fused-varseq variant here also honours the equal-message-size invariant by
padding per-sequence KV slices to ``L_i = max_j (P^i_j + T^i_j)`` before
the ring starts (see :func:`repro.core.sharding.pad_kv_shards`).
"""

from __future__ import annotations

import numpy as np

from repro.attention.flash import AttentionResult, flash_attention
from repro.core.merge import merge_partials
from repro.core.ring_skip import kv_reach, partial_fully_masked, query_reach
from repro.core.sharding import ShardedKV, ShardedQueries, pad_kv_shards
from repro.distributed.process_group import SimProcessGroup
from repro.distributed.ring import source_rank_at_step


def ring_passkv_prefill(
    group: SimProcessGroup,
    queries: list[ShardedQueries],
    kv_shards: list[ShardedKV],
    *,
    scale: float | None = None,
    block_size: int = 128,
    pad_messages: bool = True,
    mask_fn=None,
    compute_dtype=None,
    skip_masked_shards: bool = True,
) -> list[AttentionResult]:
    """Fused varseq ring pass-KV prefill (Algorithm 2).

    Args:
        group: lockstep process group (world_size == len(queries)).
        queries: per-rank query shards (new tokens only, load-balance
            sharded; see :func:`repro.core.sharding.shard_sequences`).
        kv_shards: per-rank KV shards containing both cached tokens from
            previous turns and the freshly projected KV of this turn's new
            tokens.
        scale: attention score scale (default ``1/sqrt(DH)``).
        block_size: KV block size of the local flash kernel.
        pad_messages: enforce the equal-message-size ring invariant by
            padding per-sequence KV slices; disable only in unit tests that
            want to observe raw shard lengths.
        mask_fn: optional absolute-coordinate mask override (windowed /
            sink attention); exactness is preserved because masks never
            depend on storage order.
        compute_dtype: kernel arithmetic dtype forwarded to the local flash
            kernel (merge accumulation stays float64; default exact fp64).
        skip_masked_shards: skip ring-step partials whose causal mask is
            provably all-False (see :mod:`repro.core.ring_skip`) — the
            skipped partial is replaced by the exact identity element, so
            output is unchanged. Disabled automatically under ``mask_fn``,
            which *replaces* the causal predicate (it may be non-causal),
            invalidating the reach test.

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

    if pad_messages:
        blocks, _ = pad_kv_shards(list(kv_shards))
    else:
        blocks = list(kv_shards)

    # Causal-reach summaries, computed once per shard. blocks[r] at step 0
    # originated at rank r, so k_summary is indexed by origin rank and the
    # ring schedule (source_rank_at_step) recovers which summary applies to
    # the payload a rank holds at any later step.
    skip = skip_masked_shards and mask_fn is None
    if skip:
        q_summary = [query_reach(qr.positions, qr.seq_ids, qr.runs) for qr in queries]
        k_summary = [kv_reach(blk.positions, blk.seq_ids, blk.runs) for blk in blocks]

    partials: list[list[AttentionResult]] = [[] for _ in range(n)]
    for step in range(n):
        for rank in range(n):
            src = source_rank_at_step(rank, step, n)
            if skip and partial_fully_masked(q_summary[rank], k_summary[src]):
                # Provably all-masked partial: append the identity element
                # without touching the kernel (in causal full prefill this
                # skips roughly half of all rank x step partials).
                tq, nh, dh = queries[rank].q.shape
                partials[rank].append(AttentionResult.empty(tq, nh, dh))
            else:
                blk = blocks[rank]
                partials[rank].append(
                    flash_attention(
                        queries[rank].q,
                        blk.k,
                        blk.v,
                        q_pos=queries[rank].positions,
                        k_pos=blk.positions,
                        q_seq=queries[rank].seq_ids,
                        k_seq=blk.seq_ids,
                        causal=True,
                        scale=scale,
                        block_size=block_size,
                        mask_fn=mask_fn,
                        compute_dtype=compute_dtype,
                        q_runs=queries[rank].runs,
                        k_runs=(blk.runs, blk.run_index),
                    )
                )
        if step < n - 1:
            blocks = group.ring_shift(blocks, step=step, tag="passkv")

    return [merge_partials(p) for p in partials]
