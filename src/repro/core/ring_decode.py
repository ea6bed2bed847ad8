"""Batched ring pass-Q decode — paper Algorithm 4 (§3.6).

Decode emits exactly one token per sequence per iteration. Two problems if
those tokens were always assigned to the same rank:

1. That rank's KV cache grows every step while the others stay flat — it
   OOMs long before the aggregate CP cache capacity is reached.
2. Its attention/comms load is higher every single step.

The paper's fix is **round-robin assignment offset by one each iteration**:
at decode step ``t``, the token of batch slot ``b`` is owned by rank
``(b + t) mod N``, so generated KV spreads evenly across all CP ranks. With
``T = 1`` per sequence, circulating Q (plus the batch ids, Algorithm 4) is
essentially always cheaper than circulating KV (Equation 1), so decode is
the pass-Q ring of prefill over one-token queries: each rank's query shard
holds the tokens of the slots it owns, planned and padded by
:func:`repro.core.ring_skip.plan_prefill` as a pass-Q prefill's are, and
swept by :func:`repro.core.ring_skip.ring_sweep` with each message's batch
ids riding beside its queries. Each rank gets back its own rows; nothing is
gathered into batch order.
"""

from __future__ import annotations

import numpy as np

from repro.attention.flash import AttentionResult
from repro.core.ring_skip import RingPlan, plan_prefill, ring_sweep
from repro.core.sharding import ShardedKV, ShardedQueries
from repro.distributed.process_group import SimProcessGroup


def round_robin_assignment(batch_size: int, world_size: int, step: int) -> np.ndarray:
    """Rank owning each batch slot at decode iteration ``step``.

    ``rank(b) = (b + step) mod N`` — the offset-by-one rotation that levels
    KV-cache growth across ranks (§3.6).
    """
    if batch_size < 0:
        raise ValueError(f"batch_size must be >= 0, got {batch_size}")
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return (np.arange(batch_size, dtype=np.int64) + step) % world_size


def ring_passq_decode(
    group: SimProcessGroup,
    queries: list[ShardedQueries],
    kv_shards: list[ShardedKV],
    *,
    slots: list[np.ndarray],
    block_size: int = 128,
    plan: RingPlan | None = None,
) -> list[AttentionResult]:
    """Batched ring pass-Q decode (Algorithm 4).

    Args:
        group: lockstep process group.
        queries: per rank, the one-token queries of the batch slots it owns
            this iteration (:func:`round_robin_assignment`), empty where it
            owns none. Padding tops every message up to ``ceil(B / N)``
            rows — the decode overhead of Table 8's analysis when ``B`` is
            not a multiple of ``N``.
        kv_shards: per-rank resident KV shards covering all sequences
            (cached prompt + previously decoded tokens). The new tokens'
            own KV must be *included* already (a decode token attends to
            itself); the caller appends it to the owning rank's cache
            before calling, mirroring the production engine.
        slots: per rank, the batch ids of its queries; each message carries
            them, ``-1`` on its pad rows.
        block_size: KV block size of the local kernel.
        plan: the round's :class:`~repro.core.ring_skip.RingPlan`, as for
            :func:`repro.core.ring_passq.ring_passq_prefill`; without one,
            the call plans for itself.

    The ring is :func:`repro.core.ring_skip.ring_sweep`'s; its skipped
    partials are mostly an all-pad query payload (when ``B`` is not a
    multiple of ``N``) or an empty or unrelated KV shard.

    Returns:
        Per-rank exact :class:`AttentionResult`, one row per query of the
        rank's shard.

    Raises:
        ValueError: unless every rank has one batch id per query.
    """
    counts, ids_per_rank = [len(s) for s in queries], [len(ids) for ids in slots]
    if ids_per_rank != counts:
        raise ValueError(f"need one batch id per query on every rank: {ids_per_rank} ids for {counts} queries")
    plan = plan if plan is not None else plan_prefill(queries, kv_shards, pass_q=True)
    q_wire, kv_wire = plan.wire([s.q for s in queries], kv_shards)
    for wire, ids in zip(q_wire, slots):
        pad = len(wire["q"]) - len(ids)
        wire["slots"] = np.concatenate([ids, np.full(pad, -1, dtype=np.int64)]) if pad else ids
    results = ring_sweep(
        group, q_wire, kv_wire, plan.pairs,
        pass_q=True, tags=("decode-passq", "decode-merge"), block_size=block_size,
    )
    return [AttentionResult(out=r.out[:n], lse=r.lse[:n]) for r, n in zip(results, counts)]
