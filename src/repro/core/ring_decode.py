"""Batched ring pass-Q decode — paper Algorithm 4 (§3.6).

Decode emits exactly one token per sequence per iteration. Two problems if
those tokens were always assigned to the same rank:

1. That rank's KV cache grows every step while the others stay flat — it
   OOMs long before the aggregate CP cache capacity is reached.
2. Its attention/comms load is higher every single step.

The paper's fix is **round-robin assignment offset by one each iteration**:
at decode step ``t``, the token of batch slot ``b`` is owned by rank
``(b + t) mod N``, so generated KV spreads evenly across all CP ranks
(:meth:`repro.core.sharding.ShardPlan.round_robin`). With ``T = 1`` per
sequence, circulating Q (plus the batch ids, Algorithm 4) is essentially
always cheaper than circulating KV (Equation 1), so decode is the pass-Q
ring of prefill over one-token queries: each rank's query shard holds the
tokens of the slots it owns, planned and padded by
:func:`repro.core.ring_skip.plan_prefill` as a pass-Q prefill's are, and
swept by :func:`repro.core.ring_skip.ring_sweep` with each message's batch
ids riding beside its queries. Each rank gets back its own rows; nothing is
gathered into batch order.
"""

from __future__ import annotations

import numpy as np

from repro.attention.flash import AttentionResult
from repro.core.ring_skip import RingPlan, ring_sweep
from repro.core.sharding import ShardedKV
from repro.distributed.process_group import SimProcessGroup


def ring_passq_decode(
    group: SimProcessGroup,
    plan: RingPlan,
    qs: list[np.ndarray],
    kv_shards: list[ShardedKV],
    *,
    slots: list[np.ndarray],
) -> list[AttentionResult]:
    """Batched ring pass-Q decode (Algorithm 4).

    Args:
        group: lockstep process group.
        plan: the round's :class:`~repro.core.ring_skip.RingPlan`, built by
            :func:`~repro.core.ring_skip.plan_prefill` with ``pass_q=True``
            over each rank's one-token queries of the batch slots it owns
            this iteration (empty where it owns none). Padding tops every
            message up to ``ceil(B / N)`` rows — the decode overhead of
            Table 8's analysis when ``B`` is not a multiple of ``N``.
        qs: per rank, this layer's ``[n, NH, DH]`` query rows.
        kv_shards: per-rank resident KV shards covering all sequences
            (cached prompt + previously decoded tokens). The new tokens'
            own KV must be *included* already (a decode token attends to
            itself); the caller appends it to the owning rank's cache
            before calling, mirroring the production engine.
        slots: per rank, the batch ids of its query message's rows, ``-1``
            on its pad rows (:meth:`~repro.core.sharding.ShardPlan.batch_ids`);
            each message carries them.

    The ring is :func:`repro.core.ring_skip.ring_sweep`'s; its skipped
    partials are mostly an all-pad query payload (when ``B`` is not a
    multiple of ``N``) or an empty or unrelated KV shard.

    Returns:
        Per-rank exact :class:`AttentionResult`, one row per query of the
        rank's shard.

    Raises:
        ValueError: unless every rank has one batch id per message row.
    """
    q_wire, kv_wire = plan.wire(qs, kv_shards)
    if len(slots) != len(q_wire):
        raise ValueError(f"need one batch id per message row on every rank: ids for {len(slots)} of {len(q_wire)} ranks")
    for rank, (wire, batch_ids) in enumerate(zip(q_wire, slots)):
        if len(batch_ids) != len(wire["q"]):
            raise ValueError(
                f"need one batch id per message row on every rank: rank {rank} has {len(batch_ids)} "
                f"ids for {len(wire['q'])} rows"
            )
        wire["slots"] = batch_ids
    results = ring_sweep(group, q_wire, kv_wire, plan.pairs, pass_q=True, tags=("decode-passq", "decode-merge"))
    return [AttentionResult(out=r.out[:n], lse=r.lse[:n]) for r, (n, _) in zip(results, plan.counts)]
