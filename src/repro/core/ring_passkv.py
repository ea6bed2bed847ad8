"""Ring pass-KV attention — paper Algorithm 2 (Figure 3).

Each CP rank keeps its queries stationary and circulates its KV shard around
the ring. At ring step ``j``, rank ``k`` holds the KV shard that originated
at rank ``s = (k - j) mod N``, computes the partial attention
``O_s_k = GQA(Q_k, KV_s)``, and forwards the shard to its next neighbour
(overlapped with the compute on real hardware). The sweep, its causal shard
skip and the composition of the partials as they arrive are
:func:`repro.core.ring_skip.ring_sweep`'s.

Why pass-KV for full prefill: with GQA, KV messages are ``2 * NKV / NH`` the
size of Q messages (16x smaller for Llama3 405B), and with ``P = 0`` the
attention compute per step comfortably hides the SendRecv (Equation 2). The
fused-varseq variant here also honours the equal-message-size invariant by
padding per-sequence KV slices to ``L_i = max_j (P^i_j + T^i_j)`` before
the ring starts (see :func:`repro.core.sharding.plan_kv_padding`).
"""

from __future__ import annotations

from repro.attention.flash import AttentionResult
from repro.core.ring_skip import RingPlan, plan_prefill, ring_sweep
from repro.core.sharding import ShardedKV, ShardedQueries
from repro.distributed.process_group import SimProcessGroup


def ring_passkv_prefill(
    group: SimProcessGroup,
    queries: list[ShardedQueries],
    kv_shards: list[ShardedKV],
    *,
    block_size: int = 128,
    plan: RingPlan | None = None,
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
        plan: the round's :class:`~repro.core.ring_skip.RingPlan`
            (:func:`~repro.core.ring_skip.plan_prefill` over layer 0's
            shards), handed over by a caller that runs this ring at every
            layer; without one, the call plans for itself.

    Returns:
        Per-rank exact :class:`AttentionResult` for each rank's queries, in
        the rank's local token order.
    """
    plan = plan if plan is not None else plan_prefill(queries, kv_shards, pass_q=False)
    return ring_sweep(
        group, *plan.wire([s.q for s in queries], kv_shards), plan.pairs,
        pass_q=False, tags=("passkv", None), block_size=block_size,
    )
