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

import numpy as np

from repro.attention.flash import AttentionResult
from repro.core.ring_skip import RingPlan, ring_sweep
from repro.core.sharding import ShardedKV
from repro.distributed.process_group import SimProcessGroup


def ring_passkv_prefill(
    group: SimProcessGroup,
    plan: RingPlan,
    qs: list[np.ndarray],
    kv_shards: list[ShardedKV],
) -> list[AttentionResult]:
    """Fused varseq ring pass-KV prefill (Algorithm 2).

    Args:
        group: lockstep process group (world_size == len(qs)).
        plan: the round's :class:`~repro.core.ring_skip.RingPlan`, built by
            :func:`~repro.core.ring_skip.plan_prefill` with ``pass_q=False``
            over the per-rank query shards (new tokens only, load-balance
            sharded; see :func:`repro.core.sharding.shard_sequences`) and
            KV shards of the round's first layer. It pads per-sequence KV
            slices to a common length (the equal-message-size invariant).
        qs: per rank, this layer's ``[n, NH, DH]`` query rows.
        kv_shards: per-rank KV shards containing both cached tokens from
            previous turns and the freshly projected KV of this turn's new
            tokens, of the token counts the plan was built for.

    Returns:
        Per-rank exact :class:`AttentionResult` for each rank's queries, in
        the rank's local token order.
    """
    return ring_sweep(group, *plan.wire(qs, kv_shards), plan.pairs, pass_q=False, tags=("passkv", None))
