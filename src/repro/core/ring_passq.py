"""Ring pass-Q attention — paper Algorithm 3 (Figure 4).

Dual of pass-KV: the (large, cached) KV shards stay resident and the (small)
query shards circulate. Partial outputs therefore end the ring *scattered*:
rank ``k`` holds ``O^k_s`` — the partial for rank ``s``'s queries against
rank ``k``'s KV — so a permute + All2All over the CP group restores them to
their source ranks before the merge. That All2All sits on the critical path
and is what the refined heuristic of Appendix C (Algorithm 5) accounts for.
What it carries is each partial's shift-free sums ``(acc, den)`` — as many
elements as ``(O, LSE)``. The sweep, its skip and the All2All are
:func:`repro.core.ring_skip.ring_sweep`'s.

pass-Q wins when ``T`` (new tokens) is small relative to the persistent KV
length ``P`` — the high-cache-hit-rate partial prefill and decode regimes —
because circulating Q moves ``T * NH * DH`` elements versus pass-KV's
``2 * (P + T) * NKV * DH``.
"""

from __future__ import annotations

import numpy as np

from repro.attention.flash import AttentionResult
from repro.core.ring_skip import RingPlan, ring_sweep
from repro.core.sharding import ShardedKV
from repro.distributed.process_group import SimProcessGroup


def ring_passq_prefill(
    group: SimProcessGroup,
    plan: RingPlan,
    qs: list[np.ndarray],
    kv_shards: list[ShardedKV],
) -> list[AttentionResult]:
    """Fused varseq ring pass-Q prefill (Algorithm 3).

    Args:
        group: lockstep process group.
        plan: the round's :class:`~repro.core.ring_skip.RingPlan`, built by
            :func:`~repro.core.ring_skip.plan_prefill` with ``pass_q=True``.
            Load-balanced sharding guarantees near-equal query counts; the
            plan pads every message to the longest (padding outputs are
            dropped).
        qs: per rank, this layer's ``[n, NH, DH]`` query rows.
        kv_shards: per-rank resident KV shards (cached + new), never moved.

    Returns:
        Per-rank exact :class:`AttentionResult`, trimmed back to each rank's
        original (pre-padding) query count.
    """
    results = ring_sweep(group, *plan.wire(qs, kv_shards), plan.pairs, pass_q=True, tags=("passq", "passq-merge"))
    return [AttentionResult(out=r.out[:n], lse=r.lse[:n]) for r, (n, _) in zip(results, plan.counts)]
