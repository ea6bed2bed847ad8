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

from repro.attention.flash import AttentionResult
from repro.core.ring_skip import RingPlan, plan_prefill, ring_sweep
from repro.core.sharding import ShardedKV, ShardedQueries
from repro.distributed.process_group import SimProcessGroup


def ring_passq_prefill(
    group: SimProcessGroup,
    queries: list[ShardedQueries],
    kv_shards: list[ShardedKV],
    *,
    block_size: int = 128,
    plan: RingPlan | None = None,
) -> list[AttentionResult]:
    """Fused varseq ring pass-Q prefill (Algorithm 3).

    Args:
        group: lockstep process group.
        queries: per-rank query shards. Load-balanced sharding guarantees
            near-equal lengths; shards are padded to the max so ring
            messages are equal-sized (padding outputs are dropped).
        kv_shards: per-rank resident KV shards (cached + new), never moved.
        block_size: KV block size of the local flash kernel.
        plan: the round's :class:`~repro.core.ring_skip.RingPlan`, as for
            :func:`repro.core.ring_passkv.ring_passkv_prefill`.

    Returns:
        Per-rank exact :class:`AttentionResult`, trimmed back to each rank's
        original (pre-padding) query count.
    """
    plan = plan if plan is not None else plan_prefill(queries, kv_shards, pass_q=True)
    results = ring_sweep(
        group, *plan.wire([s.q for s in queries], kv_shards), plan.pairs,
        pass_q=True, tags=("passq", "passq-merge"), block_size=block_size,
    )
    return [
        AttentionResult(out=r.out[: len(qr)], lse=r.lse[: len(qr)])
        for r, qr in zip(results, queries)
    ]
