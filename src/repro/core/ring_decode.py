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
essentially always cheaper than circulating KV (Equation 1), so decode uses
the pass-Q ring followed by the same permute + All2All + merge as prefill:
the All2All carries each partial's shift-free sums and the source rank adds
them (merge attention at shift 0, see :mod:`repro.core.merge`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.attention.flash import AttentionResult, flash_attention
from repro.attention.masks import PAD_SEQ, run_index
from repro.core.merge import RunningSum
from repro.core.ring_skip import kv_reach, partial_fully_masked, query_reach
from repro.core.sharding import ShardedKV, ShardedQueries
from repro.distributed.process_group import SimProcessGroup
from repro.distributed.ring import source_rank_at_step


@dataclass(frozen=True)
class DecodeBatch:
    """One decode iteration's inputs: one query token per active sequence.

    Attributes:
        q: ``[B, NH, DH]`` query projections of the freshly sampled tokens.
        positions: ``[B]`` absolute position of each new token (== current
            sequence length before this step).
        seq_ids: ``[B]`` sequence ids (must be unique within the batch).
    """

    q: np.ndarray
    positions: np.ndarray
    seq_ids: np.ndarray
    # :func:`round_plan` by (world size, step), for a caller that passes
    # one batch at every layer of the round (new ``q`` written in place)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q.ndim != 3:
            raise ValueError(f"q must be [B, NH, DH], got {self.q.shape}")
        b = self.q.shape[0]
        if self.positions.shape != (b,) or self.seq_ids.shape != (b,):
            raise ValueError("positions and seq_ids must be [B]")
        if len(np.unique(self.seq_ids)) != b:
            raise ValueError("decode batch must contain each sequence at most once")

    @property
    def batch_size(self) -> int:
        return self.q.shape[0]


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


def _pad_rows(rows: np.ndarray, pad: int, fill) -> np.ndarray:
    """``rows`` topped up with ``pad`` rows of ``fill`` (itself when full)."""
    if pad == 0:
        return rows
    return np.concatenate([rows, np.full((pad,) + rows.shape[1:], fill, dtype=rows.dtype)])


class RoundPlan(NamedTuple):
    """What a decode round derives from its tokens, the world size and the
    step — the same at every layer, so derived once and kept on the batch."""

    assignment: np.ndarray  # [B] rank owning each batch slot
    slots: list  # per rank: the batch slots it owns, ascending
    per_rank: int  # rows of every payload
    order: np.ndarray  # [B] each batch slot's row of the merged [rank, row] rows
    coords: list  # per rank: its payload's padded pos / seq / slots
    q_runs: list  # per origin: its payload's (offsets, {seq_id: row}) runs
    q_reach: list  # per origin: its payload's query_reach
    origins: list  # [j][rank]: whose payload rank holds at ring step j


def round_plan(batch: DecodeBatch, n: int, step: int) -> RoundPlan:
    """The :class:`RoundPlan` of ``batch`` on ``n`` ranks at decode iteration
    ``step`` (the engine reads its ``assignment`` and ``slots`` too)."""
    plan = batch._plans.get((n, step))
    if plan is None:
        b = batch.batch_size
        assignment = round_robin_assignment(b, n, step)
        # Pad the per-rank query count to ceil(B / N): the paper notes this
        # padding inflates decode work when B is not divisible by N (Table 8).
        per_rank = -(-b // n) if b else 0
        slots = [np.nonzero(assignment == rank)[0] for rank in range(n)]
        coords = [
            {
                "pos": _pad_rows(batch.positions[own], per_rank - own.shape[0], 0),
                "seq": _pad_rows(batch.seq_ids[own], per_rank - own.shape[0], PAD_SEQ),
                "slots": _pad_rows(own, per_rank - own.shape[0], -1),
            }
            for own in slots
        ]
        # Every query row is its own sequence (pad rows included), so each
        # payload's run structure is one row per run.
        offsets = np.arange(per_rank + 1)
        plan = batch._plans[(n, step)] = RoundPlan(
            assignment,
            slots,
            per_rank,
            # a rank's slots are n apart, so slot b is its owner's row b // n
            assignment * per_rank + np.arange(b) // n,
            coords,
            [(offsets, run_index(c["seq"], offsets)) for c in coords],
            [query_reach(c["pos"], c["seq"], offsets) for c in coords],
            [[source_rank_at_step(rank, j, n) for rank in range(n)] for j in range(n)],
        )
    return plan


def ring_passq_decode(
    group: SimProcessGroup,
    kv_shards: list[ShardedKV],
    batch: DecodeBatch,
    *,
    step: int = 0,
    block_size: int = 128,
) -> tuple[AttentionResult, np.ndarray]:
    """Batched ring pass-Q decode (Algorithm 4).

    Args:
        group: lockstep process group.
        kv_shards: per-rank resident KV shards covering all sequences
            (cached prompt + previously decoded tokens). The new tokens'
            own KV must be *included* already (a decode token attends to
            itself); the caller appends it to the owning rank's cache
            before calling, mirroring the production engine.
        batch: this iteration's single-token-per-sequence queries.
        step: decode iteration index, drives the round-robin offset.
        block_size: KV block size of the local kernel.

    A provably all-masked ring-step partial is the exact identity element,
    not a kernel call (see :mod:`repro.core.ring_skip`). In decode that is
    mostly an all-pad query payload (when ``B`` is not a multiple of ``N``)
    or an empty or unrelated KV shard.

    Returns:
        ``(result, assignment)``: ``result`` holds the exact attention
        output/LSE in *original batch order* (``[B, NH, DH]`` / ``[B, NH]``),
        and ``assignment[b]`` is the rank that owned slot ``b`` this step
        (where its KV was appended).
    """
    n = group.world_size
    if len(kv_shards) != n:
        raise ValueError(f"need one KV shard per rank, got {len(kv_shards)} for world {n}")
    nh, dh = batch.q.shape[1], batch.q.shape[2]
    plan = round_plan(batch, n, step)
    per_rank = plan.per_rank

    # Only the queries are this layer's own (traveling[s] starts as the
    # payload originating at rank s; the ring schedule recovers the origin).
    traveling = [
        {"q": _pad_rows(batch.q[own], per_rank - own.shape[0], 0.0), **coord}
        for own, coord in zip(plan.slots, plan.coords)
    ]
    # computed[k][s] = the sums rank k computed for origin rank s (an
    # AttentionResult where a range check failed); a skipped one is the
    # ring's one shared zero pair.
    computed: list[list] = [[None] * n for _ in range(n)]
    identity = (np.zeros((per_rank, nh, dh)), np.zeros((per_rank, nh)))

    k_summary = [
        kv.reach if kv.reach is not None else kv_reach(kv.positions, kv.seq_ids, kv.runs)
        for kv in kv_shards
    ]

    for j in range(n):
        for rank, src in enumerate(plan.origins[j]):
            q = traveling[rank]
            if partial_fully_masked(plan.q_reach[src], k_summary[rank]):
                computed[rank][src] = identity
                continue
            kv = kv_shards[rank]
            computed[rank][src] = flash_attention(
                q["q"],
                kv.k,
                kv.v,
                q_pos=q["pos"],
                k_pos=kv.positions,
                q_seq=q["seq"],
                k_seq=kv.seq_ids,
                block_size=block_size,
                q_runs=plan.q_runs[src],
                k_runs=(kv.runs, kv.run_index),
                sums=True,
            )
        if j < n - 1:
            traveling = group.ring_shift(traveling, step=j, tag="decode-passq")

    # Permute + All2All the partial sums back to the source ranks, each of
    # which adds its N, then one gather into batch order (pad rows — a whole
    # rank's, when it owns no slot — ride along unread).
    merged = [
        RunningSum(received).result(per_rank, nh, dh)
        for received in group.all_to_all(computed, tag="decode-merge")
    ]
    result = AttentionResult(
        out=np.concatenate([m.out for m in merged]).take(plan.order, 0),
        lse=np.concatenate([m.lse for m in merged]).take(plan.order, 0),
    )
    return result, plan.assignment
