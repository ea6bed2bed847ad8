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
essentially always cheaper than circulating KV (Equation 1), so decode runs
the pass-Q ring of prefill (:func:`repro.core.ring_skip.ring_sweep`) over
round-robin payloads, then gathers the rows back into batch order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.attention.flash import AttentionResult
from repro.attention.masks import PAD_SEQ, run_index
from repro.core.ring_skip import RingPlan, RingSides, kv_structure, query_reach, ring_sweep
from repro.core.sharding import ShardedKV
from repro.distributed.process_group import SimProcessGroup


@dataclass(frozen=True)
class DecodeBatch:
    """One decode iteration's inputs: one query token per active sequence.

    Attributes:
        q: ``[B, NH, DH]`` query projections of the freshly sampled tokens.
        positions: ``[B]`` integer absolute position of each new token
            (== current sequence length before this step).
        seq_ids: ``[B]`` integer sequence ids (unique within the batch).
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
        for name, coord in (("positions", self.positions), ("seq_ids", self.seq_ids)):
            if coord.dtype.kind not in "iu":
                raise ValueError(f"{name} must be integers, got {coord.dtype}")
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
    layouts: RingPlan  # the ring's pairs and KV structure, planned by its first layer


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
            RingPlan(),
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

    The ring is :func:`repro.core.ring_skip.ring_sweep`'s; its skipped
    partials are mostly an all-pad query payload (when ``B`` is not a
    multiple of ``N``) or an empty or unrelated KV shard.

    Returns:
        ``(result, assignment)``: ``result`` holds the exact attention
        output/LSE in *original batch order* (``[B, NH, DH]`` / ``[B, NH]``),
        and ``assignment[b]`` is the rank that owned slot ``b`` this step
        (where its KV was appended).
    """
    plan = round_plan(batch, group.world_size, step)
    # Only the queries are this layer's own; their batch slots ride along.
    q_wire = [
        {"q": _pad_rows(batch.q[own], plan.per_rank - own.shape[0], 0.0), **coord}
        for own, coord in zip(plan.slots, plan.coords)
    ]
    # The KV side's structure is the cache's, the same at every layer.
    pairs = plan.layouts.for_structure(kv_shards)
    if plan.layouts.sides is None:
        plan.layouts.sides = RingSides(plan.q_runs, plan.q_reach, *kv_structure(kv_shards))
    kv_wire = [{"k": kv.k, "v": kv.v, "pos": kv.positions, "seq": kv.seq_ids} for kv in kv_shards]
    merged = ring_sweep(
        group, q_wire, kv_wire, plan.layouts.sides,
        pass_q=True, tags=("decode-passq", "decode-merge"), block_size=block_size, pairs=pairs,
    )
    # One gather into batch order (pad rows — a whole rank's, when it owns
    # no slot — ride along unread).
    result = AttentionResult(
        out=np.concatenate([m.out for m in merged]).take(plan.order, 0),
        lse=np.concatenate([m.lse for m in merged]).take(plan.order, 0),
    )
    return result, plan.assignment
