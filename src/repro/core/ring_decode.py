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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.attention.flash import AttentionResult
from repro.attention.masks import PAD_SEQ, run_index
from repro.core.ring_skip import RingPlan, plan_ring, ring_sweep
from repro.core.sharding import Padding, ShardedKV
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
    """What a decode round derives from its tokens, the world size, the step
    and its layer-0 KV reads — the same at every layer."""

    assignment: np.ndarray  # [B] rank owning each batch slot
    ids: list  # per rank: its payload's batch ids (its slots, -1 padded)
    order: np.ndarray  # [B] each batch slot's row of the merged [rank, row] rows
    ring: RingPlan  # the ring's messages and pairs


def round_plan(batch: DecodeBatch, kv_shards: list[ShardedKV], step: int) -> RoundPlan:
    """The :class:`RoundPlan` of ``batch`` over one KV shard per rank at
    decode iteration ``step``."""
    n, b = len(kv_shards), batch.batch_size
    assignment = round_robin_assignment(b, n, step)
    # Pad the per-rank query count to ceil(B / N): the paper notes this
    # padding inflates decode work when B is not divisible by N (Table 8).
    per_rank = -(-b // n) if b else 0
    # Every query row is its own sequence (pad rows included), so each
    # payload's run structure is one row per run.
    offsets = np.arange(per_rank + 1)
    q, ids = [], []
    for rank in range(n):
        own = np.nonzero(assignment == rank)[0]  # the batch slots it owns, ascending
        pad = per_rank - own.shape[0]
        seq = _pad_rows(batch.seq_ids[own], pad, PAD_SEQ)
        rows = (per_rank, own, slice(0, own.shape[0]))  # the batch's q rows it carries
        q.append(Padding(_pad_rows(batch.positions[own], pad, 0), seq, offsets, run_index(seq, offsets), rows))
        ids.append(_pad_rows(own, pad, -1))
    return RoundPlan(
        assignment,
        ids,
        # a rank's slots are n apart, so slot b is its owner's row b // n
        assignment * per_rank + np.arange(b) // n,
        plan_ring(q, [b] * n, kv_shards, pass_q=True),
    )


def ring_passq_decode(
    group: SimProcessGroup,
    kv_shards: list[ShardedKV],
    batch: DecodeBatch,
    *,
    step: int = 0,
    block_size: int = 128,
    plan: RoundPlan | None = None,
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
        plan: the round's :class:`RoundPlan` (:func:`round_plan` over
            layer 0's reads), handed over by a caller that runs this ring at
            every layer with the batch's ``q`` rewritten in place; without
            one, the call plans for itself.

    The ring is :func:`repro.core.ring_skip.ring_sweep`'s; its skipped
    partials are mostly an all-pad query payload (when ``B`` is not a
    multiple of ``N``) or an empty or unrelated KV shard.

    Returns:
        ``(result, assignment)``: ``result`` holds the exact attention
        output/LSE in *original batch order* (``[B, NH, DH]`` / ``[B, NH]``),
        and ``assignment[b]`` is the rank that owned slot ``b`` this step
        (where its KV was appended).
    """
    plan = plan if plan is not None else round_plan(batch, kv_shards, step)
    # Only the queries are this layer's own; their batch slots ride along.
    q_wire, kv_wire = plan.ring.wire([batch.q] * len(kv_shards), kv_shards)
    for wire, ids in zip(q_wire, plan.ids):
        wire["slots"] = ids
    merged = ring_sweep(
        group, q_wire, kv_wire, plan.ring.pairs,
        pass_q=True, tags=("decode-passq", "decode-merge"), block_size=block_size,
    )
    # One gather into batch order (pad rows — a whole rank's, when it owns
    # no slot — ride along unread).
    result = AttentionResult(
        out=np.concatenate([m.out for m in merged]).take(plan.order, 0),
        lse=np.concatenate([m.lse for m in merged]).take(plan.order, 0),
    )
    return result, plan.assignment
