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
the pass-Q ring followed by the same permute + All2All + merge as prefill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attention.flash import AttentionResult, flash_attention
from repro.attention.masks import PAD_SEQ, run_index
from repro.core.merge import merge_partials
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
    # :func:`_round_plan` by (world size, step), for a caller that passes
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


def _round_plan(batch: DecodeBatch, n: int, step: int) -> tuple:
    """What the ring derives from the round's tokens, ``n`` and ``step`` —
    the same at every layer, so kept on the batch. Per rank: the batch
    ``slots`` it owns and its payload's padded ``coords``; per origin: its
    payload's ``(offsets, {seq_id: row})`` runs and :func:`query_reach`;
    ``origins[j][rank]``: whose payload ``rank`` holds at ring step ``j``."""
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
        q_runs = [(offsets, run_index(c["seq"], offsets)) for c in coords]
        q_reach = [query_reach(c["pos"], c["seq"], offsets) for c in coords]
        origins = [[source_rank_at_step(rank, j, n) for rank in range(n)] for j in range(n)]
        plan = (assignment, per_rank, slots, coords, q_runs, q_reach, origins)
        batch._plans[(n, step)] = plan
    return plan


def ring_passq_decode(
    group: SimProcessGroup,
    kv_shards: list[ShardedKV],
    batch: DecodeBatch,
    *,
    step: int = 0,
    scale: float | None = None,
    block_size: int = 128,
    num_kv_splits: int = 1,
    mask_fn=None,
    compute_dtype=None,
    skip_masked_shards: bool = True,
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
        scale: attention score scale (default ``1/sqrt(DH)``).
        block_size: KV block size of the local kernel.
        num_kv_splits: Flash-Decoding style split-KV factor for the local
            kernel (the paper uses 256 splits on H100).
        mask_fn: optional absolute-coordinate mask override — e.g. a
            windowed/sink mask for StreamingLLM-style decode; composes with
            the ring because masks never depend on storage order.
        compute_dtype: kernel arithmetic dtype forwarded to the local flash
            kernel (merge accumulation stays float64; default exact fp64).
        skip_masked_shards: replace provably all-masked ring-step partials
            with the exact identity element instead of calling the kernel —
            in decode this mostly fires for all-pad query payloads (when
            ``B`` is not a multiple of ``N``) and for empty or unrelated
            KV shards. Disabled under ``mask_fn``.

    Returns:
        ``(result, assignment)``: ``result`` holds the exact attention
        output/LSE in *original batch order* (``[B, NH, DH]`` / ``[B, NH]``),
        and ``assignment[b]`` is the rank that owned slot ``b`` this step
        (where its KV was appended).
    """
    n = group.world_size
    if len(kv_shards) != n:
        raise ValueError(f"need one KV shard per rank, got {len(kv_shards)} for world {n}")
    b = batch.batch_size
    nh, dh = batch.q.shape[1], batch.q.shape[2]
    assignment, per_rank, slots, coords, q_runs, q_reach, origins = _round_plan(batch, n, step)

    # Only the queries are this layer's own (traveling[s] starts as the
    # payload originating at rank s; the ring schedule recovers the origin).
    traveling = [
        {"q": _pad_rows(batch.q[own], per_rank - own.shape[0], 0.0), **coord}
        for own, coord in zip(slots, coords)
    ]
    computed: list[dict[int, AttentionResult]] = [dict() for _ in range(n)]

    skip = skip_masked_shards and mask_fn is None
    if skip:
        k_summary = [kv_reach(kv.positions, kv.seq_ids, kv.runs) for kv in kv_shards]

    for j in range(n):
        for rank, src in enumerate(origins[j]):
            q = traveling[rank]
            if skip and partial_fully_masked(q_reach[src], k_summary[rank]):
                computed[rank][src] = AttentionResult.empty(per_rank, nh, dh)
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
                causal=True,
                scale=scale,
                block_size=block_size,
                num_kv_splits=num_kv_splits,
                mask_fn=mask_fn,
                compute_dtype=compute_dtype,
                q_runs=q_runs[src],
                k_runs=(kv.runs, kv.run_index),
            )
        if j < n - 1:
            traveling = group.ring_shift(traveling, step=j, tag="decode-passq")

    # Permute + All2All partial outputs back to the source ranks.
    matrix = [
        [(computed[holder][origin].out, computed[holder][origin].lse) for origin in range(n)]
        for holder in range(n)
    ]
    restored = group.all_to_all(matrix, tag="decode-merge")

    out = np.empty((b, nh, dh), dtype=np.float64)  # the ranks' slots cover it
    lse = np.empty((b, nh), dtype=np.float64)
    for own, partials in zip(slots, restored):
        merged = merge_partials([AttentionResult(out=o, lse=l) for o, l in partials])
        out[own] = merged.out[: own.shape[0]]
        lse[own] = merged.lse[: own.shape[0]]
    return AttentionResult(out=out, lse=lse), assignment
