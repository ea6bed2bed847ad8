"""Shard-level causal skip predicate for the ring hot path.

At every ring step each rank computes a *partial* attention between its
resident queries and one origin rank's payload. Under the causal mask a
large fraction of those partials are provably all-masked — every key in the
shard sits strictly after every query of the same sequence, or the payload
is pure padding (``PAD_SEQ``). Computing such a partial produces exactly the
identity element of merge attention (``O = 0``, ``LSE = -inf``), so the ring
algorithms can skip the kernel call outright and append
:meth:`repro.attention.flash.AttentionResult.empty` instead, bit-for-bit
unchanged output.

The predicate only needs two per-shard summaries, each computed **once**
before the ring starts (the origin metadata travels implicitly with the
ring schedule — ``source_rank_at_step`` says whose summary applies):

- queries: ``{seq_id: max position}`` over non-pad tokens,
- keys:    ``{seq_id: min position}`` over non-pad tokens.

A partial is visible iff some sequence id appears on both sides with
``min(k_pos) <= max(q_pos)``. The rings take no mask override: every
partial is under the causal, same-sequence mask this test is exact for, so
it alone decides each skip. The bound is inclusive because a query sees
its own position — a shard whose first key sits at a query's position
holds that query's diagonal.
"""

from __future__ import annotations

import numpy as np

from repro.attention.masks import PAD_SEQ, run_offsets


def query_reach(
    positions: np.ndarray, seq_ids: np.ndarray | None, runs: np.ndarray | None = None
) -> dict[int, int]:
    """Per-sequence maximum query position over non-pad tokens.

    Args:
        positions: ``[T]`` absolute positions.
        seq_ids: ``[T]`` sequence ids (``None`` = all sequence 0).
        runs: offsets of the constant ``seq_ids`` runs, when the shard
            carries them (:class:`repro.core.sharding.ShardedQueries`).

    Returns:
        ``{seq_id: max position}``; empty for an all-pad (or empty) shard.
    """
    return _reach(positions, seq_ids, runs, np.maximum)


def kv_reach(
    positions: np.ndarray, seq_ids: np.ndarray | None, runs: np.ndarray | None = None
) -> dict[int, int]:
    """Per-sequence minimum key position over non-pad tokens (see above)."""
    return _reach(positions, seq_ids, runs, np.minimum)


def _reach(positions, seq_ids, runs, op) -> dict[int, int]:
    positions = np.asarray(positions)
    if positions.size == 0:
        return {}
    if seq_ids is None:
        return {0: int(op.reduce(positions))}
    seq_ids = np.asarray(seq_ids)
    if runs is None:
        # no run structure handed over: a stable sort makes one run per id
        order = np.argsort(seq_ids, kind="stable")
        seq_ids, positions = seq_ids[order], positions[order]
        runs = run_offsets(seq_ids)
    starts = runs[:-1]
    out: dict[int, int] = {}
    for sid, extreme in zip(seq_ids[starts].tolist(), op.reduceat(positions, starts).tolist()):
        if sid != PAD_SEQ:
            # a sequence split over several runs folds them together
            out[sid] = extreme if sid not in out else int(op(out[sid], extreme))
    return out


def partial_fully_masked(q_reach: dict[int, int], k_reach: dict[int, int]) -> bool:
    """True iff the causal mask between the summarised shards is all-False.

    Args:
        q_reach: output of :func:`query_reach` for the query shard.
        k_reach: output of :func:`kv_reach` for the key shard.
    """
    for sid, q_max in q_reach.items():
        k_min = k_reach.get(sid)
        if k_min is not None and k_min <= q_max:
            return False
    return True


def shard_fully_masked(
    q_pos: np.ndarray,
    k_pos: np.ndarray,
    q_seq: np.ndarray | None = None,
    k_seq: np.ndarray | None = None,
    *,
    causal: bool = True,
) -> bool:
    """O(Tq + Tk) test that ``attention_mask(...)`` would be all-False.

    Convenience wrapper combining :func:`query_reach`, :func:`kv_reach`
    and :func:`partial_fully_masked` for one-off (non-ring) callers; the
    ring algorithms precompute the two summaries instead so each shard is
    scanned once, not once per ring step.
    """
    q = query_reach(q_pos, q_seq)
    k = kv_reach(k_pos, k_seq)
    if not causal:
        # Any shared non-pad sequence id means at least one visible pair.
        return all(sid not in k for sid in q)
    return partial_fully_masked(q, k)
