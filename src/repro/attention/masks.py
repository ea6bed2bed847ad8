"""Position-based causal attention masks.

Context parallelism permutes tokens: load-balanced sharding (paper §3.5.1)
assigns each rank two non-contiguous chunks of every sequence, and fused
variable-length batches interleave tokens from different sequences. A mask
computed from *storage order* would therefore be wrong almost everywhere.

Instead, every token carries two integers through the whole system:

- ``pos``  — its absolute position inside its own sequence (0-based), and
- ``seq``  — the id of the sequence it belongs to (``PAD_SEQ`` = -1 marks
  padding entries which must never give or receive attention).

Causality is then simply ``k.pos <= q.pos`` restricted to ``k.seq == q.seq``,
which is invariant under any permutation or partition of the tokens. All ring
algorithms in :mod:`repro.core` rely on this invariance: a rank can compute a
*partial* attention between its local queries and any remote KV shard with no
knowledge of how the other ranks laid out their tokens.
"""

from __future__ import annotations

import numpy as np

#: Sequence id used for padding tokens. Padding never attends / is attended.
PAD_SEQ: int = -1


def causal_mask(q_pos: np.ndarray, k_pos: np.ndarray) -> np.ndarray:
    """Boolean ``[Tq, Tk]`` mask allowing attention to positions ``<= q_pos``.

    This is the permutation-invariant causal predicate used everywhere in the
    library. It does **not** know about sequence boundaries; combine with
    sequence ids via :func:`attention_mask` for fused batches.

    Args:
        q_pos: int array ``[Tq]`` of absolute query positions.
        k_pos: int array ``[Tk]`` of absolute key positions.

    Returns:
        Boolean array ``[Tq, Tk]``; ``True`` where attention is allowed.
    """
    q_pos = np.asarray(q_pos)
    k_pos = np.asarray(k_pos)
    return k_pos[None, :] <= q_pos[:, None]


def attention_mask(
    q_pos: np.ndarray,
    k_pos: np.ndarray,
    q_seq: np.ndarray | None = None,
    k_seq: np.ndarray | None = None,
) -> np.ndarray:
    """Full attention-permission mask for (possibly fused, padded) tokens.

    A query at ``(seq, pos)`` may attend a key at ``(seq', pos')`` iff:

    - ``seq == seq'`` (no cross-sequence attention in a fused batch),
    - neither token is padding (``seq != PAD_SEQ``), and
    - ``pos' <= pos`` (causal).

    Args:
        q_pos: ``[Tq]`` absolute positions of queries.
        k_pos: ``[Tk]`` absolute positions of keys.
        q_seq: ``[Tq]`` sequence ids of queries (``None`` = all sequence 0).
        k_seq: ``[Tk]`` sequence ids of keys (``None`` = all sequence 0).

    Returns:
        Boolean array ``[Tq, Tk]``.
    """
    q_pos = np.asarray(q_pos)
    k_pos = np.asarray(k_pos)
    if q_seq is None:
        q_seq = np.zeros(q_pos.shape[0], dtype=np.int64)
    if k_seq is None:
        k_seq = np.zeros(k_pos.shape[0], dtype=np.int64)
    q_seq = np.asarray(q_seq)
    k_seq = np.asarray(k_seq)

    if q_pos.shape != q_seq.shape:
        raise ValueError(f"q_pos {q_pos.shape} and q_seq {q_seq.shape} must match")
    if k_pos.shape != k_seq.shape:
        raise ValueError(f"k_pos {k_pos.shape} and k_seq {k_seq.shape} must match")

    same_seq = q_seq[:, None] == k_seq[None, :]
    not_pad = (q_seq[:, None] != PAD_SEQ) & (k_seq[None, :] != PAD_SEQ)
    return same_seq & not_pad & causal_mask(q_pos, k_pos)


def run_offsets(seq_ids: np.ndarray) -> np.ndarray:
    """Offsets ``[S + 1]`` of the maximal constant runs of ``seq_ids``.

    Run ``i`` is tokens ``[offsets[i], offsets[i + 1])``, all carrying
    sequence id ``seq_ids[offsets[i]]`` — the ``cu_seqlens`` of a varlen
    kernel. A fused shard stores each sequence as one run, so producers
    that build shards run by run (the KV cache, the padding helpers) hand
    these offsets over directly and this scan only serves shards assembled
    some other way. An empty input has no runs: ``[0]``.
    """
    seq_ids = np.asarray(seq_ids)
    n = seq_ids.shape[0]
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    cuts = np.flatnonzero(seq_ids[1:] != seq_ids[:-1]) + 1
    return np.concatenate(([0], cuts, [n])).astype(np.int64, copy=False)


def run_index(seq_ids: np.ndarray, offsets: np.ndarray) -> dict[int, int] | None:
    """``{seq_id: run}`` over the non-pad runs ``offsets`` cuts ``seq_ids``
    into, in run order: pairs a query run with its sequence's key run without
    a scan. ``None`` when some sequence is split over several runs (an
    interleaved shard), which no storage-order index describes."""
    ids = np.asarray(seq_ids)[offsets[:-1]].tolist()
    index = dict(zip(ids, range(len(ids))))
    pads = ids.count(PAD_SEQ)
    if len(index) != len(ids) - pads + (pads > 0):
        return None
    index.pop(PAD_SEQ, None)
    return index

