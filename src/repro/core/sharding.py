"""Load-balanced context-parallel sharding (paper §3.5.1, Figures 1-2).

Naively splitting a causal sequence into N contiguous shards gives rank 0
almost no attention work (its tokens see few keys) and rank N-1 nearly all
of it. The paper's remedy: split the sequence into ``2N`` contiguous chunks
``C_0 .. C_{2N-1}`` and give rank ``i`` the pair ``(C_i, C_{2N-1-i})`` —
one "early" chunk and one mirrored "late" chunk. Every rank then owns the
same token count (balancing KV-cache bytes) and, summed over its two chunks,
the same causal attention area (balancing FLOPs).

Three use cases, all reduced to the same primitive:

- **Full prefill** of fused variable-length batches: each sequence is
  sharded independently and each rank concatenates its slices (Figure 1).
- **Partial prefill**: only the *new* tokens (positions ``[P, P+T)``) are
  load-balance sharded; cached tokens keep whatever layout previous turns
  gave them (Figure 2).
- **Decode** round-robin sharding lives in :mod:`repro.core.ring_decode`.

Every sharded token carries its absolute ``(seq_id, position)`` so causal
masks remain exact under the permutation (see :mod:`repro.attention.masks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.attention.masks import PAD_SEQ, run_index, run_offsets


@dataclass(frozen=True)
class SequenceSpec:
    """One sequence in a (possibly fused) prefill batch.

    Attributes:
        seq_id: stable identifier of the sequence (batch slot / request id).
        new_tokens: number of tokens to prefill this turn (paper ``T^i``).
        cached_tokens: tokens already in the persistent KV cache (``P^i``).
    """

    seq_id: int
    new_tokens: int
    cached_tokens: int = 0

    def __post_init__(self) -> None:
        if self.new_tokens < 0 or self.cached_tokens < 0:
            raise ValueError(f"token counts must be non-negative: {self}")

    @property
    def total_tokens(self) -> int:
        return self.new_tokens + self.cached_tokens

    @property
    def miss_rate(self) -> float:
        """KV-cache miss rate ``T / (T + P)`` — the paper's heuristic input."""
        if self.total_tokens == 0:
            return 0.0
        return self.new_tokens / self.total_tokens


#: Field metadata: host-side bookkeeping every rank derives from the batch
#: schedule, not tensor bytes on the CP wire (the process group's byte
#: accounting skips it).
_OFF_WIRE = {"wire": False}


@dataclass
class ShardedQueries:
    """One rank's query-side tokens (projected Q plus coordinates).

    ``runs`` are the ``cu_seqlens``-style offsets of the shard's
    constant-``seq_ids`` runs (see :func:`repro.attention.masks.run_offsets`);
    producers that assemble the shard run by run pass them, otherwise one
    scan at construction finds them, so the kernel never has to.
    """

    q: np.ndarray  # [n, NH, DH]
    positions: np.ndarray  # [n] absolute positions within each token's sequence
    seq_ids: np.ndarray  # [n]
    runs: np.ndarray | None = field(default=None, metadata=_OFF_WIRE)  # [S + 1]

    def __post_init__(self) -> None:
        _validate_coords(self.q, self.positions, self.seq_ids)
        self.runs = _validate_runs(self.runs, self.seq_ids)

    def __len__(self) -> int:
        return self.q.shape[0]


@dataclass
class ShardedKV:
    """One rank's key/value tokens (cached plus freshly projected).

    ``runs``: as on :class:`ShardedQueries`. ``run_index``: their
    :func:`repro.attention.masks.run_index`, passed by the producer or found
    at construction, so that none of the N ring steps that attend the shard
    re-scans it — the kernel is handed ``(runs, run_index)``. ``reach``: the
    shard's :func:`repro.core.ring_skip.kv_reach` where the producer has it
    (``RankKVCache.get``, once per round), else ``None`` and the ring scans.
    """

    k: np.ndarray  # [n, NKV, DH]
    v: np.ndarray  # [n, NKV, DH]
    positions: np.ndarray  # [n]
    seq_ids: np.ndarray  # [n]
    runs: np.ndarray | None = field(default=None, metadata=_OFF_WIRE)  # [S + 1]
    run_index: dict[int, int] | None = field(default=None, metadata=_OFF_WIRE)
    reach: dict[int, int] | None = field(default=None, metadata=_OFF_WIRE)

    def __post_init__(self) -> None:
        if self.k.shape != self.v.shape:
            raise ValueError(f"k {self.k.shape} and v {self.v.shape} must match")
        _validate_coords(self.k, self.positions, self.seq_ids)
        self.runs = _validate_runs(self.runs, self.seq_ids)
        if self.run_index is None:
            self.run_index = run_index(self.seq_ids, self.runs)

    def __len__(self) -> int:
        return self.k.shape[0]

    @staticmethod
    def empty(n_kv_heads: int, head_dim: int) -> "ShardedKV":
        return ShardedKV(
            k=np.zeros((0, n_kv_heads, head_dim)),
            v=np.zeros((0, n_kv_heads, head_dim)),
            positions=np.zeros(0, dtype=np.int64),
            seq_ids=np.zeros(0, dtype=np.int64),
        )

    @staticmethod
    def concat(shards: list["ShardedKV"]) -> "ShardedKV":
        if not shards:
            raise ValueError("cannot concat zero shards")
        return ShardedKV(
            k=np.concatenate([s.k for s in shards], axis=0),
            v=np.concatenate([s.v for s in shards], axis=0),
            positions=np.concatenate([s.positions for s in shards]),
            seq_ids=np.concatenate([s.seq_ids for s in shards]),
        )


def _validate_coords(x: np.ndarray, positions: np.ndarray, seq_ids: np.ndarray) -> None:
    if x.ndim != 3:
        raise ValueError(f"expected [tokens, heads, head_dim], got {x.shape}")
    n = x.shape[0]
    if positions.shape != (n,) or seq_ids.shape != (n,):
        raise ValueError(
            f"coordinate shapes {positions.shape}/{seq_ids.shape} must be ({n},)"
        )


def _validate_runs(runs: np.ndarray | None, seq_ids: np.ndarray) -> np.ndarray:
    if runs is None:
        return run_offsets(seq_ids)
    runs = np.asarray(runs)
    if runs.ndim != 1 or runs[0] != 0 or runs[-1] != seq_ids.shape[0]:
        raise ValueError(f"run offsets {runs} do not span {seq_ids.shape[0]} tokens")
    return runs


# --------------------------------------------------------------------------- #
# chunking
# --------------------------------------------------------------------------- #


def _chunk(base: int, extra: int, index: int) -> tuple[int, int]:
    """Chunk ``index`` of a split whose first ``extra`` chunks hold
    ``base + 1`` tokens and the rest ``base``: ``(start, stop)``."""
    start = index * base + min(index, extra)
    return start, start + base + (index < extra)


def load_balanced_chunks(length: int, world_size: int) -> list[tuple[int, int]]:
    """Split ``[0, length)`` into ``2 * world_size`` contiguous chunks.

    Chunk sizes differ by at most one token (``np.array_split`` convention:
    earlier chunks take the remainder). Returns ``[(start, stop), ...]`` of
    length ``2 * world_size``; zero-length chunks appear when
    ``length < 2 * world_size``.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    base, extra = divmod(length, 2 * world_size)
    return [_chunk(base, extra, i) for i in range(2 * world_size)]


def rank_chunks(length: int, world_size: int, rank: int) -> list[tuple[int, int]]:
    """The two chunks ``(C_rank, C_{2N-1-rank})`` assigned to ``rank``."""
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} out of range [0, {world_size})")
    chunks = load_balanced_chunks(length, world_size)
    return [chunks[rank], chunks[2 * world_size - 1 - rank]]


class ShardSpan(NamedTuple):
    """One sequence's rows on one rank: rows ``[row_lo, row_hi)`` hold its
    ``early`` chunk, then its ``late`` one (its :func:`rank_chunks`)."""

    seq_id: int
    row_lo: int
    row_hi: int
    early: tuple[int, int]
    late: tuple[int, int]

    def ranges(self) -> list[tuple[int, int]]:
        """The rows' new-token ranges in row order: one where the chunks abut
        (rank ``N - 1`` always, so every CP1 span) or ``late`` is empty."""
        (a, b), (c, d) = self.early, self.late
        if b == c:
            return [(a, d)]
        return [(a, b), (c, d)] if c < d else [(a, b)]


class ShardPlan:
    """One prefill round's load-balanced split, as integer arithmetic.

    One ``divmod`` cuts each sequence's ``T`` new tokens into ``2N`` chunks;
    ``spans[rank]`` lists the rank's non-empty :class:`ShardSpan` in batch
    order. Building it touches no array: KV demand is the span lengths, and
    the arrays a round does need are materialised from the spans on request.
    """

    def __init__(self, specs: list[SequenceSpec], world_size: int):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if len({spec.seq_id for spec in specs}) != len(specs):
            raise ValueError("a round shards each sequence once: duplicate seq_id")
        self.specs = specs
        self.spans: list[list[ShardSpan]] = [[] for _ in range(world_size)]
        last = 2 * world_size - 1
        for spec in specs:
            base, extra = divmod(spec.new_tokens, last + 1)
            for rank, spans in enumerate(self.spans):
                early, late = _chunk(base, extra, rank), _chunk(base, extra, last - rank)
                rows = early[1] - early[0] + late[1] - late[0]
                if rows:
                    lo = spans[-1].row_hi if spans else 0
                    spans.append(ShardSpan(spec.seq_id, lo, lo + rows, early, late))

    def demand(self) -> list[dict[int, int]]:
        """Per-rank ``{seq_id: tokens}`` the round appends to the KV cache."""
        return [{s.seq_id: s.row_hi - s.row_lo for s in spans} for spans in self.spans]

    def runs(self, rank: int) -> np.ndarray:
        """``cu_seqlens`` offsets of ``rank``'s rows: one run per span."""
        return np.array([0] + [s.row_hi for s in self.spans[rank]], dtype=np.int64)

    def take(self, rank: int, rows: dict[int, np.ndarray]) -> np.ndarray:
        """``rank``'s rows of ``rows[seq_id]`` (row ``j`` = new token ``j``) in
        shard order: a view when one range, empty ``int64`` for an empty rank."""
        pieces = [rows[s.seq_id][lo:hi] for s in self.spans[rank] for lo, hi in s.ranges()]
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)

    def coordinates(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-rank ``(positions, seq_ids)``: one ``arange`` per sequence, one
        ``repeat`` per rank."""
        new = {
            s.seq_id: np.arange(s.cached_tokens, s.total_tokens, dtype=np.int64)
            for s in self.specs
        }
        return [
            (self.take(rank, new), np.repeat(np.array(list(d), dtype=np.int64), list(d.values())))
            for rank, d in enumerate(self.demand())
        ]


def shard_positions(
    length: int, world_size: int, *, offset: int = 0
) -> list[np.ndarray]:
    """Per-rank absolute positions for a single sequence of ``length`` tokens.

    Args:
        length: number of tokens being sharded this turn.
        world_size: number of CP ranks.
        offset: first absolute position (``P`` for partial prefill: new
            tokens live at positions ``[P, P+T)``).

    Returns:
        ``world_size`` int64 arrays; rank ``i`` holds the concatenation of
        its early chunk and its mirrored late chunk, in position order per
        chunk. Together the arrays partition ``[offset, offset + length)``.
    """
    return [pos for pos, _ in shard_sequences([SequenceSpec(0, length, offset)], world_size)]


def shard_sequences(
    specs: list[SequenceSpec], world_size: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fused varseq sharding: per-rank ``(positions, seq_ids)`` arrays.

    Each sequence's *new* tokens are load-balance sharded independently
    (Figures 1-2); rank ``i``'s tokens are the concatenation over sequences
    of its slices, preserving batch order. Cached tokens are untouched: they
    already live in the per-rank KV cache from earlier turns.
    """
    return ShardPlan(specs, world_size).coordinates()


# --------------------------------------------------------------------------- #
# padding (ring message-size invariant)
# --------------------------------------------------------------------------- #


def pad_kv_shards(shards: list[ShardedKV]) -> tuple[list[ShardedKV], int]:
    """Pad per-rank KV shards to equal length per sequence (Algorithm 2).

    The ring algorithm must exchange equal-sized messages between CP ranks
    ("to adhere to collective communication interfaces"). Multi-turn chat,
    padding and decode leave ranks holding slightly different KV counts, so
    for every sequence ``i`` present on any rank we pad each rank's slice of
    that sequence to ``L_i = max_j (P^i_j + T^i_j)``. Padding entries carry
    ``seq_id = PAD_SEQ`` and are never attended.

    Returns:
        ``(padded_shards, pad_tokens_total)`` — the second element feeds the
        perf model, since padded bytes travel the wire like real ones.
    """
    if not shards:
        raise ValueError("need at least one shard")
    n_kv, dh = shards[0].k.shape[1], shards[0].k.shape[2]

    # Storage spans of every non-pad sequence, read off each shard's runs
    # (a sequence split over several runs keeps its storage order).
    per_shard: list[dict[int, list[tuple[int, int]]]] = []
    for shard in shards:
        spans: dict[int, list[tuple[int, int]]] = {}
        starts = shard.runs[:-1]
        for sid, lo, hi in zip(
            shard.seq_ids[starts].tolist(), starts.tolist(), shard.runs[1:].tolist()
        ):
            if sid != PAD_SEQ:
                spans.setdefault(sid, []).append((lo, hi))
        per_shard.append(spans)
    all_seq_ids = sorted(set().union(*per_shard))
    per_seq_max = {
        sid: max(sum(hi - lo for lo, hi in spans.get(sid, ())) for spans in per_shard)
        for sid in all_seq_ids
    }

    padded: list[ShardedKV] = []
    pad_total = 0
    for shard, spans in zip(shards, per_shard):
        pieces_k, pieces_v, pieces_pos = [], [], []
        run_ids, run_lens = [], []
        for sid in all_seq_ids:
            have = 0
            for lo, hi in spans.get(sid, ()):
                pieces_k.append(shard.k[lo:hi])
                pieces_v.append(shard.v[lo:hi])
                pieces_pos.append(shard.positions[lo:hi])
                have += hi - lo
            if have:
                run_ids.append(sid)
                run_lens.append(have)
            pad = per_seq_max[sid] - have
            if pad:
                pad_total += pad
                pieces_k.append(np.zeros((pad, n_kv, dh), dtype=shard.k.dtype))
                pieces_v.append(np.zeros((pad, n_kv, dh), dtype=shard.v.dtype))
                pieces_pos.append(np.zeros(pad, dtype=np.int64))
                run_ids.append(PAD_SEQ)
                run_lens.append(pad)
        if pieces_k:
            padded.append(
                ShardedKV(
                    k=np.concatenate(pieces_k, axis=0),
                    v=np.concatenate(pieces_v, axis=0),
                    positions=np.concatenate(pieces_pos),
                    seq_ids=np.repeat(np.array(run_ids, dtype=np.int64), run_lens),
                    runs=np.concatenate(([0], np.cumsum(run_lens))),
                )
            )
        else:
            padded.append(ShardedKV.empty(n_kv, dh))
    lengths = {len(p) for p in padded}
    assert len(lengths) == 1, f"padding failed to equalise shard lengths: {lengths}"
    return padded, pad_total


def pad_query_shards(shards: list[ShardedQueries]) -> tuple[list[ShardedQueries], int]:
    """Pad per-rank query shards to a common length (pass-Q invariant).

    Load-balanced sharding already distributes queries within one token of
    evenly; padding tops every rank up to the max so ring messages are
    equal-sized. Padding queries carry ``seq_id = PAD_SEQ``; their outputs
    are discarded after the ring (the paper notes this padding as a decode
    overhead in Table 8's analysis).
    """
    if not shards:
        raise ValueError("need at least one shard")
    want = max(len(s) for s in shards)
    nh, dh = shards[0].q.shape[1], shards[0].q.shape[2]
    padded = []
    pad_total = 0
    for shard in shards:
        pad = want - len(shard)
        pad_total += pad
        if pad == 0:
            padded.append(shard)
            continue
        padded.append(
            ShardedQueries(
                q=np.concatenate([shard.q, np.zeros((pad, nh, dh), dtype=shard.q.dtype)], axis=0),
                positions=np.concatenate([shard.positions, np.zeros(pad, dtype=np.int64)]),
                seq_ids=np.concatenate([shard.seq_ids, np.full(pad, PAD_SEQ, dtype=np.int64)]),
                runs=np.append(shard.runs, want),
            )
        )
    return padded, pad_total


# --------------------------------------------------------------------------- #
# diagnostics
# --------------------------------------------------------------------------- #


def causal_flops_per_rank(length: int, world_size: int) -> np.ndarray:
    """Relative causal-attention work per rank under load-balanced sharding.

    For each rank, sums ``pos + 1`` (the number of keys each query position
    attends) over the rank's assigned positions of a single full-prefill
    sequence. Used by tests and the sharding ablation to demonstrate the
    balance property versus naive contiguous sharding.
    """
    shards = shard_positions(length, world_size)
    return np.array([float(np.sum(pos + 1)) for pos in shards])


def naive_flops_per_rank(length: int, world_size: int) -> np.ndarray:
    """Same metric for naive contiguous sharding (the ablation baseline)."""
    base, extra = divmod(length, world_size)
    chunks = [_chunk(base, extra, rank) for rank in range(world_size)]
    return np.array([float(np.sum(np.arange(lo, hi, dtype=np.int64) + 1)) for lo, hi in chunks])
