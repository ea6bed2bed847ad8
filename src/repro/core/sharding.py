"""Load-balanced context-parallel sharding (paper §3.5.1, Figures 1-2).

Naively splitting a causal sequence into N contiguous shards gives rank 0
almost no attention work (its tokens see few keys) and rank N-1 nearly all
of it. The paper's remedy: split the sequence into ``2N`` contiguous chunks
``C_0 .. C_{2N-1}`` and give rank ``i`` the pair ``(C_i, C_{2N-1-i})`` —
one "early" chunk and one mirrored "late" chunk. Every rank then owns the
same token count (balancing KV-cache bytes) and, summed over its two chunks,
the same causal attention area (balancing FLOPs).

Three use cases, one split value (:class:`ShardPlan`):

- **Full prefill** of fused variable-length batches: each sequence is
  sharded independently and each rank concatenates its slices (Figure 1).
- **Partial prefill**: only the *new* tokens (positions ``[P, P+T)``) are
  load-balance sharded; cached tokens keep whatever layout previous turns
  gave them (Figure 2).
- **Decode**: each sequence's one new token goes to one rank, round-robin
  with a per-step offset (§3.6, :meth:`ShardPlan.round_robin`).

This module is the only place that decides where a round's tokens go; the
engines read the split.

Every sharded token carries its absolute ``(seq_id, position)`` so causal
masks remain exact under the permutation (see :mod:`repro.attention.masks`).

Ring messages must be equal-sized, so the travelling side is padded. The
padding is split in two: :func:`plan_kv_padding` / :func:`plan_query_padding`
plan each rank's message from the shards' structure alone (a
:class:`Padding`: coordinates, runs, run index and where the shard's rows
go), and :meth:`Padding.fill` pads one layer's ``k``, ``v`` or ``q`` into
it — the shard itself when it needs no padding. A prefill round plans once
and fills at every layer; :func:`pad_kv_shards` does both for a single use.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class ShardedQueries:
    """One rank's query-side tokens (projected Q plus coordinates): a
    prefill round's load-balanced shard, or a decode round's one-token
    queries of the batch slots the rank owns.

    ``runs`` are the ``cu_seqlens``-style offsets of the shard's
    constant-``seq_ids`` runs (see :func:`repro.attention.masks.run_offsets`)
    and ``run_index`` their :func:`repro.attention.masks.run_index`;
    producers that assemble the shard run by run pass them, otherwise one
    scan at construction finds them, so no ring step's kernel call has to.
    ``positions`` and ``seq_ids`` must be integers: the pass-Q rings carry
    them on the wire and the causal skip compares them exactly.
    """

    q: np.ndarray  # [n, NH, DH]
    positions: np.ndarray  # [n] absolute positions within each token's sequence
    seq_ids: np.ndarray  # [n]
    runs: np.ndarray | None = None  # [S + 1]
    run_index: dict[int, int] | None = None

    def __post_init__(self) -> None:
        _validate_coords(self.q, self.positions, self.seq_ids)
        for name, coord in (("positions", self.positions), ("seq_ids", self.seq_ids)):
            if coord.dtype.kind not in "iu":
                raise ValueError(f"{name} must be integers, got {coord.dtype}")
        self.runs = _validate_runs(self.runs, self.seq_ids)
        if self.run_index is None:
            self.run_index = run_index(self.seq_ids, self.runs)

    def __len__(self) -> int:
        return self.q.shape[0]


@dataclass
class ShardedKV:
    """One rank's key/value tokens (cached plus freshly projected).

    ``runs`` and ``run_index``: as on :class:`ShardedQueries`. ``reach``: the
    shard's :func:`repro.core.ring_skip.kv_reach` where the producer has it
    (``RankKVCache.get``, once per round), else ``None`` and the plan scans.
    """

    k: np.ndarray  # [n, NKV, DH]
    v: np.ndarray  # [n, NKV, DH]
    positions: np.ndarray  # [n]
    seq_ids: np.ndarray  # [n]
    runs: np.ndarray | None = None  # [S + 1]
    run_index: dict[int, int] | None = None
    reach: dict[int, int] | None = None

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


class ShardSpan(NamedTuple):
    """One sequence's rows on one rank: rows ``[row_lo, row_hi)`` hold its
    ``early`` chunk ``C_rank``, then its ``late`` one ``C_{2N-1-rank}``, each a
    ``(start, stop)`` range of the sequence's new tokens — one range where
    they abut (rank ``N - 1`` always, so every CP1 span), and ``late`` may
    be empty (a decode row: ``(0, 1)``, ``(1, 1)``)."""

    seq_id: int
    row_lo: int
    row_hi: int
    early: tuple[int, int]
    late: tuple[int, int]


class ShardPlan:
    """One round's split of its new tokens over the ranks, as integer
    arithmetic: a prefill round's load-balanced one, or (built by
    :meth:`round_robin`) a decode round's.

    ``seq_ids`` lists the round's sequences in batch order and
    ``spans[rank]`` the rank's non-empty :class:`ShardSpan` in batch order.
    A load-balanced split keeps its ``specs``: one ``divmod`` cuts each
    sequence's ``T`` new tokens into ``2N`` chunks. Building it touches no
    array: KV demand is the span lengths, and the arrays a round does need
    are materialised from the spans on request.
    """

    def __init__(self, specs: list[SequenceSpec], world_size: int):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.specs = specs
        self.seq_ids = [spec.seq_id for spec in specs]
        if len(set(self.seq_ids)) != len(specs):
            raise ValueError("a round shards each sequence once: duplicate seq_id")
        self.spans: list[list[ShardSpan]] = [[] for _ in range(world_size)]
        self._coords: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._batch_ids: list[np.ndarray] | None = None
        last = 2 * world_size - 1
        for spec in specs:
            base, extra = divmod(spec.new_tokens, last + 1)
            for rank, spans in enumerate(self.spans):
                early, late = _chunk(base, extra, rank), _chunk(base, extra, last - rank)
                rows = early[1] - early[0] + late[1] - late[0]
                if rows:
                    lo = spans[-1].row_hi if spans else 0
                    spans.append(ShardSpan(spec.seq_id, lo, lo + rows, early, late))

    @classmethod
    def round_robin(cls, seq_ids: list[int], positions: list[int], world_size: int, step: int) -> "ShardPlan":
        """A decode round's split (§3.6): sequence ``seq_ids[b]``'s one new
        token, at ``positions[b]``, is row ``b // N`` of rank
        ``(b + step) mod N`` — the offset-by-one rotation that levels
        KV-cache growth across ranks — so rank ``r`` holds every ``N``-th
        slot from ``(r - step) mod N`` and its coordinates are those slices
        of ``positions`` and ``seq_ids``. It has no ``specs``. Building it
        makes the spans only: a capacity check reads just its demand."""
        if world_size < 1 or step < 0:
            raise ValueError(f"need world_size >= 1 and step >= 0, got {world_size} and {step}")
        split = cls.__new__(cls)
        split.specs, split.seq_ids, split._coords, split._batch_ids = None, seq_ids, None, None
        split._rotation = positions, step
        split.spans = [[] for _ in range(world_size)]
        for b, sid in enumerate(seq_ids):
            row = b // world_size
            split.spans[(b + step) % world_size].append(ShardSpan(sid, row, row + 1, (0, 1), (1, 1)))
        return split

    def demand(self) -> list[dict[int, int]]:
        """Per-rank ``{seq_id: tokens}`` the round appends to the KV cache
        (plain loops: the runtime's capacity checks ask it every round)."""
        demands = []
        for spans in self.spans:
            demand = {}
            for sid, lo, hi, _, _ in spans:
                demand[sid] = hi - lo
            demands.append(demand)
        return demands

    def runs(self, rank: int) -> np.ndarray:
        """``cu_seqlens`` offsets of ``rank``'s rows: one run per span."""
        return np.array([0] + [s.row_hi for s in self.spans[rank]], dtype=np.int64)

    def take(self, rank: int, rows: dict[int, np.ndarray]) -> np.ndarray:
        """``rank``'s rows of ``rows[seq_id]`` (row ``j`` = new token ``j``) in
        shard order — each span's ``early`` then ``late`` range, one range
        where they abut: a view when one range, empty ``int64`` for an
        empty rank."""
        pieces = [
            rows[sid][lo:hi]
            for sid, _, _, (a, b), (c, d) in self.spans[rank]
            for lo, hi in (((a, d),) if b == c else ((a, b), (c, d)))
            if lo < hi
        ]
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)

    def batch_ids(self) -> list[np.ndarray]:
        """Per rank, the batch index (in ``seq_ids``) of each row's
        sequence, ``-1`` on the rows that pad it to the longest rank's:
        Algorithm 4's batch ids, which ride beside a pass-Q query message.
        Made on the first call; later calls return the same arrays."""
        if self._batch_ids is None:
            index = dict(zip(self.seq_ids, range(len(self.seq_ids))))
            ids = np.empty((len(self.spans), max([spans[-1].row_hi if spans else 0 for spans in self.spans])), np.int64)
            ids.fill(-1)
            for rows, spans in zip(ids, self.spans):
                for sid, lo, hi, _, _ in spans:
                    rows[lo:hi] = index[sid]
            self._batch_ids = list(ids)
        return self._batch_ids

    def coordinates(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-rank ``(positions, seq_ids)``, made on the first call; later
        calls return the same arrays. A load-balanced split makes them with
        one ``arange`` per sequence and one ``repeat`` per rank, a
        round-robin one as strided slices of its batch arrays."""
        if self._coords is None and self.specs is None:
            positions, step = self._rotation
            n = len(self.spans)
            pos, seq = np.array(positions, dtype=np.int64), np.array(self.seq_ids, dtype=np.int64)
            empty = (pos[:0], seq[:0])  # (every rank that owns no slot: B < N)
            self._coords = [
                (pos[(rank - step) % n :: n], seq[(rank - step) % n :: n]) if spans else empty
                for rank, spans in enumerate(self.spans)
            ]
        elif self._coords is None:
            new = {
                s.seq_id: np.arange(s.cached_tokens, s.total_tokens, dtype=np.int64)
                for s in self.specs
            }
            self._coords = [
                (self.take(rank, new), np.repeat(np.array(list(d), dtype=np.int64), list(d.values())))
                for rank, d in enumerate(self.demand())
            ]
        return self._coords


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


class Padding(NamedTuple):
    """One rank's ring message, planned from its shard's structure alone.

    ``positions``, ``seq_ids``, ``runs`` and ``run_index`` are the padded
    message's coordinates (as on :class:`ShardedKV`); ``rows`` says where
    the shard's own rows go: ``None`` when the shard is its message as it
    stands, else ``(length, src, dst)`` — the message is ``length`` rows of
    zeros with ``message[dst] = shard[src]``. Only a layer's ``k``, ``v``
    (or ``q``) are left to :meth:`fill`, so a round plans once and fills at
    every layer.
    """

    positions: np.ndarray
    seq_ids: np.ndarray
    runs: np.ndarray
    run_index: dict[int, int] | None
    rows: tuple | None

    @staticmethod
    def as_is(shard: ShardedKV | ShardedQueries) -> "Padding":
        """The shard as its own message."""
        return Padding(shard.positions, shard.seq_ids, shard.runs, shard.run_index, None)

    def fill(self, x: np.ndarray) -> np.ndarray:
        """The message of ``x``, the shard's ``[n, heads, dim]`` rows: ``x``
        itself when the shard needs no padding, else a padded copy."""
        if self.rows is None:
            return x
        length, src, dst = self.rows
        out = np.zeros((length, *x.shape[1:]), dtype=x.dtype)
        out[dst] = x[src]
        return out


def _rows(ranges: list[tuple[int, int]]):
    """The rows ``[lo, hi)`` of ``ranges`` in order: one slice where they
    abut, else one index array (a ``repeat``, no loop over rows)."""
    if all(a[1] == b[0] for a, b in zip(ranges, ranges[1:])):
        return slice(ranges[0][0], ranges[-1][1]) if ranges else slice(0, 0)
    lo, hi = np.array(ranges, dtype=np.int64).T
    lengths = hi - lo
    return np.repeat(lo - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def plan_kv_padding(shards: list[ShardedKV]) -> tuple[list[Padding], int]:
    """The :class:`Padding` of each KV shard for the ring (Algorithm 2).

    The ring algorithm must exchange equal-sized messages between CP ranks
    ("to adhere to collective communication interfaces"). Multi-turn chat,
    padding and decode leave ranks holding slightly different KV counts, so
    for every sequence ``i`` present on any rank we pad each rank's slice of
    that sequence to ``L_i = max_j (P^i_j + T^i_j)``: every message holds
    the sequences in ascending id order, each one run of its own tokens (in
    storage order) followed by its padding. Padding entries carry
    ``seq_id = PAD_SEQ`` and are never attended. A shard already laid out
    that way with no padding to add is its own message.

    Returns:
        ``(paddings, pad_tokens_total)`` — the second element feeds the
        perf model, since padded bytes travel the wire like real ones.

    Raises:
        RuntimeError: if the messages planned are not all of one length
            (a shard whose runs claim rows it does not hold).
    """
    if not shards:
        raise ValueError("need at least one shard")

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

    paddings: list[Padding] = []
    pad_total = 0
    for shard, spans in zip(shards, per_shard):
        src, dst, pieces_pos = [], [], []
        run_ids, run_lens = [], []
        at = 0
        for sid in all_seq_ids:
            have = 0
            for lo, hi in spans.get(sid, ()):
                src.append((lo, hi))
                pieces_pos.append(shard.positions[lo:hi])
                have += hi - lo
            if have:
                dst.append((at, at + have))
                run_ids.append(sid)
                run_lens.append(have)
            pad = per_seq_max[sid] - have
            if pad:
                pad_total += pad
                pieces_pos.append(np.zeros(pad, dtype=np.int64))
                run_ids.append(PAD_SEQ)
                run_lens.append(pad)
            at += per_seq_max[sid]
        storage = list(zip(shard.runs[:-1].tolist(), shard.runs[1:].tolist()))
        if src == storage and len(run_ids) == len(src) and at == len(shard):
            # one run per sequence, in id order, nothing to pad
            paddings.append(Padding.as_is(shard))
            continue
        paddings.append(
            Padding(
                positions=np.concatenate(pieces_pos) if pieces_pos else np.zeros(0, dtype=np.int64),
                seq_ids=np.repeat(np.array(run_ids, dtype=np.int64), run_lens),
                runs=np.concatenate(([0], np.cumsum(run_lens, dtype=np.int64))),
                run_index={sid: i for i, sid in enumerate(run_ids) if sid != PAD_SEQ},
                rows=(at, _rows(src), _rows(dst)),
            )
        )
    lengths = {len(p.positions) for p in paddings}
    if len(lengths) != 1:
        raise RuntimeError(f"padding failed to equalise shard lengths: {sorted(lengths)}")
    return paddings, pad_total


def pad_kv_shards(shards: list[ShardedKV]) -> tuple[list[ShardedKV], int]:
    """Pad per-rank KV shards to equal length per sequence (Algorithm 2):
    :func:`plan_kv_padding`'s messages, filled. A shard that needs no
    padding is returned as it is.

    Returns:
        ``(padded_shards, pad_tokens_total)``.
    """
    paddings, pad_total = plan_kv_padding(shards)
    padded = [
        shard if p.rows is None else ShardedKV(
            k=p.fill(shard.k), v=p.fill(shard.v), positions=p.positions,
            seq_ids=p.seq_ids, runs=p.runs, run_index=p.run_index, reach=shard.reach,
        )
        for shard, p in zip(shards, paddings)
    ]
    return padded, pad_total


def plan_query_padding(shards: list[ShardedQueries]) -> tuple[list[Padding], int]:
    """The :class:`Padding` of each query shard for pass-Q (Algorithm 3):
    every rank's queries topped up to the longest shard's count.

    Load-balanced sharding already distributes queries within one token of
    evenly; padding tops every rank up to the max so ring messages are
    equal-sized. Padding queries carry ``seq_id = PAD_SEQ``; their outputs
    are discarded after the ring (the paper notes this padding as a decode
    overhead in Table 8's analysis).
    """
    if not shards:
        raise ValueError("need at least one shard")
    want = max(len(s) for s in shards)
    paddings = []
    pad_total = 0
    for shard in shards:
        pad = want - len(shard)
        pad_total += pad
        if pad == 0:
            paddings.append(Padding.as_is(shard))
            continue
        seq_ids = np.concatenate([shard.seq_ids, np.full(pad, PAD_SEQ, dtype=np.int64)])
        runs = np.append(shard.runs, want)
        paddings.append(
            Padding(
                positions=np.concatenate([shard.positions, np.zeros(pad, dtype=np.int64)]),
                seq_ids=seq_ids,
                runs=runs,
                run_index=run_index(seq_ids, runs),
                rows=(want, slice(0, len(shard)), slice(0, len(shard))),
            )
        )
    return paddings, pad_total


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
