"""Per-rank persistent KV cache.

Each CP rank owns one :class:`RankKVCache` holding, for every transformer
layer and every live sequence, the K/V projections of the tokens *sharded to
this rank* — cached prompt tokens from earlier turns plus decode tokens the
round-robin assignment landed here. Absolute positions and sequence ids ride
along with the tensors so ring attention can mask exactly regardless of how
turns interleaved (the "load-balanced sharding for persistent KV cache"
contribution of the paper).

Storage is one **slab** per (layer, sequence): preallocated ``(k, v, pos)``
arrays with a fill count, grown geometrically, so an append writes in place
(amortised O(1)), a read is a view of the filled head, and a tail trim is a
fill-count cut — a rank's tokens of one sequence are one contiguous range,
the per-rank layout of a production paged cache. A slab is never
overwritten under a reader: every view handed out (to :meth:`RankKVCache.get`
or to a prefix borrower) is read-only and raises the slab's ``lent`` mark,
and a write that would land below the mark — or into a borrowed, read-only
slab — moves the writer to a fresh slab first (copy-on-write).

Capacity is enforced through a shared :class:`repro.kvcache.paged.PagedAllocator`
whose pool is sized from HBM bytes; exceeding it raises
:class:`CacheCapacityError`, which the decode-balance tests use to show the
round-robin scheme postpones OOM versus pinning decode to one rank (§3.6).
"""

from __future__ import annotations

import numpy as np

from repro.core.sharding import ShardedKV
from repro.kvcache.paged import OutOfBlocksError, PagedAllocator


class CacheCapacityError(RuntimeError):
    """A rank's KV pool overflowed."""


class _Stream:
    """KV slab of one (layer, sequence) stream.

    ``cols`` are the parallel ``(k, v, pos)`` arrays over a leading
    capacity axis. The first ``n`` rows are filled; ``lent`` is the
    longest head of the current slab any outside view may cover.
    """

    __slots__ = ("cols", "n", "lent")

    def __init__(self, cols: tuple[np.ndarray, ...] = (), n: int = 0):
        self.cols = cols
        self.n = n
        self.lent = 0

    def tokens(self) -> int:
        return self.n

    def append(self, rows: tuple[np.ndarray, ...]) -> None:
        """Write ``rows`` behind the filled head, in place when the slab is
        private, has room, and no lent view covers the target rows."""
        n, cols = self.n, self.cols
        need = n + rows[-1].shape[0]
        capacity = cols[-1].shape[0] if cols else 0
        if need > capacity or n < self.lent or not cols[-1].flags.writeable:
            # double only to grow; a copy forced by a lent view or a
            # read-only slab keeps the capacity it has
            size = max(need, 2 * capacity) if need > capacity else capacity
            fresh = tuple(np.empty((size,) + r.shape[1:], dtype=r.dtype) for r in rows)
            for new, old in zip(fresh, cols):
                new[:n] = old[:n]
            self.cols = cols = fresh
            self.lent = 0
        for col, r in zip(cols, rows):
            col[n:need] = r
        self.n = need

    def head(self, m: int | None = None) -> tuple[np.ndarray, ...]:
        """Read-only views of the first ``m`` (default: all filled) rows."""
        m = self.n if m is None else m
        self.lent = max(self.lent, m)
        views = tuple(col[:m] for col in self.cols)
        for view in views:
            view.flags.writeable = False
        return views

    def count_below(self, bound: int) -> int:
        """Tokens at position ``< bound``. Appends arrive in position order
        (sharding, decode and imports all extend a sequence upwards), so
        these are always a storage prefix — checked, since :meth:`head` and
        the tail cut rely on it."""
        below = self.cols[-1][: self.n] < bound
        m = int(np.count_nonzero(below))
        if not below[:m].all():
            raise ValueError("stream positions are not append-ordered")
        return m


class RankKVCache:
    """One CP rank's KV cache across layers and sequences.

    Args:
        n_layers: transformer layers.
        n_kv_heads: KV heads per layer (this rank holds all of them; TP
            sharding inside the host is below this abstraction).
        head_dim: head dimension.
        capacity_tokens: optional per-rank token budget, enforced per layer
            (every layer stores the same token set, so one layer's pool is
            the binding constraint), at least 1. ``None`` = unbounded.
        block_size: paged-allocator block size in tokens.
    """

    def __init__(
        self,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        *,
        capacity_tokens: int | None = None,
        block_size: int = 16,
    ):
        if n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {n_layers}")
        if capacity_tokens is not None and capacity_tokens < 1:
            # a pool that cannot hold one token fails every round it is
            # offered: refuse it here, not at the first prefill
            raise ValueError(f"capacity_tokens must be >= 1 (or None), got {capacity_tokens}")
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.capacity_tokens = capacity_tokens
        self.block_size = block_size
        self._streams: dict[tuple[int, int], _Stream] = {}
        # The last layer-0 read's (request, sids, lengths, structure) until the
        # next write; the structure is every ShardedKV field beside K and V.
        self._structure: tuple | None = None
        num_blocks = 0 if capacity_tokens is None else -(-capacity_tokens // block_size)
        self._allocator = (
            None
            if capacity_tokens is None
            else PagedAllocator(num_blocks=num_blocks, block_size=block_size)
        )

    # ------------------------------------------------------------------ #

    def append(
        self,
        layer: int,
        seq_id: int,
        k: np.ndarray,
        v: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Append projected KV for tokens of ``seq_id`` at ``layer``.

        Raises:
            CacheCapacityError: when the paged pool is exhausted (only
                layer 0 is charged against the allocator; all layers hold
                identical token counts).
        """
        self._check_layer(layer)
        k = np.asarray(k)
        v = np.asarray(v)
        positions = np.asarray(positions, dtype=np.int64)
        if k.shape != v.shape or k.ndim != 3:
            raise ValueError(f"bad KV shapes k{k.shape} v{v.shape}")
        if k.shape[1:] != (self.n_kv_heads, self.head_dim):
            raise ValueError(
                f"expected [*, {self.n_kv_heads}, {self.head_dim}], got {k.shape}"
            )
        if positions.shape != (k.shape[0],):
            raise ValueError("positions must match token count")
        if k.shape[0] == 0:
            return
        if layer == 0:
            self._structure = None
            if self._allocator is not None:
                try:
                    self._allocator.append((seq_id,), k.shape[0])
                except OutOfBlocksError as exc:
                    raise CacheCapacityError(str(exc)) from exc
        stream = self._streams.get((layer, seq_id))
        if stream is None:
            stream = self._streams[(layer, seq_id)] = _Stream()
        stream.append((k, v, positions))

    def get(self, layer: int, seq_ids: list[int] | None = None) -> ShardedKV:
        """Fused :class:`ShardedKV` view of this rank's cache at ``layer``.

        One run per cached sequence, in ``seq_ids`` order, with the run
        offsets, the ``{seq_id: run}`` index and the ring's ``reach``
        attached. A single-sequence read returns read-only views of the
        slab; a fused read copies each column once. Either way the result
        never changes under a later append or trim.

        Only K and V are a layer's own. The rest — the *structure* — is
        derived by a layer-0 read and, until the next write, handed as the
        same read-only objects to a later layer's read for the same
        ``seq_ids`` list object (a round passes one list at every layer),
        whose streams must then be as long as layer 0's.

        Args:
            layer: transformer layer.
            seq_ids: restrict to these sequences (default: all, sorted).

        Raises:
            ValueError: when ``layer`` holds other token counts than the
                layer-0 read whose structure it would share.
        """
        self._check_layer(layer)
        if seq_ids is None:
            seq_ids = sorted({sid for (lyr, sid) in self._streams if lyr == layer})
        sids, streams = [], []
        for sid in seq_ids:
            stream = self._streams.get((layer, sid))
            if stream is not None:
                sids.append(sid)
                streams.append(stream)
        if not streams:
            return ShardedKV.empty(self.n_kv_heads, self.head_dim)
        lengths = [s.n for s in streams]
        shared = None
        if layer and self._structure is not None and self._structure[0] is seq_ids:
            _, had_sids, had_lengths, shared = self._structure
            if (had_sids, had_lengths) != (sids, lengths):
                raise ValueError(
                    f"layer {layer} holds {lengths} tokens of sequences {sids}, layer 0 held "
                    f"{had_lengths} of {had_sids}: every layer must store the same token set"
                )
        if len(streams) == 1:
            cols = streams[0].head()  # zero-copy: read-only views of the slab
        else:  # (the positions column is structure)
            cols = tuple(
                np.concatenate([s.cols[i][: s.n] for s in streams], axis=0)
                for i in range(3 if shared is None else 2)
            )
        k, v = cols[:2]
        if shared is None:
            runs = np.concatenate(([0], np.cumsum(lengths)))
            shared = dict(
                positions=cols[-1],
                seq_ids=np.repeat(np.array(sids, dtype=np.int64), lengths),
                runs=runs,
                run_index=dict(zip(sids, range(len(sids)))),
                reach=dict(zip(sids, np.minimum.reduceat(cols[-1], runs[:-1]).tolist())),
            )
            for name in ("positions", "seq_ids", "runs"):
                shared[name].flags.writeable = False
            if layer == 0:
                self._structure = (seq_ids, sids, lengths, shared)
        return ShardedKV(k=k, v=v, **shared)

    # ------------------------------------------------------------------ #

    def tokens(self, seq_id: int, layer: int = 0) -> int:
        """Tokens cached for ``seq_id`` at ``layer`` on this rank."""
        stream = self._streams.get((layer, seq_id))
        return 0 if stream is None else stream.tokens()

    def total_tokens(self, layer: int = 0) -> int:
        """Total tokens cached at ``layer`` across sequences."""
        return sum(
            stream.tokens() for (lyr, _), stream in self._streams.items() if lyr == layer
        )

    def free_tokens(self) -> int | None:
        """Remaining appendable tokens, or ``None`` when unbounded."""
        if self._allocator is None:
            return None
        return self._allocator.free_tokens()

    def utilization(self) -> float | None:
        """Claimed fraction of this rank's block pool (``None`` = unbounded)."""
        if self._allocator is None:
            return None
        return self._allocator.utilization()

    def sequence_ids(self, layer: int = 0) -> list[int]:
        return sorted({sid for (lyr, sid) in self._streams if lyr == layer})

    def can_append(self, demands: dict[int, int]) -> bool:
        """Whether per-sequence token demands fit in this rank's pool.

        Args:
            demands: ``{seq_id: tokens to append}`` for one upcoming engine
                round (prefill chunk or decode step).

        Exact against fragmentation: each sequence first fills the slack in
        its own partially-filled last block, then claims whole free blocks.
        The serving runtime uses this as its admission predicate before
        launching a round, so capacity pressure surfaces as a scheduling
        decision (preempt / wait) instead of a mid-layer
        :class:`CacheCapacityError`.
        """
        if self._allocator is None:
            return True
        return self._allocator.fits({(sid,): n for sid, n in demands.items()})

    def share_prefix(self, src_seq: int, dst_seq: int, upto_pos: int) -> int:
        """Reference ``src_seq``'s cached KV below ``upto_pos`` as ``dst_seq``.

        Prefix sharing: the destination stream *borrows* the head of the
        source's slab — read-only views, no bytes copied — and the paged
        allocator accounts the shared span once via block refcounts
        (:meth:`repro.kvcache.paged.PagedAllocator.share`). Neither stream
        can disturb the other: the borrower's first write moves it to a
        slab of its own, the donor appends behind the lent head, and a
        donor trimmed to below it moves to a fresh slab before writing
        again (the borrowers keep the old one); the allocator
        copy-on-write splits a shared last block.

        Args:
            src_seq: resident donor sequence.
            dst_seq: new sequence; must not be cached on this rank.
            upto_pos: share every token at absolute position ``< upto_pos``.

        Returns:
            Tokens shared on this rank at layer 0 (every layer stores the
            same token set); 0 when the donor holds nothing below
            ``upto_pos`` here (the destination then simply starts empty).
        """
        if upto_pos < 1:
            raise ValueError(f"upto_pos must be >= 1, got {upto_pos}")
        if src_seq == dst_seq:
            raise ValueError(f"cannot share sequence {src_seq} with itself")
        if any(sid == dst_seq for (_lyr, sid) in self._streams):
            raise ValueError(f"sequence {dst_seq} already cached on this rank")
        shared = 0
        self._structure = None
        for layer in range(self.n_layers):
            stream = self._streams.get((layer, src_seq))
            if stream is None:
                continue
            n = stream.count_below(upto_pos)
            if n == 0:
                continue
            self._streams[(layer, dst_seq)] = _Stream(stream.head(n), n)
            if layer == 0:
                shared = n
        if shared and self._allocator is not None:
            self._allocator.share((src_seq,), (dst_seq,), shared)
        return shared

    def drop_tail(self, seq_id: int, from_pos: int) -> int:
        """Evict every cached token of ``seq_id`` at position ``>= from_pos``.

        Partial (tail) eviction: the prefix this rank holds below
        ``from_pos`` stays resident, and only the whole allocator blocks
        the dropped tokens vacate return to the pool. Positions are
        absolute, so the tokens dropped here are exactly this rank's share
        of the sequence's global tail regardless of how sharding
        interleaved them into the stream.

        Returns:
            Tokens dropped at layer 0 (every layer stores the same token
            set); 0 when nothing at or above ``from_pos`` is cached here.
        """
        if from_pos < 0:
            raise ValueError(f"from_pos must be >= 0, got {from_pos}")
        freed = 0
        self._structure = None
        for layer in range(self.n_layers):
            stream = self._streams.get((layer, seq_id))
            if stream is None:
                continue
            keep = stream.count_below(from_pos)
            dropped = stream.n - keep
            if dropped == 0:
                continue
            if keep:
                stream.n = keep
            else:
                del self._streams[(layer, seq_id)]
            if layer == 0:
                freed = dropped
        if freed and self._allocator is not None:
            self._allocator.release_tail((seq_id,), freed)
        return freed

    def drop(self, seq_id: int) -> int:
        """Evict a sequence from all layers and release its blocks.

        Returns:
            Tokens freed at layer 0 (every layer stores the same token
            set); 0 when the sequence was not cached here. The serving
            runtime uses the return value for eviction accounting.
        """
        freed = self.tokens(seq_id)
        self._structure = None
        for layer in range(self.n_layers):
            self._streams.pop((layer, seq_id), None)
        if self._allocator is not None:
            self._allocator.release((seq_id,))
        return freed

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.n_layers:
            raise ValueError(f"layer {layer} out of range [0, {self.n_layers})")
