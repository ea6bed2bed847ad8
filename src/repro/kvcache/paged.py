"""Paged block allocator (PagedAttention-style) with prefix sharing.

Long-context serving cannot reserve max-context-length contiguous buffers
per sequence; the standard fix (Kwon et al. 2023, cited in §2.2) is to
allocate KV memory in fixed-size token blocks on demand. This allocator
tracks block ownership per stream, keyed by any tuple, and is the capacity
authority behind :class:`repro.kvcache.cache.RankKVCache`, which charges
it for layer 0 only, one ``(seq_id,)`` stream per sequence (every layer
holds the same tokens, so one layer's blocks price them all): when the free
list empties, the cache raises the OOM the paper's load-balancing work is
designed to postpone (§3.6: without round-robin decode sharding, one rank
OOMs before aggregate capacity is reached).

Blocks are *refcounted* so streams can share a committed prefix
(SGLang-RadixAttention / vLLM-prefix-caching style): :meth:`share` makes a
new stream reference the first blocks of an existing one, charging the
pool nothing — a shared prefix occupies capacity exactly once. Sharing is
copy-on-write: a stream appending into the slack of a block another
stream also references first claims a fresh block for its own tail (the
shared block is never mutated), and :meth:`fits` prices that extra block
so admission control stays exact. Releasing (whole-stream or tail) only
returns a block to the free list when its last reference drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class OutOfBlocksError(RuntimeError):
    """No free blocks remain in the pool."""


@dataclass
class PagedAllocator:
    """Fixed-pool block allocator.

    Attributes:
        num_blocks: total blocks in the pool.
        block_size: tokens per block.
    """

    num_blocks: int
    block_size: int
    _free: list[int] = field(default_factory=list, repr=False)
    _owners: dict[tuple, list[int]] = field(default_factory=dict, repr=False)
    _fill: dict[tuple, int] = field(default_factory=dict, repr=False)
    _ref: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.num_blocks < 0:
            raise ValueError(f"num_blocks must be >= 0, got {self.num_blocks}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        self._free = list(range(self.num_blocks - 1, -1, -1))

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        """Distinct blocks claimed by at least one stream (shared blocks
        count once — this is what prefix sharing saves)."""
        return self.num_blocks - len(self._free)

    def free_tokens(self) -> int:
        """Tokens that can still be appended across all streams.

        Counts whole free blocks plus the slack in each stream's last
        partially-filled block — except when that last block is shared
        with another stream, whose slack is unusable without a
        copy-on-write split (appending there claims a whole new block).
        """
        slack = sum(
            (len(blocks) * self.block_size) - self._fill[key]
            for key, blocks in self._owners.items()
            if blocks and self._ref[blocks[-1]] == 1
        )
        return len(self._free) * self.block_size + slack

    def stream_tokens(self, key: tuple) -> int:
        """Tokens currently stored under ``key``."""
        return self._fill.get(key, 0)

    def stream_blocks(self, key: tuple) -> tuple[int, ...]:
        """Block ids owned (possibly shared) by ``key``, oldest first."""
        return tuple(self._owners.get(key, ()))

    def block_refcount(self, block: int) -> int:
        """How many streams reference ``block`` (0 = free/unknown)."""
        return self._ref.get(block, 0)

    def utilization(self) -> float:
        """Fraction of the pool's token capacity in use (block-granular).

        Counts whole claimed blocks, not just their filled tokens, so this
        reflects allocatable pressure — the quantity the serving runtime's
        peak-KV-occupancy metric samples after every round. Shared blocks
        count once, which is exactly the capacity prefix reuse reclaims.
        """
        if self.num_blocks == 0:
            return 0.0
        return self.used_blocks / self.num_blocks

    def _needs_cow(self, key: tuple) -> bool:
        """Whether appending to ``key`` must copy-on-write its last block
        (the block is shared and has slack this stream would write into)."""
        blocks = self._owners.get(key)
        if not blocks:
            return False
        fill_in_last = self._fill[key] - (len(blocks) - 1) * self.block_size
        return fill_in_last < self.block_size and self._ref[blocks[-1]] > 1

    def append(self, key: tuple, n_tokens: int) -> None:
        """Account for appending ``n_tokens`` to stream ``key``.

        Allocates new blocks as needed. When the stream's last block is
        shared with another stream and still has slack, the append first
        performs a copy-on-write split: the stream swaps the shared block
        for a fresh one it owns exclusively (the shared block keeps its
        other references untouched), then fills from there.

        Raises:
            OutOfBlocksError: if the pool cannot hold the new tokens; the
                allocation (including any copy-on-write split) is rolled
                back so the pool state is unchanged.
        """
        if n_tokens < 0:
            raise ValueError(f"n_tokens must be >= 0, got {n_tokens}")
        if n_tokens == 0 and key not in self._owners:
            # registering a fresh key with zero tokens would leave a
            # phantom zero-block stream in streams() forever
            return
        blocks = self._owners.setdefault(key, [])
        fill = self._fill.setdefault(key, 0)
        cow_old: int | None = None
        if n_tokens > 0 and self._needs_cow(key):
            if not self._free:
                raise OutOfBlocksError(
                    f"stream {key}: copy-on-write split needs a free block "
                    f"but the pool is exhausted "
                    f"({self.used_blocks}/{self.num_blocks} blocks used)"
                )
            b = self._free.pop()
            self._ref[b] = 1
            cow_old = blocks[-1]
            self._ref[cow_old] -= 1
            blocks[-1] = b
        capacity = len(blocks) * self.block_size
        need = fill + n_tokens - capacity
        newly: list[int] = []
        while need > 0:
            if not self._free:
                # roll back (newly claimed blocks, then the COW split)
                for b in newly:
                    del self._ref[b]
                    self._free.append(b)
                    blocks.pop()
                if cow_old is not None:
                    del self._ref[blocks[-1]]
                    self._free.append(blocks[-1])
                    self._ref[cow_old] += 1
                    blocks[-1] = cow_old
                if not blocks:
                    del self._owners[key]
                    del self._fill[key]
                raise OutOfBlocksError(
                    f"stream {key}: need {n_tokens} tokens but pool is exhausted "
                    f"({self.used_blocks}/{self.num_blocks} blocks used)"
                )
            b = self._free.pop()
            self._ref[b] = 1
            blocks.append(b)
            newly.append(b)
            need -= self.block_size
        self._fill[key] = fill + n_tokens

    def share(self, src_key: tuple, dst_key: tuple, n_tokens: int) -> int:
        """Make ``dst_key`` reference the first ``n_tokens`` of ``src_key``.

        The shared prefix occupies pool capacity once: ``dst_key``'s block
        list becomes the first ``ceil(n_tokens / block_size)`` blocks of
        ``src_key``'s, each with its refcount bumped, and *zero* free
        blocks are claimed. Later appends by either stream into the last
        shared block copy-on-write split it first (see :meth:`append`).

        Returns:
            The number of blocks now shared.

        Raises:
            ValueError: unknown source, existing destination, or
                ``n_tokens`` outside ``[1, stream_tokens(src_key)]``.
        """
        if src_key not in self._owners:
            raise ValueError(f"cannot share from unknown stream {src_key}")
        if dst_key in self._owners:
            raise ValueError(f"cannot share into existing stream {dst_key}")
        if src_key == dst_key:
            raise ValueError(f"cannot share stream {src_key} with itself")
        if not 1 <= n_tokens <= self._fill[src_key]:
            raise ValueError(
                f"share of {n_tokens} tokens outside [1, {self._fill[src_key]}] "
                f"stored by {src_key}"
            )
        shared = self._owners[src_key][: -(-n_tokens // self.block_size)]
        self._owners[dst_key] = list(shared)
        self._fill[dst_key] = n_tokens
        for b in shared:
            self._ref[b] += 1
        return len(shared)

    def fits(self, demands: dict[tuple, int]) -> bool:
        """Dry-run an :meth:`append` of ``demands[key]`` tokens per stream.

        Computes how many *new* blocks the batch of appends would claim —
        each stream first consumes the slack of its own last block, unless
        that block is shared, in which case the copy-on-write split costs
        one extra block and the shared slack is unusable — and checks it
        against the free list, without mutating any state.
        """
        need = 0
        for key, n_tokens in demands.items():
            if n_tokens < 0:
                raise ValueError(f"stream {key}: n_tokens must be >= 0, got {n_tokens}")
            fill = self._fill.get(key, 0)
            held = len(self._owners.get(key, ()))
            stream_need = -(-(fill + n_tokens) // self.block_size) - held
            if n_tokens > 0 and self._needs_cow(key):
                stream_need += 1
            need += max(0, stream_need)
        return need <= len(self._free)

    def release(self, key: tuple) -> int:
        """Drop all of ``key``'s block references; returns blocks *freed*.

        A block returns to the free list only when its last reference
        drops — blocks shared with other streams stay claimed, so the
        return value under sharing can be less than the stream's block
        count. Releasing an unknown (or already-released) key is a clean
        no-op returning 0 — callers evicting speculatively need not
        pre-check.
        """
        blocks = self._owners.pop(key, [])
        self._fill.pop(key, None)
        return self._unref(blocks)

    def release_tail(self, key: tuple, n_tokens: int) -> int:
        """Drop the *newest* ``n_tokens`` of stream ``key``; returns blocks freed.

        Only whole blocks that become empty (and are not referenced by any
        other stream) are returned to the pool; the stream's new last
        block may stay partially filled — that slack is reusable by the
        stream itself when exclusively owned, as :meth:`free_tokens`
        counts. Shared blocks are never mutated: dropping this stream's
        reference leaves other holders' contents untouched, and a later
        append into a still-shared last block copy-on-write splits it.
        Dropping every token degenerates to :meth:`release`, so the key is
        deregistered and never lingers as a zero-block stream.

        Raises:
            ValueError: negative ``n_tokens``, or more tokens than the
                stream holds (which would indicate caller corruption).
        """
        if n_tokens < 0:
            raise ValueError(f"n_tokens must be >= 0, got {n_tokens}")
        fill = self._fill.get(key, 0)
        if n_tokens > fill:
            raise ValueError(
                f"stream {key}: cannot drop {n_tokens} of {fill} stored tokens"
            )
        if n_tokens == 0:
            return 0
        new_fill = fill - n_tokens
        if new_fill == 0:
            return self.release(key)
        blocks = self._owners[key]
        keep_blocks = -(-new_fill // self.block_size)
        dropped = blocks[keep_blocks:]
        del blocks[keep_blocks:]
        self._fill[key] = new_fill
        return self._unref(dropped)

    def _unref(self, blocks: list[int]) -> int:
        """Drop one reference per block; free and count those reaching 0."""
        freed = 0
        for b in blocks:
            self._ref[b] -= 1
            if self._ref[b] == 0:
                del self._ref[b]
                self._free.append(b)
                freed += 1
        return freed

    def streams(self) -> list[tuple]:
        return list(self._owners)

    def audit(self) -> list[str]:
        """Refcount-consistency check; returns violations (empty = clean).

        The fault-injection leak audit runs this after a drained run:
        whole-pool resets and mid-stream sheds exercise release paths
        under sharing, and any miscounted reference would either leak a
        block forever or hand one block to two streams. Verifies the
        pool partitions exactly into free and referenced blocks, and
        that every block's refcount equals the number of streams whose
        block lists contain it.
        """
        problems: list[str] = []
        refs: dict[int, int] = {}
        for blocks in self._owners.values():
            for b in blocks:
                refs[b] = refs.get(b, 0) + 1
        free = set(self._free)
        for b, n in sorted(refs.items()):
            if self._ref.get(b, 0) != n:
                problems.append(
                    f"block {b}: refcount {self._ref.get(b, 0)} but "
                    f"{n} stream references"
                )
            if b in free:
                problems.append(f"block {b}: simultaneously free and referenced")
        for b in sorted(self._ref):
            if b not in refs:
                problems.append(f"block {b}: refcount {self._ref[b]} with no owning stream")
        if len(free) + len(refs) != self.num_blocks:
            problems.append(
                f"pool does not partition: {len(free)} free + {len(refs)} "
                f"referenced != {self.num_blocks} blocks"
            )
        return problems
