"""Shadow-state sanitizer for the paged-KV lifecycle.

The end-of-run checks (:meth:`PagedAllocator.audit`,
:meth:`ContextParallelEngine.kv_leak_report`) prove a drained run left no
inconsistency behind, but by the time they fire the faulty operation is
long gone.  This module applies the AddressSanitizer discipline to KV
blocks instead of bytes: an **independent shadow model** of every block —
owner streams, refcount, freed bit, copy-on-write lineage — is replayed
alongside the real :class:`~repro.kvcache.paged.PagedAllocator`, one
operation at a time, and any divergence raises a structured
:class:`SanitizerError` *at the offending operation*, with the recent op
trace attached.

Detected error classes (each pinned by a unit test that corrupts state
and triggers it):

- ``double_free`` — an operation frees (or finds) a block that is already
  on the free list, or the free list holds duplicates / overlaps owned
  blocks.
- ``use_after_free`` — an append writes into a stream's last block after
  that block was returned to the free list.
- ``refcount_underflow`` — a release drives a block's refcount negative.
- ``write_shared_no_cow`` — an append fills a block the shadow knows is
  shared (refcount > 1) without the copy-on-write split that must claim
  a private block first.
- ``leak`` — at a drain point, blocks remain owned by streams whose
  sequence is no longer resident (or resident KV survives an evict).
- ``corruption`` — the allocator's books silently diverged from the
  shadow in a way no legal operation explains (including an OOM rollback
  that failed to restore the pre-op state exactly).

Attach with :func:`attach_sanitizer` (engine-level, covers every rank's
allocator plus the engine lifecycle ops) or
:class:`AllocatorSanitizer` (single allocator).  The serving runtime
exposes ``ContinuousBatchingRuntime(sanitize=True)`` and the CLI
``serve --sanitize``; the property suites arm it for every allocator via
an autouse fixture.
"""

from __future__ import annotations

import functools
from collections import Counter, deque
from typing import TYPE_CHECKING, Iterable

from repro.kvcache.paged import OutOfBlocksError, PagedAllocator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ContextParallelEngine

TRACE_DEPTH = 64


class SanitizerError(RuntimeError):
    """A KV lifecycle violation, caught at the offending operation.

    Attributes:
        kind: one of ``double_free``, ``use_after_free``,
            ``refcount_underflow``, ``write_shared_no_cow``, ``leak``,
            ``corruption``.
        op: the operation (rendered) that tripped the check.
        trace: the most recent operations, oldest first, ending with
            ``op`` — the context audit() can never give.
    """

    def __init__(self, kind: str, op: str, detail: str, trace: Iterable[str]):
        self.kind = kind
        self.op = op
        self.detail = detail
        self.trace = tuple(trace)
        lines = [f"[{kind}] at {op}: {detail}"]
        if self.trace:
            lines.append("op trace (oldest first):")
            lines.extend(f"  {i}: {t}" for i, t in enumerate(self.trace))
        super().__init__("\n".join(lines))


class OpTrace:
    """Bounded ring of rendered operations, shared across wrapped objects."""

    def __init__(self):
        self._ops: deque[str] = deque(maxlen=TRACE_DEPTH)

    def record(self, op: str) -> None:
        self._ops.append(op)

    def snapshot(self) -> tuple[str, ...]:
        return tuple(self._ops)


class AllocatorSanitizer:
    """Per-op shadow validation of one :class:`PagedAllocator`.

    The shadow replays each operation's *semantics* independently
    (claims pop from the free-list tail, COW splits claim before
    unreferencing, releases free at refcount zero) and compares books
    with the real allocator before and after every op.  Only the free
    list's *ordering* is absorbed from the allocator (an OOM rollback
    legally permutes it); everything else must match the shadow exactly.
    """

    def __init__(self, alloc: PagedAllocator, *, trace: OpTrace | None = None,
                 label: str = ""):
        existing = getattr(alloc, "_sanitizer", None)
        if existing is not None:
            raise ValueError("allocator already has a sanitizer attached")
        self.alloc = alloc
        self.label = label
        self.trace = trace if trace is not None else OpTrace()
        # the shadow model: owner lists, fill, free list, refcounts, lineage
        self.owners: dict[tuple, list[int]] = {
            k: list(v) for k, v in alloc._owners.items()
        }
        self.fill: dict[tuple, int] = dict(alloc._fill)
        self.free: list[int] = list(alloc._free)
        self.ref: dict[int, int] = dict(alloc._ref)
        #: COW lineage: private block -> the shared block it replaced
        self.lineage: dict[int, int] = {}
        # reentrancy guard: allocator ops compose (release_tail calls
        # release when the trim drains the stream); only the outermost
        # call is checked and simulated — its shadow semantics already
        # model the composite
        self._busy = False
        self._wrap()
        alloc._sanitizer = self  # type: ignore[attr-defined]

    # ---- wrapping ------------------------------------------------------

    def _wrap(self) -> None:
        for name in ("append", "share", "release", "release_tail"):
            orig = getattr(self.alloc, name)
            wrapper = getattr(self, f"_checked_{name}")

            @functools.wraps(orig)
            def call(*args, _orig=orig, _wrapper=wrapper, **kwargs):
                if self._busy:
                    return _orig(*args, **kwargs)
                self._busy = True
                try:
                    return _wrapper(_orig, *args, **kwargs)
                finally:
                    self._busy = False

            setattr(self.alloc, name, call)

    def _op(self, text: str) -> str:
        return f"{self.label}{self.label and ':' or ''}{text}"

    def _fail(self, kind: str, op: str, detail: str) -> None:
        self.trace.record(f"{op}  <- {kind}")
        raise SanitizerError(kind, op, detail, self.trace.snapshot())

    # ---- shadow queries ------------------------------------------------

    def _owner_streams(self, block: int) -> list[tuple]:
        return sorted(k for k, blocks in self.owners.items() if block in blocks)

    def _write_target(self, key: tuple, n_tokens: int) -> int | None:
        """The existing block an ``append`` would write into, if any."""
        blocks = self.owners.get(key)
        if not blocks or n_tokens <= 0:
            return None
        fill_in_last = self.fill[key] - (len(blocks) - 1) * self.alloc.block_size
        return blocks[-1] if fill_in_last < self.alloc.block_size else None

    # ---- structural comparison -----------------------------------------

    def _structural_check(self, op: str, *, free_exact: bool = True) -> None:
        """Compare the allocator's books against the shadow.

        Free-list duplicates and free/owned overlaps are classed as
        ``double_free`` (a block reachable two ways); any other
        divergence is ``corruption``.  Refcounts are deliberately *not*
        compared here — refcount-specific classes (underflow, missing
        COW) have their own sharper checks.
        """
        a = self.alloc
        free_counts = Counter(a._free)
        dupes = sorted(b for b, n in free_counts.items() if n > 1)
        if dupes:
            self._fail("double_free", op,
                       f"free list holds block(s) {dupes} more than once")
        owned = {b for blocks in a._owners.values() for b in blocks}
        overlap = sorted(owned & set(a._free))
        if overlap:
            streams = {b: self._owner_streams(b) for b in overlap}
            self._fail("double_free", op,
                       f"block(s) on the free list while still owned: "
                       f"{streams}")
        if {k: list(v) for k, v in a._owners.items()} != self.owners:
            self._fail("corruption", op,
                       f"owner lists diverged from shadow: "
                       f"allocator={dict(a._owners)} shadow={self.owners}")
        if dict(a._fill) != self.fill:
            self._fail("corruption", op,
                       f"fill counts diverged from shadow: "
                       f"allocator={dict(a._fill)} shadow={self.fill}")
        if free_exact and list(a._free) != self.free:
            self._fail("corruption", op,
                       f"free list diverged from shadow: "
                       f"allocator={a._free} shadow={self.free}")
        if not free_exact and free_counts != Counter(self.free):
            self._fail("corruption", op,
                       f"free blocks diverged from shadow: "
                       f"allocator={sorted(a._free)} shadow={sorted(self.free)}")

    def _post_checks(self, op: str) -> None:
        a = self.alloc
        negative = sorted(b for b, n in a._ref.items() if n < 0)
        if negative:
            self._fail("refcount_underflow", op,
                       f"block(s) {negative} driven to negative refcount "
                       f"({ {b: a._ref[b] for b in negative} })")
        self._structural_check(op, free_exact=False)
        if dict(a._ref) != self.ref:
            self._fail("corruption", op,
                       f"refcounts diverged from shadow: "
                       f"allocator={dict(a._ref)} shadow={self.ref}")
        # absorb the allocator's free-list ordering (rollbacks permute it)
        self.free = list(a._free)

    # ---- shadow semantics ----------------------------------------------

    def _sim_claim(self) -> int:
        b = self.free.pop()
        self.ref[b] = 1
        return b

    def _sim_unref(self, blocks: list[int]) -> None:
        for b in blocks:
            self.ref[b] -= 1
            if self.ref[b] == 0:
                del self.ref[b]
                self.lineage.pop(b, None)
                self.free.append(b)

    def _sim_append(self, key: tuple, n_tokens: int) -> None:
        if n_tokens == 0 and key not in self.owners:
            return
        blocks = self.owners.setdefault(key, [])
        fill = self.fill.setdefault(key, 0)
        bs = self.alloc.block_size
        if n_tokens > 0 and blocks:
            fill_in_last = fill - (len(blocks) - 1) * bs
            if fill_in_last < bs and self.ref[blocks[-1]] > 1:
                old = blocks[-1]
                b = self._sim_claim()
                self.ref[old] -= 1
                blocks[-1] = b
                self.lineage[b] = old
        need = fill + n_tokens - len(blocks) * bs
        while need > 0:
            blocks.append(self._sim_claim())
            need -= bs
        self.fill[key] = fill + n_tokens

    def _sim_share(self, src: tuple, dst: tuple, n_tokens: int) -> None:
        shared = self.owners[src][: -(-n_tokens // self.alloc.block_size)]
        self.owners[dst] = list(shared)
        self.fill[dst] = n_tokens
        for b in shared:
            self.ref[b] += 1

    def _sim_release(self, key: tuple) -> None:
        blocks = self.owners.pop(key, [])
        self.fill.pop(key, None)
        self._sim_unref(blocks)

    def _sim_release_tail(self, key: tuple, n_tokens: int) -> None:
        fill = self.fill.get(key, 0)
        if n_tokens == 0:
            return
        new_fill = fill - n_tokens
        if new_fill == 0:
            self._sim_release(key)
            return
        blocks = self.owners[key]
        keep = -(-new_fill // self.alloc.block_size)
        dropped = blocks[keep:]
        del blocks[keep:]
        self.fill[key] = new_fill
        self._sim_unref(dropped)

    # ---- checked operations --------------------------------------------

    def _run(self, orig, op: str, *args, specific=None):
        """Shared harness: specific pre-checks, structural pre-check, the
        real op (verifying rollback exactness when it raises)."""
        if specific is not None:
            specific(op)
        self._structural_check(op)
        try:
            result = orig(*args)
        except (OutOfBlocksError, ValueError):
            # the allocator promises exact rollback (free-list order may
            # legally permute); anything else is corruption
            self._structural_check(f"{op} [rolled back]", free_exact=False)
            self.free = list(self.alloc._free)
            self.trace.record(f"{op}  <- raised, rolled back")
            raise
        return result

    def _checked_append(self, orig, key: tuple, n_tokens: int):
        op = self._op(f"append(key={key}, n_tokens={n_tokens})")
        target = self._write_target(key, n_tokens)

        def specific(op: str) -> None:
            if target is None:
                return
            if target in self.alloc._free or target not in self.ref:
                self._fail(
                    "use_after_free", op,
                    f"append writes into block {target} (last block of "
                    f"stream {key}) which is on the free list",
                )

        expect_cow = target is not None and self.ref.get(target, 0) > 1
        result = self._run(orig, op, key, n_tokens, specific=specific)
        if expect_cow:
            actual = self.alloc._owners.get(key, [])
            idx = len(self.owners[key]) - 1
            if idx < len(actual) and actual[idx] == target:
                self._fail(
                    "write_shared_no_cow", op,
                    f"block {target} is shared by streams "
                    f"{self._owner_streams(target)} (shadow refcount "
                    f"{self.ref[target]}) but the append filled it in "
                    f"place instead of copy-on-write splitting",
                )
        self._sim_append(key, n_tokens)
        self._post_checks(op)
        self.trace.record(op)
        return result

    def _checked_share(self, orig, src_key: tuple, dst_key: tuple, n_tokens: int):
        op = self._op(f"share(src={src_key}, dst={dst_key}, n_tokens={n_tokens})")
        result = self._run(orig, op, src_key, dst_key, n_tokens)
        self._sim_share(src_key, dst_key, n_tokens)
        self._post_checks(op)
        self.trace.record(op)
        return result

    def _release_specific(self, key: tuple):
        def specific(op: str) -> None:
            free_set = set(self.alloc._free)
            for b in self.owners.get(key, []):
                if b in free_set:
                    self._fail(
                        "double_free", op,
                        f"stream {key} still owns block {b} but it is "
                        f"already on the free list",
                    )
        return specific

    def _checked_release(self, orig, key: tuple):
        op = self._op(f"release(key={key})")
        result = self._run(orig, op, key, specific=self._release_specific(key))
        self._sim_release(key)
        self._post_checks(op)
        self.trace.record(op)
        return result

    def _checked_release_tail(self, orig, key: tuple, n_tokens: int):
        op = self._op(f"release_tail(key={key}, n_tokens={n_tokens})")
        result = self._run(
            orig, op, key, n_tokens, specific=self._release_specific(key)
        )
        self._sim_release_tail(key, n_tokens)
        self._post_checks(op)
        self.trace.record(op)
        return result

    # ---- drain / leak checks -------------------------------------------

    def verify(self) -> None:
        """On-demand structural check (no operation in flight)."""
        self._post_checks(self._op("verify()"))

    def check_leaks(self, resident_seq_ids: set[int]) -> None:
        """Every owned stream must belong to a resident sequence.

        Stream keys are ``(seq_id,)`` tuples (the cache charges the
        allocator once per sequence at layer 0).
        """
        op = self._op(f"check_leaks(resident={sorted(resident_seq_ids)})")
        leaked = sorted(
            k for k in self.owners if k and k[0] not in resident_seq_ids
        )
        if leaked:
            blocks = {k: list(self.owners[k]) for k in leaked}
            self._fail(
                "leak", op,
                f"stream(s) {leaked} still hold blocks {blocks} after their "
                f"sequences left the engine",
            )
        if not resident_seq_ids and self.alloc.used_blocks:
            self._fail(
                "leak", op,
                f"{self.alloc.used_blocks} blocks still claimed with no "
                f"resident sequences",
            )


class KVSanitizer:
    """Engine-level sanitizer: every rank's allocator plus lifecycle ops.

    Wraps ``evict`` / ``evict_tail`` / ``adopt_prefix`` / ``export_kv`` /
    ``import_kv`` on the engine instance so the shared op trace shows
    lifecycle context next to allocator ops, and enforces eviction
    postconditions the allocator alone cannot see (an evict must leave
    zero resident tokens on every rank).  ``check_drained()`` is the
    drain-point leak check the runtime calls after a completed run.
    """

    def __init__(self, engine: "ContextParallelEngine"):
        self.engine = engine
        self.trace = OpTrace()
        self.rank_sanitizers: list[AllocatorSanitizer] = []
        for rank, cache in enumerate(engine.caches):
            alloc = cache._allocator
            if alloc is None:
                continue
            existing = getattr(alloc, "_sanitizer", None)
            if existing is not None:
                self.rank_sanitizers.append(existing)
            else:
                self.rank_sanitizers.append(
                    AllocatorSanitizer(alloc, trace=self.trace, label=f"rank{rank}")
                )
        self._wrap_engine()
        engine._kv_sanitizer = self  # type: ignore[attr-defined]

    def _wrap_engine(self) -> None:
        for name in ("evict", "evict_tail", "adopt_prefix", "export_kv",
                     "import_kv"):
            orig = getattr(self.engine, name)

            @functools.wraps(orig)
            def call(*args, _orig=orig, _name=name, **kwargs):
                rendered = ", ".join(
                    [repr(a) for a in args]
                    + [f"{k}={v!r}" for k, v in kwargs.items()]
                )
                op = f"engine.{_name}({rendered})"
                result = _orig(*args, **kwargs)
                self.trace.record(op)
                if _name in ("evict", "evict_tail"):
                    self._check_evicted(op, _name, args)
                return result

            setattr(self.engine, name, call)

    def _check_evicted(self, op: str, name: str, args: tuple) -> None:
        seq_id = args[0]
        expected = self.engine.seq_lengths.get(seq_id, 0)
        if name == "evict" and seq_id in self.engine.seq_lengths:
            raise SanitizerError(
                "leak", op,
                f"seq {seq_id} still tracked in seq_lengths after evict",
                self.trace.snapshot(),
            )
        resident = sum(cache.tokens(seq_id) for cache in self.engine.caches)
        if resident != expected:
            raise SanitizerError(
                "leak", op,
                f"ranks hold {resident} tokens for seq {seq_id} but "
                f"{expected} should remain",
                self.trace.snapshot(),
            )

    def check_drained(self) -> None:
        """Drain-point check: all KV belongs to still-resident sequences.

        Prefix-cache retention keeps finished conversations resident
        *and* tracked in ``seq_lengths``, so residency — not completion —
        is the leak criterion, matching ``kv_leak_report()``.
        """
        resident = set(self.engine.seq_lengths)
        for s in self.rank_sanitizers:
            s.verify()
            s.check_leaks(resident)
        for rank, cache in enumerate(self.engine.caches):
            orphans = sorted(set(cache.sequence_ids()) - resident)
            if orphans:
                raise SanitizerError(
                    "leak",
                    "check_drained()",
                    f"rank {rank} holds KV for untracked seq(s) {orphans}",
                    self.trace.snapshot(),
                )


def attach_sanitizer(engine: "ContextParallelEngine") -> KVSanitizer:
    """Attach (or return the existing) engine-level sanitizer."""
    existing = getattr(engine, "_kv_sanitizer", None)
    if existing is not None:
        return existing
    return KVSanitizer(engine)
