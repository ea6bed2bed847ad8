"""One KV pool of the serving runtime: what it owns, and nothing else.

The paper's closing architecture (§4.3) decouples prefill from decode by
giving each its own pool. :class:`Pool` is that unit: an engine (with its
paged KV capacity), the pool's own simulated clock, the set of sequences
holding KV in it, and its host-side swap store. The runtime keeps a
role -> ``Pool`` map; a colocated deployment binds both roles to *one*
``Pool`` object, so there is no second clock, holder set or store to keep
in step — the one-pool case of the disaggregated design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import ContextParallelEngine, KVExport


@dataclass(eq=False)  # pools compare and hash by identity
class Pool:
    """The resources one KV pool owns.

    Attributes:
        engine: the numeric engine whose paged allocator is this pool's
            KV capacity.
        t: the pool's simulated clock, in seconds.
        holders: seq ids with tokens in the engine's KV. The methods
            below keep it in step with the engine.
        store: host-side swap store, ``{seq_id: KVExport}`` — payloads
            live off-pool, so they survive a pool reset.
        store_tokens: KV tokens currently held in ``store``.
    """

    engine: ContextParallelEngine
    t: float = 0.0
    holders: set[int] = field(default_factory=set)
    store: dict[int, KVExport] = field(default_factory=dict)
    store_tokens: int = 0

    def evict(self, seq_id: int) -> int:
        """Drop ``seq_id``'s KV (refcount-safe for shared blocks);
        returns the tokens freed."""
        freed = self.engine.evict(seq_id)
        self.holders.discard(seq_id)
        return freed

    def swap_out(self, seq_id: int) -> None:
        """Move ``seq_id``'s KV whole from the engine to the host store."""
        export = self.engine.export_kv(seq_id)
        self.evict(seq_id)
        self.store[seq_id] = export
        self.store_tokens += export.tokens

    def swap_in(self, seq_id: int) -> int:
        """Move ``seq_id``'s KV back from the host store into the engine
        (the caller has checked it fits); returns the tokens restored."""
        export = self.discard_stored(seq_id)
        self.engine.import_kv(export)
        self.holders.add(seq_id)
        return export.tokens

    def discard_stored(self, seq_id: int) -> KVExport | None:
        """Drop ``seq_id``'s host-store payload, if any, and return it."""
        export = self.store.pop(seq_id, None)
        if export is not None:
            self.store_tokens -= export.tokens
        return export

    def describe(self) -> str:
        """Clock, holder count and KV occupancy (failure diagnostics)."""
        used = self.engine.kv_utilization()
        kv = "unbounded" if used is None else f"{used:.0%}"
        return f"t={self.t:g}, {len(self.holders)} holders, KV {kv}"
