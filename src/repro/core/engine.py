"""Context-parallel inference engine: multi-turn prefill + decode.

:class:`ContextParallelEngine` is the integration layer that turns the
paper's pieces into a serving loop:

- **Full prefill** (first user turn): new tokens are load-balance sharded
  (§3.5.1), each rank projects Q/K/V locally, appends its KV shard to its
  persistent cache, and the planner-selected ring algorithm (pass-KV for
  full prefill) computes exact attention; linear stages stay rank-local.
- **Partial (persistent-KV) prefill** (follow-up turns): identical flow,
  but the cached tokens stay wherever earlier turns placed them and only
  the new tokens are re-sharded (Figure 2); the planner may flip to pass-Q
  at high cache-hit rates.
- **Decode**: one token per sequence per step, assigned round-robin with a
  per-step offset so generated KV spreads across ranks (§3.6), attention by
  batched ring pass-Q decode (Algorithm 4).

All three are one stage pipeline: a round's split
(:class:`~repro.core.sharding.ShardPlan`, load-balanced or round-robin)
runs through one round body, then the round's own logits and commit.

Everything is lockstep-simulated but *numerically real*: the engine's
logits are tested to match a single-device forward of the same model on the
same token history — the paper's "lossless exact" property.
:class:`repro.core.shape_engine.ShapeEngine` keeps this bookkeeping and
drops the numerics, for contexts no test-scale model could compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.heuristics import HeuristicConfig, RingAlgo
from repro.core.planner import PrefillPlan, PrefillPlanner
from repro.core.ring_decode import ring_passq_decode
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.ring_skip import plan_prefill
from repro.core.sharding import SequenceSpec, ShardedQueries, ShardPlan
from repro.distributed.process_group import SimProcessGroup
from repro.kvcache.cache import CacheCapacityError, RankKVCache
from repro.kvcache.prefix_index import PrefixIndex
from repro.model.llama import LlamaModel


@dataclass
class PrefillOutput:
    """Result of one prefill round.

    Attributes:
        logits: per-sequence ``[T_new, vocab]`` logits in position order.
        plan: the planner decision that ran this round.
    """

    logits: dict[int, np.ndarray]
    plan: PrefillPlan

    def last_logits(self, seq_id: int) -> np.ndarray:
        """Logits of the final new token of ``seq_id`` (next-token logits)."""
        return self.logits[seq_id][-1]


@dataclass
class DecodeOutput:
    """Result of one decode step.

    Attributes:
        logits: per-sequence ``[vocab]`` next-token logits.
        assignment: per-sequence owning rank this step.
    """

    logits: dict[int, np.ndarray]
    assignment: dict[int, int]


@dataclass
class KVExport:
    """Position-ordered KV of one sequence, detached from any sharding.

    Produced by :meth:`ContextParallelEngine.export_kv` and consumed by
    :meth:`ContextParallelEngine.import_kv` — the payload of a
    prefill-pool -> decode-pool transfer in the disaggregated serving
    runtime (:mod:`repro.runtime.transfer`). Because every ring algorithm
    is exact for *any* sharding, re-importing this data into an engine of
    a different world size reproduces the source engine's logits.

    Attributes:
        seq_id: the exported sequence.
        start_pos: first absolute position included (delta exports skip
            positions the destination already holds).
        positions: absolute positions, sorted ascending — always the
            contiguous range ``[start_pos, start_pos + tokens)``.
        layers: per-layer ``(k, v)`` arrays aligned with ``positions``.
    """

    seq_id: int
    start_pos: int
    positions: np.ndarray
    layers: list[tuple[np.ndarray, np.ndarray]]

    @property
    def tokens(self) -> int:
        return int(self.positions.size)

    @property
    def end_pos(self) -> int:
        """Context length of the sequence after importing this export."""
        return self.start_pos + self.tokens


class ContextParallelEngine:
    """Multi-turn context-parallel inference over a simulated CP group.

    Args:
        model: the stage-decomposed transformer.
        world_size: number of CP ranks.
        heuristic: hardware constants for the pass-KV/pass-Q selector
            (Algorithm 5); ``None`` plans by miss rate alone.
        capacity_tokens: optional per-rank KV capacity (OOM experiments).
    """

    def __init__(
        self,
        model: LlamaModel,
        world_size: int,
        *,
        heuristic: HeuristicConfig | None = None,
        capacity_tokens: int | None = None,
    ):
        self.model = model
        self.world_size = world_size
        self.group = SimProcessGroup(world_size)
        self.planner = PrefillPlanner(heuristic)
        cfg = model.config
        self.caches = [
            RankKVCache(cfg.n_layers, cfg.n_kv_heads, cfg.head_dim, capacity_tokens=capacity_tokens)
            for _ in range(world_size)
        ]
        self.seq_lengths: dict[int, int] = {}
        self.decode_steps = 0
        # shared-prefix KV reuse (opt-in): radix index over committed
        # token ids plus the per-sequence histories backing it. Tree
        # insertion is deferred out of the commit hot loop: histories
        # marked dirty here are (re)anchored lazily at the next lookup,
        # so a decode step costs O(1) bookkeeping instead of a full
        # root-to-leaf walk per token.
        self.prefix_index: PrefixIndex | None = None
        self._committed: dict[int, list[int]] = {}
        self._index_dirty: set[int] = set()

    # ------------------------------------------------------------------ #
    # prefill (full and partial) and decode: a split, the round body, logits
    # ------------------------------------------------------------------ #

    def prefill(
        self,
        prompts: dict[int, np.ndarray],
        *,
        force_algo: RingAlgo | None = None,
    ) -> PrefillOutput:
        """Run one prefill round over a fused batch of sequences.

        Args:
            prompts: ``{seq_id: new token ids}``. Sequences already known to
                the engine are treated as partial prefill (the new tokens
                extend the cached history); unknown ids start fresh.
            force_algo: override the heuristic (used by benchmarks that
                sweep both variants).

        Returns:
            :class:`PrefillOutput` with per-sequence logits for every new
            token position.
        """
        if not prompts:
            raise ValueError("prefill requires at least one sequence")
        specs, new_ids = [], {}
        for sid, ids in sorted(prompts.items()):
            ids = np.asarray(ids, dtype=np.int64)
            if ids.ndim != 1 or ids.size == 0:
                raise ValueError(f"sequence {sid}: token ids must be a non-empty 1-D array")
            specs.append(SequenceSpec(sid, int(ids.size), self.seq_lengths.get(sid, 0)))
            new_ids[sid] = ids
        plan = self.planner.plan(specs, force_algo=force_algo)
        split = ShardPlan(specs, self.world_size)
        pass_q = plan.algo is not RingAlgo.PASS_KV
        ring = ring_passq_prefill if pass_q else ring_passkv_prefill
        logits = self._prefill_logits(split, self._round(split, new_ids, ring, pass_q=pass_q))
        for spec in specs:
            self.seq_lengths[spec.seq_id] = spec.total_tokens
            self._track_commit(spec.seq_id, spec.cached_tokens, new_ids[spec.seq_id])
        return PrefillOutput(logits=logits, plan=plan)

    def decode(self, tokens: dict[int, int]) -> DecodeOutput:
        """Run one decode step: one new token per listed sequence.

        Args:
            tokens: ``{seq_id: token id}`` — the tokens sampled from the
                previous step's logits. All sequences must have been
                prefetched via :meth:`prefill`.

        Returns:
            :class:`DecodeOutput` with per-sequence next-token logits.
        """
        if not tokens:
            raise ValueError("decode requires at least one sequence")
        sids = sorted(tokens)
        for sid in sids:
            if sid not in self.seq_lengths:
                raise KeyError(f"sequence {sid} has no prefilled context")
        split = self._decode_split(sids)
        ids = {sid: np.array([tokens[sid]], dtype=np.int64) for sid in sids}

        def ring(group, plan, qs, kv_shards):  # (the batch ids are padded at the first layer's call only)
            return ring_passq_decode(group, plan, qs, kv_shards, slots=split.batch_ids())

        logits = self._decode_logits(split, self._round(split, ids, ring, pass_q=True))
        for sid in sids:
            self._track_commit(sid, self.seq_lengths[sid], [tokens[sid]])
            self.seq_lengths[sid] += 1
        self.decode_steps += 1
        assignment = {span.seq_id: rank for rank, spans in enumerate(split.spans) for span in spans}
        return DecodeOutput(logits=logits, assignment=assignment)

    def _decode_split(self, sids: list[int]) -> ShardPlan:
        """The next decode step's round-robin split of ``sids`` (in batch
        order), at the current ``decode_steps`` offset."""
        lengths = self.seq_lengths
        positions = [lengths[sid] if sid in lengths else 0 for sid in sids]
        return ShardPlan.round_robin(sids, positions, self.world_size, self.decode_steps)

    def _round(self, split: ShardPlan, ids: dict[int, np.ndarray], ring, *, pass_q: bool) -> list[np.ndarray]:
        """The stage pipeline of one round, per rank: embed ``split``'s rows
        of ``ids``; then per layer Q/K/V projection and the cache appends,
        ``ring`` attention, the residual and FFN — each rank-local but the
        ring. Returns each rank's hidden rows.

        A round's structure is fixed across its layers, so it is derived
        once: each rank's :class:`ShardedQueries` over the split's
        coordinates, runs and run index, and over them and layer 0's KV
        reads the ring's plan (``plan_prefill``); every later layer's reads
        take layer 0's structure (``like=``) and the ring gets the plan and
        that layer's ``q`` rows. A rank that holds no rows is embedded but
        projects, attends (beyond its share of the ring) and transforms
        nothing.
        """
        cfg = self.model.config
        coords = split.coordinates()
        xs = [self.model.embed(split.take(rank, ids)) for rank in range(self.world_size)]
        held = [rank for rank, spans in enumerate(split.spans) if spans]
        qs = [np.empty((0, cfg.n_heads, cfg.head_dim))] * self.world_size
        ks, vs = qs[:], qs[:]
        for layer in range(cfg.n_layers):
            for rank in held:
                qs[rank], ks[rank], vs[rank] = self.model.attn_qkv(layer, xs[rank], coords[rank][0])
            self._append(layer, split, coords, ks, vs)
            if layer == 0:
                queries = [
                    ShardedQueries(q, pos, seq, split.runs(rank), {span[0]: i for i, span in enumerate(spans)})
                    for rank, (q, (pos, seq), spans) in enumerate(zip(qs, coords, split.spans))
                ]
                kv_shards = kv0 = [cache.get(0, split.seq_ids) for cache in self.caches]
                plan = plan_prefill(queries, kv0, pass_q=pass_q)
            else:
                kv_shards = [cache.get(layer, split.seq_ids, like=kv) for cache, kv in zip(self.caches, kv0)]
            results = ring(self.group, plan, qs, kv_shards)
            for rank in held:
                xs[rank] = self.model.attn_residual(layer, xs[rank], results[rank].out)
                xs[rank] = self.model.ffn_residual(layer, xs[rank])
        return xs

    def _append(self, layer: int, split: ShardPlan, coords, ks: list[np.ndarray], vs: list[np.ndarray]) -> None:
        """Append each rank's rows of one layer's K/V (``ks[rank]``,
        ``vs[rank]``, at ``coords[rank]``'s positions) to its cache, one
        sequence (span) at a time."""
        for cache, spans, k, v, (positions, _) in zip(self.caches, split.spans, ks, vs, coords):
            for sid, lo, hi, _, _ in spans:
                cache.append(layer, sid, k[lo:hi], v[lo:hi], positions[lo:hi])

    def _prefill_logits(self, split: ShardPlan, xs: list[np.ndarray]) -> dict[int, np.ndarray]:
        """Each sequence's ``[T_new, vocab]`` logits in position order: one
        unembed per span, its rows placed by position."""
        logits = {s.seq_id: np.empty((s.new_tokens, self.model.config.vocab_size)) for s in split.specs}
        for rank, (positions, _) in enumerate(split.coordinates()):
            for sid, lo, hi, _, _ in split.spans[rank]:
                rows = positions[lo:hi] - self.context_length(sid)  # still P: committed after
                logits[sid][rows] = self.model.unembed(xs[rank][lo:hi])
        return logits

    def _decode_logits(self, split: ShardPlan, xs: list[np.ndarray]) -> dict[int, np.ndarray]:
        """Each sequence's ``[vocab]`` next-token logits: one unembed per
        rank that holds rows."""
        logits: dict[int, np.ndarray] = {}
        for (_, seq_ids), x in zip(split.coordinates(), xs):
            if seq_ids.size:
                logits.update(zip(seq_ids.tolist(), self.model.unembed(x)))
        return logits

    # ------------------------------------------------------------------ #
    # shared-prefix KV reuse (radix prefix cache)
    # ------------------------------------------------------------------ #

    def enable_prefix_cache(self) -> PrefixIndex:
        """Turn on shared-prefix KV reuse; returns the radix index.

        From this call on, the engine tracks every sequence's committed
        token ids (prefill chunks and decode tokens alike) and anchors
        them in a :class:`repro.kvcache.prefix_index.PrefixIndex` kept in
        lockstep with residency: :meth:`evict` removes the anchor,
        :meth:`evict_tail` trims it, and :meth:`import_kv` — whose
        payload carries no token identity — marks the sequence
        non-donatable. Sequences resident *before* this call are not
        retroactively indexed. Idempotent.
        """
        if self.prefix_index is None:
            self.prefix_index = PrefixIndex()
        return self.prefix_index

    def match_prefix(self, tokens) -> tuple[int, int | None]:
        """Longest resident committed prefix of ``tokens``: ``(len, donor)``.

        ``(0, None)`` when the prefix cache is disabled or nothing
        matches. The donor's first ``len`` committed tokens equal
        ``tokens[:len]`` and are resident on every rank, so
        :meth:`adopt_prefix` can share them.
        """
        if self.prefix_index is None:
            return 0, None
        self._flush_index()
        return self.prefix_index.match(np.asarray(tokens, dtype=np.int64))

    def adopt_prefix(self, seq_id: int, donor_seq: int, length: int) -> int:
        """Start ``seq_id`` from ``donor_seq``'s first ``length`` tokens.

        Every rank's cache references the donor's KV below position
        ``length`` (slab heads borrowed, paged blocks refcount-shared —
        capacity is charged once), and the engine treats the new
        sequence as having ``length`` cached tokens: the next
        :meth:`prefill` of the remaining suffix is an ordinary partial
        prefill, exact for any world size. The adopted tokens anchor
        ``seq_id`` in the index too, so it immediately becomes a donor.

        Returns:
            ``length`` (the adopted token count).

        Raises:
            RuntimeError: prefix cache disabled, or the ranks' caches shard
                the donor's prefix to another token count than ``length``
                (a broken invariant: ``seq_lengths`` would misdescribe them).
            ValueError: ``seq_id`` already resident, or ``length``
                outside the donor's tracked committed history.
        """
        if self.prefix_index is None:
            raise RuntimeError("prefix cache not enabled on this engine")
        if seq_id in self.seq_lengths:
            raise ValueError(f"sequence {seq_id} already has resident KV")
        donor_hist = self._committed.get(donor_seq)
        donor_len = self.seq_lengths.get(donor_seq, 0)
        if donor_hist is None or not 1 <= length <= min(len(donor_hist), donor_len):
            raise ValueError(
                f"cannot adopt {length} tokens from donor {donor_seq} "
                f"(resident {donor_len}, tracked {0 if donor_hist is None else len(donor_hist)})"
            )
        shared = sum(
            cache.share_prefix(donor_seq, seq_id, length) for cache in self.caches
        )
        if shared != length:
            raise RuntimeError(
                f"an adopted prefix must shard to exactly its length: donor {donor_seq}'s "
                f"prefix [0, {length}) shards to {shared} tokens"
            )
        self.seq_lengths[seq_id] = length
        self._committed[seq_id] = list(donor_hist[:length])
        self.prefix_index.insert(
            seq_id, np.asarray(self._committed[seq_id], dtype=np.int64)
        )
        self.prefix_index.touch(donor_seq)
        self.prefix_index.touch(seq_id)
        return length

    def _track_commit(self, seq_id: int, cached_before: int, ids) -> None:
        """Keep the committed-token history and radix anchor in lockstep
        with a KV commit of ``ids`` at positions ``cached_before...``.

        The history list is extended here; the tree insertion itself is
        deferred to :meth:`_flush_index` (run before any lookup) so the
        per-token decode hot loop never pays a tree walk.
        """
        if self.prefix_index is None:
            return
        hist = self._committed.get(seq_id)
        if cached_before == 0:
            hist = list(map(int, ids))
            self._committed[seq_id] = hist
        elif hist is not None and len(hist) == cached_before:
            hist.extend(map(int, ids))
        else:
            # resident KV with unknown token identity (an imported swap /
            # transfer payload): not donatable
            self._committed.pop(seq_id, None)
            self._index_dirty.discard(seq_id)
            self.prefix_index.remove(seq_id)
            return
        self._index_dirty.add(seq_id)

    def _flush_index(self) -> None:
        """Anchor every dirty committed history in the radix tree."""
        if not self._index_dirty:
            return
        for sid in self._index_dirty:
            hist = self._committed.get(sid)
            if hist:
                self.prefix_index.insert(sid, np.asarray(hist, dtype=np.int64))
        self._index_dirty.clear()

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def evict(self, seq_id: int) -> int:
        """Evict ``seq_id`` from every rank; return total tokens freed.

        The serving runtime uses this for capacity-pressure preemption:
        the sequence's KV is dropped everywhere and the engine forgets its
        length, so a later :meth:`prefill` of the full token history
        restores it exactly (the algorithms are exact for any sharding, so
        the resumed sequence's logits match the uninterrupted run).
        """
        freed = sum(cache.drop(seq_id) for cache in self.caches)
        self.seq_lengths.pop(seq_id, None)
        if self.prefix_index is not None:
            self._committed.pop(seq_id, None)
            self._index_dirty.discard(seq_id)
            self.prefix_index.remove(seq_id)
        return freed

    def evict_tail(self, seq_id: int, keep_tokens: int) -> int:
        """Drop cached KV at positions ``>= keep_tokens`` on every rank.

        Partial (tail-trim) eviction for the serving runtime's cheaper
        preemption remedy: the oldest ``keep_tokens`` positions stay
        resident wherever the sharding placed them, and a later partial
        :meth:`prefill` of just the trimmed suffix restores the sequence
        exactly (algorithms are exact for any sharding, so the resumed
        logits match the uninterrupted run). ``keep_tokens == 0``
        degenerates to :meth:`evict`.

        Returns:
            Total tokens freed across ranks.

        Raises:
            ValueError: ``keep_tokens`` outside the committed context.
        """
        length = self.seq_lengths.get(seq_id, 0)
        if not 0 <= keep_tokens <= length:
            raise ValueError(
                f"keep_tokens {keep_tokens} outside committed context [0, {length}]"
            )
        if keep_tokens == 0:
            return self.evict(seq_id)
        freed = sum(cache.drop_tail(seq_id, keep_tokens) for cache in self.caches)
        self.seq_lengths[seq_id] = keep_tokens
        if self.prefix_index is not None:
            hist = self._committed.get(seq_id)
            if hist is not None and len(hist) > keep_tokens:
                del hist[keep_tokens:]
            self.prefix_index.trim(seq_id, keep_tokens)
        return freed

    # ------------------------------------------------------------------ #
    # KV export / import (disaggregated prefill -> decode transfer)
    # ------------------------------------------------------------------ #

    def export_kv(self, seq_id: int, *, start_pos: int = 0) -> KVExport:
        """Extract ``seq_id``'s cached KV at positions ``>= start_pos``.

        Gathers the sequence's K/V across every rank's cache and reorders
        it by absolute position, producing a sharding-independent payload
        a different engine (any world size) can :meth:`import_kv`. A
        ``start_pos`` equal to the context length yields a valid
        zero-token export.

        Raises:
            KeyError: unknown sequence.
            ValueError: ``start_pos`` beyond the committed context, or a
                non-contiguous cache (which would indicate corruption).
        """
        if seq_id not in self.seq_lengths:
            raise KeyError(f"sequence {seq_id} has no cached context to export")
        length = self.seq_lengths[seq_id]
        if not 0 <= start_pos <= length:
            raise ValueError(
                f"start_pos {start_pos} outside committed context [0, {length}]"
            )
        cfg = self.model.config
        n = length - start_pos
        layers: list[tuple[np.ndarray, np.ndarray]] = []
        positions = np.arange(start_pos, length, dtype=np.int64)
        for layer in range(cfg.n_layers):
            ks, vs, ps = [], [], []
            for cache in self.caches:
                shard = cache.get(layer, [seq_id])
                keep = shard.positions >= start_pos
                if not keep.any():
                    continue
                ks.append(shard.k[keep])
                vs.append(shard.v[keep])
                ps.append(shard.positions[keep])
            if ps:
                pos = np.concatenate(ps)
                order = np.argsort(pos, kind="stable")
                if not np.array_equal(pos[order], positions):
                    raise ValueError(
                        f"sequence {seq_id} layer {layer}: cached positions are "
                        f"not the contiguous range [{start_pos}, {length})"
                    )
                k = np.concatenate(ks, axis=0)[order]
                v = np.concatenate(vs, axis=0)[order]
            else:
                if n != 0:
                    raise ValueError(
                        f"sequence {seq_id} layer {layer}: no cached KV despite "
                        f"context length {length}"
                    )
                k = np.zeros((0, cfg.n_kv_heads, cfg.head_dim))
                v = np.zeros((0, cfg.n_kv_heads, cfg.head_dim))
            layers.append((k, v))
        return KVExport(seq_id=seq_id, start_pos=start_pos, positions=positions, layers=layers)

    def import_kv(self, export: KVExport) -> None:
        """Append an exported KV payload to this engine's caches.

        The payload's positions must start exactly where this engine's
        committed context for the sequence ends (delta import). Tokens are
        placed with the same load-balanced sharding a prefill of the same
        ``(new, cached)`` shape would use, so
        :meth:`prefill_token_demand` doubles as the admission predicate
        (check :meth:`fits` before importing).

        Raises:
            ValueError: position mismatch or wrong layer count.
            repro.kvcache.cache.CacheCapacityError: destination pool full
                (raised before any cache is touched — the engine is left
                unchanged, so the caller can free blocks and retry).
        """
        cfg = self.model.config
        sid = export.seq_id
        cached = self.seq_lengths.get(sid, 0)
        if export.start_pos != cached:
            raise ValueError(
                f"sequence {sid}: import starts at {export.start_pos} but this "
                f"engine holds {cached} tokens"
            )
        if len(export.layers) != cfg.n_layers:
            raise ValueError(
                f"export has {len(export.layers)} layers, engine expects {cfg.n_layers}"
            )
        if export.tokens == 0:
            return
        layout = ShardPlan([SequenceSpec(sid, export.tokens, cached)], self.world_size)
        if not self.fits(layout.demand()):
            # checked up-front so a full pool can never leave some ranks
            # mutated: the raise below happens before any cache append
            raise CacheCapacityError(
                f"sequence {sid}: import of {export.tokens} tokens does not "
                "fit this engine's KV pools"
            )
        for rank, spans in enumerate(layout.spans):
            if not spans:
                continue
            positions = layout.take(rank, {sid: export.positions})
            for layer, (k, v) in enumerate(export.layers):
                self.caches[rank].append(
                    layer, sid, layout.take(rank, {sid: k}), layout.take(rank, {sid: v}), positions
                )
        self.seq_lengths[sid] = export.end_pos
        if self.prefix_index is not None:
            # the payload carries KV but no token identity: the sequence
            # is resident yet not donatable, and any stale anchor would
            # misdescribe it
            self._committed.pop(sid, None)
            self._index_dirty.discard(sid)
            self.prefix_index.remove(sid)

    def import_token_demand(self, seq_id: int, tokens: int) -> list[dict[int, int]]:
        """Per-rank KV demand an :meth:`import_kv` of ``tokens`` would add."""
        spec = SequenceSpec(seq_id, tokens, self.context_length(seq_id))
        return self.prefill_token_demand([spec])

    # ------------------------------------------------------------------ #
    # capacity queries (serving-runtime admission control)
    # ------------------------------------------------------------------ #

    def prefill_token_demand(self, specs: list[SequenceSpec]) -> list[dict[int, int]]:
        """Per-rank ``{seq_id: new tokens}`` a prefill round would append.

        Mirrors :meth:`prefill`'s load-balanced sharding without running
        it, so a scheduler can test the round against :meth:`fits` before
        committing.
        """
        return ShardPlan(specs, self.world_size).demand()

    def decode_token_demand(self, seq_ids: list[int]) -> list[dict[int, int]]:
        """Per-rank ``{seq_id: 1}`` the *next* decode step would append:
        the demand of the split :meth:`decode` would make."""
        return self._decode_split(sorted(seq_ids)).demand()

    def fits(self, demands: list[dict[int, int]]) -> bool:
        """Whether per-rank token demands fit every rank's KV pool."""
        if len(demands) != self.world_size:
            raise ValueError(f"expected {self.world_size} per-rank demands, got {len(demands)}")
        return all(
            cache.can_append(demand) for cache, demand in zip(self.caches, demands)
        )

    def kv_block_tokens(self) -> int:
        """Tokens per paged-KV allocator block on each rank.

        The granularity at which tail-trim eviction actually frees pool
        capacity: dropping fewer than one rank's block of tokens only
        opens slack inside the victim's own last block.
        """
        return self.caches[0].block_size

    def cached_tokens(self, seq_id: int) -> list[int]:
        """Per-rank cached token counts for ``seq_id`` (balance diagnostics)."""
        return [cache.tokens(seq_id) for cache in self.caches]

    def kv_utilization(self) -> float | None:
        """Mean claimed fraction of the per-rank KV block pools
        (``None`` when any rank is unbounded). Block-granular, so it
        reflects allocatable pressure; the serving runtime samples it
        after every round for its peak-occupancy metric."""
        utils = [cache.utilization() for cache in self.caches]
        if any(u is None for u in utils):
            return None
        return sum(utils) / len(utils) if utils else 0.0

    def context_length(self, seq_id: int) -> int:
        """Committed context length of ``seq_id``."""
        return self.seq_lengths.get(seq_id, 0)

    def kv_leak_report(self) -> list[str]:
        """Audit KV bookkeeping consistency; returns violations (empty = clean).

        The fault-injection property uses this after a drained run to
        prove that pool resets, sheds, and degraded fallbacks left no
        dangling state behind:

        - every cached sequence id on every rank is tracked in
          ``seq_lengths``, and its per-rank cached tokens sum to the
          tracked length (no orphaned KV, no length drift);
        - with no resident sequences, every bounded rank's paged
          allocator is fully free (no leaked block refcounts);
        - every radix anchor describes a resident sequence, never more
          tokens than are committed, and every pin targets an anchor
          (no dangling donors or stale pins).
        """
        problems: list[str] = []
        for rank, cache in enumerate(self.caches):
            for sid in cache.sequence_ids():
                if sid not in self.seq_lengths:
                    problems.append(f"rank {rank}: orphaned KV for untracked seq {sid}")
            alloc = cache._allocator
            if alloc is not None:
                problems.extend(f"rank {rank}: {p}" for p in alloc.audit())
                if not self.seq_lengths and alloc.used_blocks:
                    problems.append(
                        f"rank {rank}: {alloc.used_blocks} blocks leaked with no "
                        "resident sequences"
                    )
        for sid, length in sorted(self.seq_lengths.items()):
            resident = sum(cache.tokens(sid) for cache in self.caches)
            if resident != length:
                problems.append(
                    f"seq {sid}: ranks hold {resident} tokens but tracked length is {length}"
                )
        if self.prefix_index is not None:
            self._flush_index()
            for sid in self.prefix_index.anchors():
                anchored = self.prefix_index.anchor_length(sid)
                if sid not in self.seq_lengths:
                    problems.append(f"dangling radix anchor for evicted seq {sid}")
                elif anchored > self.seq_lengths[sid]:
                    problems.append(
                        f"seq {sid}: anchor covers {anchored} tokens but only "
                        f"{self.seq_lengths[sid]} are resident"
                    )
            for sid in sorted(self.prefix_index.pins()):
                if sid not in self.prefix_index.anchors():
                    problems.append(f"stale pin on non-anchor seq {sid}")
        return problems
