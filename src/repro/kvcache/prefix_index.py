"""Radix prefix index over committed token ids (shared-prefix KV reuse).

Serving traffic is heavily templated — thousands of requests share the
same system prompt or few-shot preamble — and re-prefilling those tokens
for every request prices each prompt as cold. SGLang's RadixAttention and
Mooncake's KVCache-centric store exploit this by indexing *resident* KV
under the token ids that produced it; this module is that index for the
reproduction's engine.

:class:`PrefixIndex` is a compressed radix tree (path-compressed trie)
over token-id strings. Each edge carries a run of token ids; each node
records the *holders* — resident sequences whose committed history covers
the full path through that node. Matching a new prompt walks the tree and
returns the deepest covered length plus a donor sequence whose paged KV
blocks can be shared (:meth:`repro.kvcache.cache.RankKVCache.share_prefix`
/ allocator refcounts); the engine then prefills only the uncached
suffix.

The index is pure bookkeeping over token ids — the KV itself stays in the
per-rank caches, and block lifetime is governed by the allocator's
refcounts. What the index adds on top:

- **anchors**: which sequences are donatable and how many tokens of each
  are indexed (kept in lockstep with the engine's resident KV by
  ``insert`` / ``trim`` / ``remove``);
- **pins**: match consumers pin their donor for the borrowing request's
  lifetime so cache eviction prefers truly unreferenced prefixes;
- **LRU**: a monotonic use-clock per anchor; the serving runtime evicts
  cached residents least-recently-used first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _as_tokens(tokens) -> np.ndarray:
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"token ids must be 1-D, got shape {arr.shape}")
    return arr


def _common_len(a: np.ndarray, b: np.ndarray) -> int:
    n = min(a.size, b.size)
    if n == 0:
        return 0
    neq = np.nonzero(a[:n] != b[:n])[0]
    return int(neq[0]) if neq.size else n


@dataclass
class _Node:
    """One radix-tree node: the edge from its parent plus children.

    ``holders`` are the anchor sequences whose committed history covers
    the full path through this node's edge end. The invariant that makes
    pruning safe: a holder of any descendant is a holder of this node, so
    an empty ``holders`` set empties the whole subtree.
    """

    edge: np.ndarray
    children: dict[int, "_Node"] = field(default_factory=dict)
    holders: set[int] = field(default_factory=set)


class PrefixIndex:
    """Radix tree mapping committed token prefixes to donor sequences."""

    def __init__(self):
        self._root = _Node(edge=np.zeros(0, dtype=np.int64))
        self._lengths: dict[int, int] = {}
        self._pins: dict[int, int] = {}
        self._last_used: dict[int, int] = {}
        self._clock = 0

    # ------------------------------------------------------------------ #
    # anchor maintenance
    # ------------------------------------------------------------------ #

    def insert(self, seq_id: int, tokens) -> None:
        """Anchor ``seq_id``'s committed history (idempotent, extending).

        Re-inserting with a longer history extends the anchor; nodes are
        split wherever histories diverge so every node keeps exact
        holder sets.
        """
        tokens = _as_tokens(tokens)
        if tokens.size == 0:
            return
        self._lengths[seq_id] = max(self._lengths.get(seq_id, 0), int(tokens.size))
        node, i = self._root, 0
        while i < tokens.size:
            child = node.children.get(int(tokens[i]))
            if child is None:
                node.children[int(tokens[i])] = _Node(
                    edge=tokens[i:].copy(), holders={seq_id}
                )
                return
            m = _common_len(child.edge, tokens[i:])
            if m == child.edge.size:
                child.holders.add(seq_id)
                node = child
                i += m
                continue
            # split the child at the divergence (or at the insert's end)
            mid = _Node(
                edge=child.edge[:m].copy(),
                children={int(child.edge[m]): child},
                holders=set(child.holders),
            )
            child.edge = child.edge[m:]
            node.children[int(tokens[i])] = mid
            mid.holders.add(seq_id)
            if i + m < tokens.size:
                rest = tokens[i + m :]
                mid.children[int(rest[0])] = _Node(edge=rest.copy(), holders={seq_id})
            return

    def trim(self, seq_id: int, new_len: int) -> None:
        """Shrink ``seq_id``'s anchored coverage to ``new_len`` tokens.

        Called when the engine tail-trims a resident sequence: prefixes
        beyond the surviving KV must stop matching. A cut mid-edge splits
        the node so other holders keep their full coverage.
        """
        if seq_id not in self._lengths:
            return
        if new_len <= 0:
            self.remove(seq_id)
            return
        if new_len >= self._lengths[seq_id]:
            return
        node, depth = self._root, 0
        while True:
            entry = next(
                (
                    (tok, child)
                    for tok, child in node.children.items()
                    if seq_id in child.holders
                ),
                None,
            )
            if entry is None:
                break
            tok, child = entry
            end = depth + child.edge.size
            if end <= new_len:
                node, depth = child, end
                continue
            if depth < new_len:
                # cut lands mid-edge: keep the upper part anchored
                cut = new_len - depth
                mid = _Node(
                    edge=child.edge[:cut].copy(),
                    children={int(child.edge[cut]): child},
                    holders=set(child.holders),
                )
                child.edge = child.edge[cut:]
                node.children[tok] = mid
                self._strip(mid, int(child.edge[0]), child, seq_id)
            else:
                self._strip(node, tok, child, seq_id)
            break
        self._lengths[seq_id] = new_len

    def remove(self, seq_id: int) -> None:
        """Drop ``seq_id`` as an anchor (its KV left residency).

        Pins survive: they are owned by *borrowers* (each ``pin`` has a
        matching ``unpin`` at the borrowing request's finish), so
        clearing them here would let a borrower's later unpin strip the
        pin protecting a new conversation that reused this seq id. A
        removed-then-reanchored id therefore stays LRU-protected exactly
        while any borrower of either incarnation is still in flight.
        """
        if seq_id not in self._lengths:
            return
        for tok, child in list(self._root.children.items()):
            if seq_id in child.holders:
                self._strip(self._root, tok, child, seq_id)
                break
        del self._lengths[seq_id]
        self._last_used.pop(seq_id, None)

    def _strip(self, parent: _Node, tok: int, node: _Node, seq_id: int) -> None:
        """Remove ``seq_id`` from ``node``'s subtree; prune emptied nodes.

        A sequence's history is a single token string, so it threads at
        most one child at every level.
        """
        node.holders.discard(seq_id)
        for ctok, child in list(node.children.items()):
            if seq_id in child.holders:
                self._strip(node, ctok, child, seq_id)
                break
        if not node.holders:
            del parent.children[tok]

    # ------------------------------------------------------------------ #
    # matching
    # ------------------------------------------------------------------ #

    def match(self, tokens) -> tuple[int, int | None]:
        """Longest indexed prefix of ``tokens``: ``(length, donor_seq)``.

        The donor is the most-recently-used holder covering the match —
        a resident sequence whose first ``length`` committed tokens equal
        ``tokens[:length]``. ``(0, None)`` when nothing matches.
        """
        tokens = _as_tokens(tokens)
        node, i, deepest = self._root, 0, None
        while i < tokens.size:
            child = node.children.get(int(tokens[i]))
            if child is None or not child.holders:
                break
            m = _common_len(child.edge, tokens[i:])
            if m == 0:
                break
            i += m
            deepest = child
            if m < child.edge.size:
                break
            node = child
        if deepest is None:
            return i, None
        # only the deepest edge's holders cover the whole match
        return i, max(deepest.holders, key=lambda s: (self._last_used.get(s, 0), s))

    # ------------------------------------------------------------------ #
    # pins and LRU
    # ------------------------------------------------------------------ #

    def pin(self, seq_id: int) -> None:
        """Protect ``seq_id`` from LRU eviction (refcounted)."""
        self._pins[seq_id] = self._pins.get(seq_id, 0) + 1

    def unpin(self, seq_id: int) -> None:
        """Release one pin; unknown/unpinned sequences are a no-op."""
        count = self._pins.get(seq_id, 0) - 1
        if count <= 0:
            self._pins.pop(seq_id, None)
        else:
            self._pins[seq_id] = count

    def pinned(self, seq_id: int) -> bool:
        return self._pins.get(seq_id, 0) > 0

    def pins(self) -> dict[int, int]:
        """Live pin counts per sequence (diagnostics / leak audits).

        A pin on a sequence no longer in :meth:`anchors` is legal while
        its borrower is mid-adoption, but after a runtime drains — fault
        injection included — every surviving pin must target an anchor;
        the engine's ``kv_leak_report`` checks exactly that.
        """
        return dict(self._pins)

    def touch(self, seq_id: int) -> None:
        """Mark ``seq_id`` used now (monotonic LRU clock)."""
        self._clock += 1
        self._last_used[seq_id] = self._clock

    def last_used(self, seq_id: int) -> int:
        """LRU clock reading for ``seq_id`` (0 = never touched)."""
        return self._last_used.get(seq_id, 0)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def anchors(self) -> list[int]:
        """Every donatable sequence currently indexed."""
        return sorted(self._lengths)

    def anchor_length(self, seq_id: int) -> int:
        """Indexed token count of ``seq_id`` (0 = not an anchor)."""
        return self._lengths.get(seq_id, 0)

    def __contains__(self, seq_id: int) -> bool:
        return seq_id in self._lengths

    def __len__(self) -> int:
        return len(self._lengths)
