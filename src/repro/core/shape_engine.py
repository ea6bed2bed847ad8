"""Shape-only engine: the paper's context lengths at bookkeeping cost.

:class:`ShapeEngine` is a :class:`~repro.core.engine.ContextParallelEngine`
that stores no K/V and computes no attention, so the continuous-batching
runtime serves 128K-1M-token prompts (Table 6, Figure 8, §4.3) in seconds
of wall time. Its rounds are the numeric engine's ``prefill`` and
``decode``: the real :class:`~repro.core.planner.PrefillPlanner` plan and
the real :class:`~repro.core.sharding.ShardPlan` split, load-balanced for
a prefill round and round-robin for a decode step (§3.6). It overrides
two hooks only: the round body, whose every layer appends the split's
rows through the base body's append — the same positions to the same
per-rank :class:`~repro.kvcache.cache.RankKVCache` and paged allocator as
the numeric engine, with K/V rows of zero width — and plans, rings and
transforms nothing; and the logits. Capacity checks, token demand,
eviction, KV export/import, prefix reuse and the leak audit are the base
class's own code.

Scheduling reads lengths and token ids, never activations, so a runtime
tells the two engines apart only by their tokens. Those come from the
model's token source, ``next_token(seq_id, position)``, as one-hot logit
rows, so greedy sampling needs no branch. The oracle: fed the tokens a
numeric run decoded, a shape-engine run reproduces that run's trace byte
for byte (``tests/runtime/test_golden_traces.py``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

import numpy as np

from repro.core.engine import ContextParallelEngine
from repro.model.config import ModelConfig


class ShapeModel:
    """A model reduced to what scheduling reads: its shape and its tokens.

    Args:
        config: the architecture. Engines keep its layer and KV-head counts
            and its vocabulary; its width is dropped (``model_dim=0``), so
            a K/V row is zero-wide and a cache holds positions only.
        next_token: the token source: ``next_token(seq_id, position)`` is
            the token at ``position`` of ``seq_id``'s stream, given the
            context before it (default: ``position % vocab_size``).
    """

    def __init__(self, config: ModelConfig, next_token: Callable[[int, int], int] | None = None):
        self.config = replace(config, model_dim=0)
        self.next_token = next_token or (lambda seq_id, position: position % config.vocab_size)


class ShapeEngine(ContextParallelEngine):
    """The numeric engine's bookkeeping without K/V or attention.

    Build it on a :class:`ShapeModel` (:func:`build_engine` does). Logits
    hold one one-hot row per sequence, the token source's next token: a
    prefill's is its last new token's, which is all
    :meth:`~repro.core.engine.PrefillOutput.last_logits` reads.
    """

    def _round(self, split, ids, ring, *, pass_q: bool) -> None:
        cfg = self.model.config
        coords = split.coordinates()
        kv = [np.empty((max([len(positions) for positions, _ in coords]), cfg.n_kv_heads, cfg.head_dim))] * len(coords)
        for layer in range(cfg.n_layers):
            self._append(layer, split, coords, kv, kv)

    def _prefill_logits(self, split, xs) -> dict[int, np.ndarray]:
        vocab, token = self.model.config.vocab_size, self.model.next_token
        return {s.seq_id: _one_hot(vocab, token(s.seq_id, s.total_tokens))[None] for s in split.specs}

    def _decode_logits(self, split, xs) -> dict[int, np.ndarray]:
        vocab, token, lengths = self.model.config.vocab_size, self.model.next_token, self.seq_lengths
        # (not yet committed: a decode token's position is its sequence's length)
        return {sid: _one_hot(vocab, token(sid, lengths[sid] + 1)) for sid in split.seq_ids}


def _one_hot(vocab: int, token: int) -> np.ndarray:
    """A ``[vocab]`` logit row that greedy sampling reads as ``token``."""
    row = np.zeros(vocab)
    row[token] = 1.0
    return row


def build_engine(model, world_size: int, *, capacity_tokens: int | None = None) -> ContextParallelEngine:
    """The engine ``model`` runs on: a :class:`ShapeEngine` for a
    :class:`ShapeModel`, the numeric engine for a real model."""
    kind = ShapeEngine if isinstance(model, ShapeModel) else ContextParallelEngine
    return kind(model, world_size, capacity_tokens=capacity_tokens)
