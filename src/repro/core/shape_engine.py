"""Shape-only engine: the paper's context lengths at bookkeeping cost.

:class:`ShapeEngine` is a :class:`~repro.core.engine.ContextParallelEngine`
that stores no K/V and computes no attention, so the continuous-batching
runtime serves 128K-1M-token prompts (Table 6, Figure 8, §4.3) in seconds
of wall time. It overrides :meth:`~ShapeEngine.prefill` and
:meth:`~ShapeEngine.decode` only. A prefill round still runs the real
:class:`~repro.core.planner.PrefillPlanner` plan and
:class:`~repro.core.sharding.ShardPlan` split, a decode step the real
round-robin assignment (§3.6), and each appends the same positions to the
same per-rank :class:`~repro.kvcache.cache.RankKVCache` and paged
allocator as the numeric engine — with K/V rows of zero width. Capacity
checks, token demand, eviction, KV export/import, prefix reuse and the
leak audit are the base class's own code.

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

from repro.core.engine import ContextParallelEngine, DecodeOutput, PrefillOutput
from repro.core.ring_decode import round_robin_assignment
from repro.core.sharding import ShardPlan
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
    hold one one-hot row per sequence: a prefill's is its last new
    token's, which is all :meth:`PrefillOutput.last_logits` reads.
    """

    def prefill(self, prompts: dict[int, np.ndarray], *, force_algo=None) -> PrefillOutput:
        cfg = self.model.config
        specs, new_ids = self._prefill_specs(prompts)
        plan = self.planner.plan(specs, force_algo=force_algo)
        layout = ShardPlan(specs, self.world_size)
        for rank, (positions, _) in enumerate(layout.coordinates()):
            for sid, lo, hi, _, _ in layout.spans[rank]:
                kv = np.empty((hi - lo, cfg.n_kv_heads, cfg.head_dim))
                for layer in range(cfg.n_layers):
                    self.caches[rank].append(layer, sid, kv, kv, positions[lo:hi])
        self._commit_prefill(specs, new_ids)
        logits = {
            s.seq_id: np.eye(1, cfg.vocab_size, self.model.next_token(s.seq_id, s.total_tokens))
            for s in specs
        }
        return PrefillOutput(logits=logits, plan=plan)

    def decode(self, tokens: dict[int, int]) -> DecodeOutput:
        cfg = self.model.config
        sids = self._decode_sids(tokens)
        positions = [self.seq_lengths[sid] for sid in sids]
        ranks = round_robin_assignment(len(sids), self.world_size, self.decode_steps).tolist()
        kv = np.empty((1, cfg.n_kv_heads, cfg.head_dim))
        for sid, pos, rank in zip(sids, positions, ranks):
            for layer in range(cfg.n_layers):
                self.caches[rank].append(layer, sid, kv, kv, np.array([pos]))
        self._commit_decode(sids, positions, tokens)
        logits = {
            sid: np.eye(1, cfg.vocab_size, self.model.next_token(sid, pos + 1))[0]
            for sid, pos in zip(sids, positions)
        }
        return DecodeOutput(logits=logits, assignment=dict(zip(sids, ranks)))


def build_engine(model, world_size: int, *, capacity_tokens: int | None = None) -> ContextParallelEngine:
    """The engine ``model`` runs on: a :class:`ShapeEngine` for a
    :class:`ShapeModel`, the numeric engine for a real model."""
    kind = ShapeEngine if isinstance(model, ShapeModel) else ContextParallelEngine
    return kind(model, world_size, capacity_tokens=capacity_tokens)
