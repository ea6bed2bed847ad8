"""Core contribution: context-parallel ring attention for inference.

This package implements the paper's primary contribution on top of the
substrates (:mod:`repro.attention`, :mod:`repro.distributed`,
:mod:`repro.kvcache`, :mod:`repro.model`, :mod:`repro.perf`):

- :mod:`repro.core.sharding` — a round's split: load-balanced 2N-chunk
  sharding (§3.5.1) and decode's round-robin placement (§3.6).
- :mod:`repro.core.merge` — merge attention (Appendix B, Eq. 4).
- :mod:`repro.core.ring_skip` — the one ring sweep of Algorithms 2-4, its
  causal shard skip and its per-round plan, behind three adapters:
  :mod:`repro.core.ring_passkv` (Algorithm 2: fused varseq pass-KV
  prefill), :mod:`repro.core.ring_passq` (Algorithm 3: pass-Q prefill)
  and :mod:`repro.core.ring_decode` (Algorithm 4: batched round-robin
  pass-Q decode).
- :mod:`repro.core.heuristics` — Algorithms 1 & 5 and the empirical
  ``h(T, P)`` selector (Appendix D).
- :mod:`repro.core.engine` — the multi-turn context-parallel inference
  engine tying everything together (full prefill -> decode -> partial
  prefill with persistent sharded KV cache).
"""

from repro.core.heuristics import (
    HeuristicConfig,
    RingAlgo,
    select_algo_simple,
    select_algo_with_all2all,
    select_algo_empirical,
)
from repro.core.merge import merge_partials
from repro.core.ring_decode import ring_passq_decode
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.ring_skip import plan_prefill
from repro.core.sharding import (
    ShardedKV,
    ShardedQueries,
    SequenceSpec,
    pad_kv_shards,
    shard_positions,
    shard_sequences,
)

__all__ = [
    "HeuristicConfig",
    "RingAlgo",
    "SequenceSpec",
    "ShardedKV",
    "ShardedQueries",
    "merge_partials",
    "pad_kv_shards",
    "plan_prefill",
    "ring_passkv_prefill",
    "ring_passq_decode",
    "ring_passq_prefill",
    "select_algo_empirical",
    "select_algo_simple",
    "select_algo_with_all2all",
    "shard_positions",
    "shard_sequences",
]
