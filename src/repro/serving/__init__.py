"""Serving layer: multi-turn sessions, chunked-prefill packing, and metrics.

The paper frames CP inference around multi-turn online messaging (§3.3):
full prefill on the first prompt, auto-regressive decode for the response,
then *partial prefill* for every follow-up against the persistent sharded
KV cache. This package provides that serving loop on top of
:class:`repro.core.engine.ContextParallelEngine`:

- :mod:`repro.serving.request` — turn records.
- :mod:`repro.serving.session` — :class:`ChatSession`, one conversation's
  prefill/decode driver with cache-hit accounting: the only way to run a
  turn outside the runtime, and the sequential reference it is checked
  against.
- :mod:`repro.serving.scheduler` — the chunk-granularity round packing
  (Figure 1's fused varseq rounds) of the one scheduler, the
  continuous-batching runtime (:mod:`repro.runtime`); the paper's
  long-context regime runs through that runtime on
  :class:`repro.core.shape_engine.ShapeEngine`.
- :mod:`repro.serving.metrics` — TTFT/TTIT/cache-hit aggregation and
  preemption/eviction accounting.
"""

from repro.serving.metrics import ServingMetrics
from repro.serving.request import TurnRecord
from repro.serving.scheduler import ChunkAssignment, ChunkedPrefillPolicy
from repro.serving.session import ChatSession

__all__ = [
    "ChatSession",
    "ChunkAssignment",
    "ChunkedPrefillPolicy",
    "ServingMetrics",
    "TurnRecord",
]
