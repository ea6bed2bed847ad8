"""Baselines the paper compares against.

- :mod:`repro.baselines.allgather_passkv` — the all-gather pass-KV scheme
  used in Llama3 *training* (§3.5.2): gather every rank's KV, then one
  local attention. Exact, but the gather is exposed on the critical path —
  the motivation for the ring formulation.
- :mod:`repro.baselines.pipeline_parallel` — a pipeline-parallel cost
  model (§1's latency-vs-throughput contrast).

Multi-node tensor parallelism (§4.2.2) is a latency model only:
:meth:`repro.perf.latency.LatencySimulator.tp_prefill` (Figure 7).
"""

from repro.baselines.allgather_passkv import allgather_passkv_prefill

__all__ = ["allgather_passkv_prefill"]
