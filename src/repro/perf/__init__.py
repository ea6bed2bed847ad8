"""Analytic performance model (roofline + alpha-beta communication).

The paper's evaluation ran on H100 fleets we do not have; its latency
numbers, however, are well explained by the roofline analysis the paper
itself develops in §3.4 and Appendices A/C. This package implements that
analysis as an executable model and calibrates it against the paper's own
measurements (:mod:`repro.perf.hardware` gives each constant's
provenance; ``tests/perf/test_calibration.py`` pins the model to them).
Every table and figure in the evaluation is regenerated from this model by
:mod:`repro.experiments`.

Modules:

- :mod:`repro.perf.hardware` — GPU/host specs for GTT (RDMA) and GTI (TCP)
  with the achieved-rate constants and their calibration provenance.
- :mod:`repro.perf.flops` — GEMM and causal-attention FLOP counting and
  MFU (Appendix A).
- :mod:`repro.perf.roofline` — message sizes (Tables 2-3, Appendix C); the
  overlap thresholds (Equations 1-3, 5) are
  :class:`repro.core.heuristics.HeuristicConfig`'s.
- :mod:`repro.perf.latency` — :class:`LatencySimulator` producing TTFT and
  TTIT with full component breakdowns for CP (pass-KV / pass-Q) and the
  multi-node TP baseline.
- :mod:`repro.perf.breakdown` — structured per-component timing records
  mirroring the paper's Tables 5 and 8.
"""

from repro.perf.breakdown import DecodeLatency, PrefillLatency
from repro.perf.flops import (
    attention_flops,
    attention_pairs,
    gemm_flops,
    mfu,
    model_flops,
    weight_bytes,
)
from repro.perf.hardware import (
    GPUSpec,
    HostSpec,
    gti_host,
    gtt_host,
)
from repro.perf.latency import LatencySimulator
from repro.perf.roofline import (
    kv_bytes,
    q_bytes,
    tp_block_comm_bytes,
)

__all__ = [
    "DecodeLatency",
    "GPUSpec",
    "HostSpec",
    "LatencySimulator",
    "PrefillLatency",
    "attention_flops",
    "attention_pairs",
    "gemm_flops",
    "gti_host",
    "gtt_host",
    "kv_bytes",
    "mfu",
    "model_flops",
    "q_bytes",
    "tp_block_comm_bytes",
    "weight_bytes",
]
