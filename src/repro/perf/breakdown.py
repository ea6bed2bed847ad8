"""Structured latency breakdowns mirroring the paper's Tables 5 and 8."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PrefillLatency:
    """TTFT decomposition for one prefill round.

    All times in seconds. Per-iteration fields are per transformer layer and
    per ring step, matching Table 5's reporting granularity.

    Attributes:
        algo: ``"pass-kv"``, ``"pass-q"``, or ``"tp"``.
        n_ranks: CP ranks (or TP nodes for the baseline).
        gemm: total linear-layer time.
        attn: total attention compute time (the rank's share).
        sendrecv_per_iter: one ring step's SendRecv time for one layer.
        attn_per_iter: one ring step's partial-attention time for one layer.
        exposed_comm: ring communication not hidden under attention.
        all2all: pass-Q output-restore All2All total (0 for pass-KV).
        allreduce: TP baseline's exposed AllReduce total (0 for CP).
        overhead: fixed per-layer overheads (norms, RoPE, launches).
        total: TTFT.
    """

    algo: str
    n_ranks: int
    gemm: float
    attn: float
    sendrecv_per_iter: float
    attn_per_iter: float
    exposed_comm: float
    all2all: float
    allreduce: float
    overhead: float
    total: float


@dataclass(frozen=True)
class DecodeLatency:
    """TTIT decomposition for one decode step (Table 8's granularity).

    All times in seconds unless noted. Per-op fields are per layer.

    Attributes:
        algo: ``"pass-q"`` or ``"tp"``.
        n_ranks: CP ranks (or TP nodes).
        effective_context: context length each attention kernel sees.
        weights: HBM weight-streaming time (memory-bound linear layers).
        attn_op: one partial-attention kernel's time.
        attn_ring: the whole ring loop's attention time for one layer.
        sendrecv: per-layer ring SendRecv total (exposed in decode).
        all2all: per-layer output-restore All2All.
        whole_attn: per-layer total attention path (Table 8 "Whole pass-Q").
        overhead: fixed per-layer decode overheads.
        total: TTIT.
    """

    algo: str
    n_ranks: int
    effective_context: int
    weights: float
    attn_op: float
    attn_ring: float
    sendrecv: float
    all2all: float
    whole_attn: float
    overhead: float
    total: float
