"""GQA-ratio sensitivity: how the pass-KV advantage depends on NKV/NH.

The pass-KV design leans on GQA's asymmetry (§3.2): KV messages shrink by
``NH / (2 * NKV)`` relative to Q. This extension sweeps the model family —
405B (128/8), 70B (64/8), 8B (32/8), and an MHA variant — and reports:

- Equation (1)'s miss-rate threshold (when KV messages are smaller),
- Equation (2)'s overlap threshold for pass-KV,
- the Table 2 TP/CP per-block traffic ratio,

showing that CP's communication advantage would largely vanish for an MHA
model — a design-space observation the paper implies but never tabulates.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.base import ExperimentResult
from repro.model.config import (
    ModelConfig,
    llama3_405b_config,
    llama3_70b_config,
    llama3_8b_config,
)
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.perf.roofline import kv_bytes, tp_block_comm_bytes


def mha_405b_config() -> ModelConfig:
    """Counterfactual: the 405B architecture with MHA (NKV == NH)."""
    return replace(llama3_405b_config(), name="llama3-405b-mha", n_kv_heads=128)


def run() -> ExperimentResult:
    host, n_ranks, tokens = gtt_host(), 4, 131072
    res = ExperimentResult(
        experiment_id="GQA sensitivity",
        title=f"pass-KV economics vs NKV/NH at T={tokens}, CP{n_ranks}",
        headers=[
            "model", "NH", "NKV",
            "Eq.1 miss threshold", "Eq.2 T threshold",
            "TP/CP traffic ratio",
        ],
    )
    for cfg in (llama3_405b_config(), llama3_70b_config(), llama3_8b_config(), mha_405b_config()):
        sim = LatencySimulator(cfg, host)
        hc = sim.heuristic_config(n_ranks)
        ratio = tp_block_comm_bytes(cfg, tokens) / kv_bytes(cfg, tokens, 0)
        res.add_row(
            cfg.name,
            cfg.n_heads,
            cfg.n_kv_heads,
            hc.kv_message_ratio,
            hc.passkv_overlap_threshold,
            ratio,
        )
    res.notes.append(
        "For MHA (NKV == NH) the Eq.1 threshold reaches 2.0 - KV messages "
        "are never smaller than Q - and the TP/CP traffic ratio collapses "
        "to 1x: CP's comm advantage is a GQA dividend."
    )
    return res
