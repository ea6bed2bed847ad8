"""Figure 7: scaling ratio of CP vs multi-node TP at 128K context.

Scaling ratio = tau_1 / tau_N (single-node latency over N-node latency);
perfect scaling is N. The reproduced claim: CP stays near-linear while TP
plateaus as AllReduce dominates — ~15-40% gap at 2 nodes growing to ~100%+
(2x latency) at 8 nodes.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.workloads.traces import FIG7_CONTEXT, FIG7_NODE_COUNTS


def run() -> ExperimentResult:
    host = gtt_host()
    sim = LatencySimulator(llama3_405b_config(), host)
    base = sim.cp_prefill(FIG7_CONTEXT, n_ranks=1).total

    res = ExperimentResult(
        experiment_id="Figure 7",
        title=f"Scaling ratio at {FIG7_CONTEXT // 1024}K on {host.name}",
        headers=["nodes", "TP TTFT (s)", "CP TTFT (s)", "TP ratio", "CP ratio", "perfect"],
    )
    for n in FIG7_NODE_COUNTS:
        tp = sim.tp_prefill(FIG7_CONTEXT, n_nodes=n).total
        cp = sim.cp_prefill(FIG7_CONTEXT, n_ranks=n).total
        res.add_row(n, tp, cp, base / tp, base / cp, n)
    res.notes.append(
        "Paper: TP-vs-CP latency gap grows from ~15-40% at 2 nodes to ~100% at 8 "
        "(AllReduce exposed on the critical path; Section 4.2.2)."
    )
    return res
