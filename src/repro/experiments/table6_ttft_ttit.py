"""Table 6: TTFT / TTIT for TP8 vs CP2+TP8 across context lengths.

The reproduced trade-off: CP2 roughly halves prefill TTFT at every length
while decode TTIT regresses (~45 ms -> ~65 ms), because decode is weight-
streaming bound (not parallelized by CP) plus ring/All2All latency.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.workloads.traces import TABLE6_CONTEXT_LENGTHS

#: Paper Table 6 (ms): context -> (tp8_ttft, tp8_ttit, cp2_ttft, cp2_ttit)
PAPER_TABLE6 = {
    8192: (1740, 44.51, 999, 65.61),
    32768: (7658, 44.64, 4015, 65.66),
    131072: (42010, 46.26, 21042, 66.63),
}


def run() -> ExperimentResult:
    host = gtt_host()
    sim = LatencySimulator(llama3_405b_config(), host)

    res = ExperimentResult(
        experiment_id="Table 6",
        title="TTFT / TTIT (ms): TP8 vs CP2+TP8, batch 1",
        headers=[
            "context",
            "TP8 TTFT", "TP8 TTIT", "CP2 TTFT", "CP2 TTIT",
            "paper TP8 TTFT", "paper CP2 TTFT",
        ],
    )
    for ctx in TABLE6_CONTEXT_LENGTHS:
        tp_ttft = sim.tp_prefill(ctx, n_nodes=1).total * 1e3
        tp_ttit = sim.tp_decode(ctx, n_nodes=1).total * 1e3
        cp_ttft = sim.cp_prefill(ctx, n_ranks=2).total * 1e3
        cp_ttit = sim.cp_decode(ctx, n_ranks=2).total * 1e3
        paper = PAPER_TABLE6[ctx]
        res.add_row(ctx, tp_ttft, tp_ttit, cp_ttft, cp_ttit, paper[0], paper[2])
    res.notes.append(
        "TTIT is nearly flat in context for both configurations (weight "
        "streaming dominates); CP halves TTFT at the cost of ~20 ms TTIT."
    )
    return res
