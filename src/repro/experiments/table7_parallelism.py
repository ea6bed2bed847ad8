"""Table 7: TTFT / TTIT across parallelization configs at 128K.

CP1/2/4 (+TP8 intra-node) versus TP16/TP32, batch 1. Reproduced claims:
CP scales prefill near-linearly and beats same-node-count TP; decode TTIT
degrades for both (4 nodes can be slower than 1 — §4.3's conclusion that
CP suits prefill and wants a disaggregated serving architecture).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.workloads.traces import TABLE7_CONFIGS

#: Paper Table 7 (ms): label -> (ttft, ttit)
PAPER_TABLE7 = {
    "CP1+TP8": (42010, 46.26),
    "CP2+TP8": (21042, 60.23),
    "TP16": (29917, 39.52),
    "CP4+TP8": (10950, 71.31),
    "TP32": (19841, 47.3),
}

CONTEXT = 131072


def run() -> ExperimentResult:
    host = gtt_host()
    sim = LatencySimulator(llama3_405b_config(), host)

    res = ExperimentResult(
        experiment_id="Table 7",
        title="TTFT / TTIT (ms) at 128K, batch 1",
        headers=["config", "TTFT", "TTIT", "paper TTFT", "paper TTIT"],
    )
    for label, kind, nodes in TABLE7_CONFIGS:
        if kind == "cp":
            ttft = sim.cp_prefill(CONTEXT, n_ranks=nodes).total * 1e3
            ttit = (
                sim.cp_decode(CONTEXT, n_ranks=nodes).total
                if nodes > 1
                else sim.tp_decode(CONTEXT, n_nodes=1).total
            ) * 1e3
        else:
            ttft = sim.tp_prefill(CONTEXT, n_nodes=nodes).total * 1e3
            ttit = sim.tp_decode(CONTEXT, n_nodes=nodes).total * 1e3
        paper = PAPER_TABLE7[label]
        res.add_row(label, ttft, ttit, paper[0], paper[1])
    res.notes.append(
        "Prefill: CP4 ~4x faster than CP1 and ~2x faster than TP32. "
        "Decode: both CP and TP regress when scaled to 4 nodes."
    )
    return res
