"""Table 8: decode attention scaling with CP host count.

Decomposes the per-layer decode attention path — individual attention op,
whole ring loop, SendRecv, All2All, whole pass-Q — for 128K batch 1 and
32K batch 4, across CP1/2/4. The reproduced insight: each attention op gets
*faster* (effective context per rank shrinks) while the whole path gets
*slower* (query padding plus ring + All2All latency grow with hosts).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.workloads.traces import TABLE8_SCENARIOS

#: Paper Table 8 (us): (context, batch, ranks) ->
#: (attn_op, attn_ring, sendrecv, all2all, whole)
PAPER_TABLE8 = {
    (131072, 1, 1): (38.9, 38.9, 0.0, 0.0, 38.9),
    (131072, 1, 2): (22.0, 43.2, 32.3, 81.1, 157.7),
    (131072, 1, 4): (14.7, 60.8, 105.7, 79.9, 238.6),
    (32768, 4, 1): (60.1, 60.1, 0.0, 0.0, 60.1),
    (32768, 4, 2): (13.9, 24.5, 33.3, 66.8, 136.6),
    (32768, 4, 4): (9.6, 41.3, 104.9, 72.2, 180.6),
}


def run() -> ExperimentResult:
    host = gtt_host()
    sim = LatencySimulator(llama3_405b_config(), host)

    res = ExperimentResult(
        experiment_id="Table 8",
        title="Decode attention scaling with CP hosts (us per layer)",
        headers=[
            "context", "batch", "ranks", "eff ctx",
            "attn op", "attn ring", "SendRecv", "All2All", "whole pass-Q",
            "paper whole pass-Q",
        ],
    )
    for context, batch, rank_list in TABLE8_SCENARIOS:
        for n in rank_list:
            if n == 1:
                d = sim.tp_decode(context, batch=batch, n_nodes=1)
            else:
                d = sim.cp_decode(context, batch=batch, n_ranks=n)
            paper = PAPER_TABLE8[(context, batch, n)]
            res.add_row(
                context, batch, n, d.effective_context,
                d.attn_op * 1e6, d.attn_ring * 1e6,
                d.sendrecv * 1e6, d.all2all * 1e6, d.whole_attn * 1e6,
                paper[4],
            )
    res.notes.append(
        "Individual attention ops shrink with ranks (less KV per rank) but "
        "whole pass-Q grows: padded queries + latency-bound SendRecv/All2All."
    )
    return res
