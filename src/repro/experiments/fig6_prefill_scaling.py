"""Figure 6: pass-KV full-prefill latency vs context length, CP1-CP8.

Figure 6a runs on GTT (RDMA); Figure 6b on GTI (TCP). The claim being
reproduced: latency halves as CP ranks double for sufficiently long
contexts — on *both* fabrics, because pass-KV SendRecv hides under
attention even at ~3 GB/s/rank (Equation 2).
"""

from __future__ import annotations

from repro.core.heuristics import RingAlgo
from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config
from repro.perf.hardware import HostSpec, gtt_host
from repro.perf.latency import LatencySimulator
from repro.workloads.traces import FIG6_CONTEXT_LENGTHS, FIG6_GTI_RANKS, FIG6_GTT_RANKS

#: Paper Section 4.2.1: seconds to prefill 128K on CP8 over GTT.
PAPER_CP8_128K_S = 5.85

def run(host: HostSpec | None = None) -> ExperimentResult:
    """Regenerate one Figure 6 panel for the given platform."""
    host = host if host is not None else gtt_host()
    ranks = FIG6_GTT_RANKS if host.name == "GTT" else FIG6_GTI_RANKS
    sim = LatencySimulator(llama3_405b_config(), host)

    panel = "6a" if host.name == "GTT" else "6b"
    res = ExperimentResult(
        experiment_id=f"Figure {panel}",
        title=f"pass-KV full prefill latency on {host.name} (s)",
        headers=["context"] + [f"CP{n}" for n in ranks],
    )
    for ctx in FIG6_CONTEXT_LENGTHS:
        row = [ctx]
        for n in ranks:
            row.append(sim.cp_prefill(ctx, n_ranks=n, algo=RingAlgo.PASS_KV).total)
        res.add_row(*row)

    if host.name == "GTT":
        res.notes.append(f"Paper: {PAPER_CP8_128K_S} s for 128K on CP8/GTT (Section 4.2.1).")
    if host.name == "GTI":
        res.notes.append(
            "Paper: GTI scales like GTT up to 4 nodes despite ~3 GB/s/rank "
            "achieved TCP bandwidth (pass-KV comm still hides, Eq. 2)."
        )
    return res
