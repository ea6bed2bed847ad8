"""Table 5: per-ring-iteration time breakdown at 2.5% and 10% miss rate.

Reports SendRecv and partial-ATTN per ring iteration (per layer) for both
variants plus pass-Q's All2All — the measurements that explain the
Table 4 crossover: at 2.5% the exposed pass-KV communication
``(N-1) * (SendRecv - ATTN)`` exceeds pass-Q's All2All, flipping the
winner to pass-Q.
"""

from __future__ import annotations

from repro.core.heuristics import RingAlgo
from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.workloads.traces import TABLE4_RANKS, TABLE5_POINTS

#: Paper Table 5 (us): miss -> {algo: (sendrecv, attn, all2all)}
PAPER_TABLE5 = {
    0.025: {"pass-kv": (627.0, 414.0, None), "pass-q": (166.0, 414.0, 424.0)},
    0.100: {"pass-kv": (631.0, 1608.0, None), "pass-q": (544.0, 1608.0, 1023.0)},
}


def run() -> ExperimentResult:
    host = gtt_host()
    cfg = llama3_405b_config()
    sim = LatencySimulator(cfg, host)
    n = TABLE4_RANKS

    res = ExperimentResult(
        experiment_id="Table 5",
        title=f"Ring-iteration breakdown (us), P+T=128000, CP{n}",
        headers=[
            "miss%", "algo", "SendRecv", "ATTN", "All2All",
            "exposed ring comm", "paper SendRecv", "paper All2All",
        ],
    )
    for p, t in TABLE5_POINTS:
        rate = t / (t + p)
        for algo in (RingAlgo.PASS_KV, RingAlgo.PASS_Q):
            r = sim.cp_prefill(t, p, n_ranks=n, algo=algo)
            paper = PAPER_TABLE5[round(rate, 3)][algo.value]
            exposed = (n - 1) * max(0.0, r.sendrecv_per_iter - r.attn_per_iter)
            res.add_row(
                100 * rate,
                algo.value,
                r.sendrecv_per_iter * 1e6,
                r.attn_per_iter * 1e6,
                (r.all2all / cfg.n_layers * 1e6) if algo is RingAlgo.PASS_Q else 0.0,
                exposed * 1e6,
                paper[0],
                paper[2] if paper[2] is not None else 0.0,
            )
    res.notes.append(
        "At 2.5% miss the exposed pass-KV ring communication per layer "
        "exceeds pass-Q's All2All -> pass-Q wins; at 10% SendRecv hides "
        "under ATTN -> pass-KV wins (paper Section 4.2.4)."
    )
    return res
