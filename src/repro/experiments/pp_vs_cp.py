"""Extension experiment: CP vs PP — latency vs throughput (paper §1).

Tabulates, for the same number of hosts, what each parallelism buys on a
128K prefill: CP cuts TTFT near-linearly; PP leaves TTFT at single-host
level (plus hand-offs) while multiplying steady-state throughput.
"""

from __future__ import annotations

from repro.baselines.pipeline_parallel import pp_prefill
from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator

CONTEXT = 131072


def run() -> ExperimentResult:
    host = gtt_host()
    cfg = llama3_405b_config()
    sim = LatencySimulator(cfg, host)

    res = ExperimentResult(
        experiment_id="CP vs PP",
        title=f"Latency vs throughput at {CONTEXT // 1024}K, same host count",
        headers=[
            "hosts",
            "CP TTFT (s)", "PP TTFT (s)",
            "CP prefills/s", "PP prefills/s (saturated)",
        ],
    )
    for hosts in (1, 2, 3, 6):
        cp = sim.cp_prefill(CONTEXT, n_ranks=hosts)
        pp = pp_prefill(cfg, host, CONTEXT, stages=hosts, micro_batches=8 * hosts)
        res.add_row(
            hosts,
            cp.total,
            pp.ttft,
            1.0 / cp.total,
            pp.steady_throughput,
        )
    res.notes.append(
        "CP reduces latency (TTFT / hosts); PP leaves TTFT ~flat while "
        "multiplying saturated throughput - the paper's opening contrast "
        "(Section 1, bullet 1) in numbers."
    )
    return res
