"""Figure 8 + Appendix A: million-token TTFT on CP8/CP16 and MFU.

The headline result: exact 1M-token prefill in ~77 s on 128 H100s (CP16),
with ~502 TF/s/GPU achieved = 93% parallelization efficiency vs the
single-GPU FA3 rate and ~63% of the power-limited peak. A note drives the
1M-token prompt through the serving runtime on CP16
(:class:`~repro.core.shape_engine.ShapeEngine`) beside the analytic row.
"""

from __future__ import annotations

import numpy as np

from repro.core.shape_engine import ShapeModel
from repro.experiments.base import ExperimentResult
from repro.experiments.capacity_scaling import max_context_tokens
from repro.experiments.serving_grid import run_grid
from repro.model.config import llama3_405b_config, tiny_config
from repro.perf.flops import achieved_flops_per_gpu, mfu, model_flops
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.runtime import ServeConfig
from repro.workloads.generator import ConversationScript
from repro.workloads.traces import FIG8_CONTEXT_LENGTHS, FIG8_RANKS

#: Paper Figure 8 CP16 TTFT (s) by context.
PAPER_FIG8_CP16_TTFT = {131072: 3.8, 1048576: 77.0}
#: Paper Appendix A, the 1M CP16 run: achieved TF/s per GPU and MFU.
PAPER_FIG8_TF_PER_GPU = 502.0
PAPER_FIG8_MFU = 0.63

def run() -> ExperimentResult:
    host = gtt_host()
    cfg = llama3_405b_config()
    sim = LatencySimulator(cfg, host)

    res = ExperimentResult(
        experiment_id="Figure 8",
        title="TTFT for 128K-1M context on CP8/CP16 (s)",
        headers=["context", "CP8 TTFT", "CP16 TTFT", "CP16 TF/s/GPU", "CP16 MFU"],
    )
    for ctx in FIG8_CONTEXT_LENGTHS:
        ttfts = {n: sim.cp_prefill(ctx, n_ranks=n).total for n in FIG8_RANKS}
        flops = model_flops(cfg, ctx)
        gpus = 16 * host.gpus_per_host
        per_gpu = achieved_flops_per_gpu(flops, ttfts[16], gpus)
        res.add_row(
            ctx,
            ttfts[8],
            ttfts[16],
            per_gpu / 1e12,
            mfu(flops, ttfts[16], gpus, host.gpu.peak_flops),
        )
    fa3 = host.gpu.achieved_attn_flops / 1e12
    res.notes.append(
        f"Paper: {PAPER_FIG8_CP16_TTFT[1048576]:g} s @ 1M and {PAPER_FIG8_CP16_TTFT[131072]:g} s "
        f"@ 128K on CP16; {PAPER_FIG8_TF_PER_GPU:g} TF/s/GPU achieved "
        f"({PAPER_FIG8_TF_PER_GPU / fa3:.0%} parallelization efficiency vs {fa3:g} TF/s "
        f"standalone FA3), ~{PAPER_FIG8_MFU:.0%} MFU."
    )
    res.notes.append(
        "TTFT growth is super-linear beyond 512K as quadratic attention "
        "overtakes GEMM (>2x TTFT per 2x context)."
    )
    # the 1M row again, through the serving runtime: one whole-prompt
    # prefill round on CP16, each rank's KV pool sized by the HBM budget
    ctx, capacity = FIG8_CONTEXT_LENGTHS[-1], max_context_tokens(1, host)
    cell = ServeConfig(world=16, capacity=capacity, chunk=ctx, round_budget=ctx, priced_ranks=16)
    script = ConversationScript(0, [np.zeros(ctx, dtype=np.int64)], [1])
    metrics = run_grid(
        res.experiment_id, [script], {"CP16": cell}, model=ShapeModel(tiny_config()), host=host
    )["CP16"].metrics
    res.notes.append(
        f"Through the serving runtime (ShapeEngine: planner, sharding and paged KV, no "
        f"attention), one {ctx:,}-token prompt on CP16 with {capacity:,} KV tokens per rank "
        f"reaches its first token at {metrics.ttft_samples[0]:.1f} s simulated (paper "
        f"{PAPER_FIG8_CP16_TTFT[ctx]:g} s, analytic {res.rows[-1][2]:.1f} s); its KV fills "
        f"{metrics.peak_kv_utilization['prefill']:.1%} of each rank's pool."
    )
    return res
