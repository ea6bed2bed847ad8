"""Ablation: ring pass-KV vs all-gather pass-KV (Llama3-training style).

Both are exact; the difference is *when* the bytes move. The all-gather
completes before any attention starts (fully exposed); the ring overlaps
each hop with a partial-attention step. This ablation runs both on the
numeric simulator to confirm byte-for-byte equal traffic, then uses the
latency model to price the exposure across context lengths.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.allgather_passkv import allgather_passkv_prefill
from repro.core.heuristics import RingAlgo
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_skip import plan_prefill
from repro.core.sharding import SequenceSpec, ShardedKV, ShardedQueries, shard_sequences
from repro.distributed.process_group import SimProcessGroup
from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config
from repro.obs import RecordingTracer, comm_totals
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.perf.roofline import kv_bytes


def traffic_check() -> tuple[int, int]:
    """Numeric run: (ring sendrecv bytes, allgather bytes) for one layer of
    64 tokens on 4 ranks."""
    world, tokens = 4, 64
    rng = np.random.default_rng(0)
    q = rng.standard_normal((tokens, 4, 8))
    k = rng.standard_normal((tokens, 2, 8))
    v = rng.standard_normal((tokens, 2, 8))
    shards = shard_sequences([SequenceSpec(0, tokens)], world)
    queries = [ShardedQueries(q=q[pos], positions=pos, seq_ids=sid) for pos, sid in shards]
    kvs = [ShardedKV(k=k[pos], v=v[pos], positions=pos, seq_ids=sid) for pos, sid in shards]
    ring, gather = RecordingTracer(), RecordingTracer()
    plan = plan_prefill(queries, kvs, pass_q=False)
    ring_passkv_prefill(SimProcessGroup(world, tracer=ring), plan, [s.q for s in queries], kvs)
    allgather_passkv_prefill(SimProcessGroup(world, tracer=gather), queries, kvs)
    return comm_totals(ring.events)["sendrecv"].bytes, comm_totals(gather.events)["allgather"].bytes


def run() -> ExperimentResult:
    host, n_ranks = gtt_host(), 4
    cfg = llama3_405b_config()
    sim = LatencySimulator(cfg, host)

    ring_bytes, ag_bytes = traffic_check()
    res = ExperimentResult(
        experiment_id="Ablation: all-gather",
        title=f"Ring vs all-gather pass-KV exposure, CP{n_ranks}",
        headers=[
            "context", "ring TTFT (s)", "all-gather TTFT (s)", "slowdown %",
            "exposed comm (s)",
        ],
    )
    for ctx in (8192, 32768, 131072, 524288):
        ring = sim.cp_prefill(ctx, n_ranks=n_ranks, algo=RingAlgo.PASS_KV)
        # all-gather: same total KV bytes, zero overlap
        shard = kv_bytes(cfg, ctx, 0, sim.element_bytes) / n_ranks
        gather_time = cfg.n_layers * (
            (n_ranks - 1) * (host.message_latency + shard / host.ring_bandwidth)
        )
        exposed = gather_time  # fully on the critical path
        ag_total = ring.total - ring.exposed_comm + exposed
        # ring keeps only the *unhidden* part; all-gather pays everything
        res.add_row(
            ctx,
            ring.total,
            ag_total,
            100 * (ag_total / ring.total - 1),
            exposed,
        )
    res.notes.append(
        f"Numeric traffic check (world=4, 64 tokens): ring moved {ring_bytes} "
        f"bytes vs all-gather {ag_bytes} - same volume, different exposure."
    )
    res.notes.append(
        "All-gather's exposure is modest for full prefill (attention "
        "dominates) but becomes the entire communication cost for "
        "high-hit-rate partial prefill - the paper's stated reason to "
        "prefer the ring formulation for inference (Section 3.5.2)."
    )
    return res
