"""KV-capacity scaling with CP ranks (paper motivation #3, §1 and §4.2.3).

CP distributes KV storage, so aggregate cache capacity — and therefore the
maximum servable context — grows linearly with ranks. This experiment
computes the max context per CP rank count for Llama3 405B (HBM budget
after FP8 weights and activations) and demonstrates, on the numeric
engine, that round-robin decode postpones the OOM a pinned-decode scheme
hits early (§3.6).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.kvcache.cache import CacheCapacityError, RankKVCache
from repro.model.config import llama3_405b_config
from repro.perf.flops import weight_bytes
from repro.perf.hardware import HostSpec, gtt_host


#: Share of each host's HBM held back for activations.
ACTIVATION_RESERVE = 0.15


def max_context_tokens(n_ranks: int, host: HostSpec) -> int:
    """Max single-sequence context a CP deployment can cache in bf16 KV.

    Per rank: HBM minus FP8 weights minus an activation reserve, divided by
    per-token KV bytes; aggregate = per-rank * N (load-balanced sharding
    splits every sequence evenly).
    """
    cfg = llama3_405b_config()
    hbm = host.gpus_per_host * host.gpu.hbm_capacity
    weights = weight_bytes(cfg)  # FP8 FFN + BF16 rest, TP-sharded across the host
    budget = (1.0 - ACTIVATION_RESERVE) * hbm - weights
    if budget <= 0:
        return 0
    return int(budget / cfg.kv_bytes_per_token()) * n_ranks


def decode_oom_comparison() -> tuple[int, int]:
    """Numeric §3.6 demonstration: decode steps until OOM on 4 ranks of 64
    KV tokens each.

    Returns ``(pinned_steps, round_robin_steps)`` — how many single-token
    appends fit before a rank overflows when decode KV always lands on rank
    0 versus rotating round-robin.
    """
    capacity_per_rank, world = 64, 4

    def run(round_robin: bool) -> int:
        caches = [
            RankKVCache(1, 1, 4, capacity_tokens=capacity_per_rank, block_size=4)
            for _ in range(world)
        ]
        k = np.zeros((1, 1, 4))
        steps = 0
        while True:
            rank = (steps % world) if round_robin else 0
            try:
                caches[rank].append(0, 0, k, k, np.array([steps]))
            except CacheCapacityError:
                return steps
            steps += 1
            if steps > capacity_per_rank * world + 1:
                return steps

    return run(False), run(True)


def run() -> ExperimentResult:
    host = gtt_host()
    res = ExperimentResult(
        experiment_id="Capacity scaling",
        title="Max cacheable context vs CP ranks (Llama3 405B)",
        headers=["ranks", "GPUs", "max context (bf16 KV)"],
    )
    for n in (1, 2, 4, 8, 16):
        res.add_row(n, n * host.gpus_per_host, max_context_tokens(n, host))
    pinned, rr = decode_oom_comparison()
    res.notes.append(
        "bf16 KV crosses 1M at 4 ranks in this single-sequence budget; the "
        "paper operates 1M on 8-16 nodes (§4.2.3), which additionally "
        "provisions for batching and latency, not just capacity."
    )
    res.notes.append(
        f"§3.6 numeric check: pinned decode OOMs after {pinned} steps; "
        f"round-robin sustains {rr} (full aggregate capacity)."
    )
    return res
