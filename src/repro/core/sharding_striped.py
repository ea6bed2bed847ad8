"""Striped sharding — the alternative load-balancing scheme (ablation).

Striped Attention (Brandon et al. 2023, cited in §3.5.1's related work)
balances causal attention by dealing tokens round-robin across ranks:
token ``t`` goes to rank ``t mod N``. Like the paper's 2N-chunk mirrored
scheme it equalizes both FLOPs and KV bytes; the trade-offs are

- stripes interleave at token granularity, so *every* (rank, KV-shard)
  pair contains work at *every* ring step — good balance, but the causal
  structure cannot be exploited to skip whole blocks;
- chunked layouts keep tokens contiguous, which is what production
  attention kernels (and paged KV caches) want.

This module exists for the sharding ablation: both schemes flow through
the same ring algorithms (position-based masks make them interchangeable)
and the ablation quantifies the balance each achieves.
"""

from __future__ import annotations

import numpy as np


def striped_shard_positions(length: int, world_size: int) -> list[np.ndarray]:
    """Round-robin token assignment: rank ``i`` gets positions ``i, i+N, ...``.

    Args:
        length: tokens being sharded.
        world_size: CP ranks.

    Returns:
        ``world_size`` position arrays partitioning ``[0, length)``.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    positions = np.arange(length, dtype=np.int64)
    return [positions[rank::world_size] for rank in range(world_size)]


def striped_flops_per_rank(length: int, world_size: int) -> np.ndarray:
    """Relative causal-attention work per rank under striping.

    Same metric as :func:`repro.core.sharding.causal_flops_per_rank`:
    sum of ``pos + 1`` over the rank's positions.
    """
    return np.array(
        [float(np.sum(pos + 1)) for pos in striped_shard_positions(length, world_size)]
    )


def striped_imbalance(length: int, world_size: int) -> float:
    """Max-over-mean work ratio for striping (1.0 = perfectly balanced)."""
    work = striped_flops_per_rank(length, world_size)
    return float(work.max() / work.mean())
