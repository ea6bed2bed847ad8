"""Ring-schedule index arithmetic.

All three ring algorithms (pass-KV prefill, pass-Q prefill, pass-Q decode)
share one schedule: at ring step ``j``, rank ``k`` holds the payload that
originated at rank ``(k - j) mod N``, having received it from its previous
neighbour ``(k - 1) mod N`` and about to forward it to ``(k + 1) mod N``.
The one ring sweep (:func:`repro.core.ring_skip.ring_sweep`) runs it, and
the tests hold it to this arithmetic as their single oracle.
"""

from __future__ import annotations


def source_rank_at_step(rank: int, step: int, world_size: int) -> int:
    """Origin rank of the payload held by ``rank`` at ring step ``step``.

    Step 0 is the local payload; after ``world_size - 1`` shifts every rank
    has seen every origin exactly once (paper Algorithms 2-4: ``s = (k - j)
    mod N``).
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} out of range [0, {world_size})")
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return (rank - step) % world_size
