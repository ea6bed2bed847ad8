"""Rotary position embeddings (RoPE).

The model substrate applies RoPE to Q and K projections *before* attention,
using the token's absolute position. Because load-balanced CP sharding
scatters tokens across ranks, each rank applies RoPE locally with the global
positions its shard carries — no communication is needed and the result is
identical to single-device execution. This module is therefore part of the
"lossless exact" test surface: end-to-end CP transformer tests would fail if
positions were mishandled anywhere in the sharding pipeline.

Implements the interleaved-pair rotation used by Llama.
"""

from __future__ import annotations

import numpy as np

#: RoPE base; Llama3 uses 500000.
THETA = 500000.0


def rope_frequencies(head_dim: int) -> np.ndarray:
    """Per-pair inverse frequencies ``[head_dim // 2]`` at base :data:`THETA`.

    Args:
        head_dim: attention head dimension (must be even).
    """
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even for RoPE, got {head_dim}")
    exponents = np.arange(0, head_dim, 2, dtype=np.float64) / head_dim
    return 1.0 / (THETA**exponents)


def rope_rotation(
    positions: np.ndarray, head_dim: int, *, freqs: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(cos, sin)`` of every token's pair angles, ``[T, 1, DH/2]`` each —
    what :func:`apply_rope` derives from ``positions``; a caller rotating
    several tensors by the same positions computes it once."""
    positions = np.asarray(positions, dtype=np.float64)
    if freqs is None:
        freqs = rope_frequencies(head_dim)
    angles = positions[:, None] * freqs[None, :]  # [T, DH/2]
    return np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]


def apply_rope(
    x: np.ndarray,
    positions: np.ndarray,
    *,
    rotation: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Rotate ``[T, H, DH]`` embeddings by their absolute positions.

    Args:
        x: ``[T, H, DH]`` query or key tensor.
        positions: ``[T]`` absolute token positions.
        rotation: precomputed :func:`rope_rotation` of these ``positions``.

    Returns:
        Rotated tensor with the same shape and dtype promoted to float64.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected [T, H, DH], got shape {x.shape}")
    if np.shape(positions)[0] != x.shape[0]:
        raise ValueError(f"positions {np.shape(positions)} must match tokens {x.shape[0]}")
    if rotation is None:
        rotation = rope_rotation(positions, x.shape[-1])
    cos, sin = rotation  # [T, 1, DH/2]

    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out
