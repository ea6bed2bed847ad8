"""RMS normalization (pre-norm, Llama convention)."""

from __future__ import annotations

import numpy as np


#: Numerical floor inside the square root.
EPS = 1e-5


def rms_norm(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Root-mean-square layer norm: ``x / rms(x) * weight``.

    Token-wise and state-free, so CP ranks apply it locally to their token
    shards with no communication.

    Args:
        x: ``[T, D]`` activations.
        weight: ``[D]`` learned scale.
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if x.ndim != 2 or weight.shape != (x.shape[-1],):
        raise ValueError(f"shapes: x{x.shape}, weight{weight.shape}")
    rms = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + EPS)
    return x / rms * weight
