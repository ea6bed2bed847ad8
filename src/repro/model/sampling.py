"""Token sampling from logits."""

from __future__ import annotations

import numpy as np


def sample_greedy(logits: np.ndarray) -> np.ndarray:
    """Argmax sampling. ``logits``: ``[..., vocab]`` -> int64 ``[...]``."""
    logits = np.asarray(logits)
    if logits.ndim < 1:
        raise ValueError("logits must have a vocab axis")
    return np.argmax(logits, axis=-1).astype(np.int64)

