"""Frozen host-speed probe. DO NOT EDIT after the PR that added it.

``host_cost_per_token`` is reported in units of this loop's wall time, so
a change here silently rescales every host-clock baseline. The loop mixes
what the serving stack's wall time is made of on this kind of box: small
batched BLAS matmuls, elementwise ``exp``/``max`` over the scores, and
interpreter-bound dict writes. Fixed seed, fixed iteration count.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 2700
_DICT_WRITES = 160


class Probe:
    """Holds the probe's fixed operands so a run allocates them once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20250926)
        self.q = rng.standard_normal((2, 64, 16))
        self.kt = rng.standard_normal((2, 16, 128))
        self.v = rng.standard_normal((2, 128, 16))
        self.table: dict[int, float] = {}

    def run(self) -> float:
        """One probe: wall seconds for the fixed loop."""
        q, kt, v, table = self.q, self.kt, self.v, self.table
        start = time.perf_counter()
        acc = 0.0
        for i in range(ITERATIONS):
            scores = np.matmul(q, kt)
            top = scores.max(axis=-1, keepdims=True)
            weights = np.exp(scores - top)
            out = np.matmul(weights, v)
            acc += float(out[0, 0, 0])
            for j in range(_DICT_WRITES):
                table[(i * 31 + j) & 4095] = acc
        return time.perf_counter() - start
