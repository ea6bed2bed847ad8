"""Merge attention (paper Appendix B, Equation 4).

Each CP rank ends a ring sweep holding N partial attention results
``(O_s, LSE_s)`` for its queries — one per KV shard origin ``s``. The exact
attention over the full context is their LSE-weighted combination:

    O = sum_s O_s * exp(LSE_s - LSE_max) / sum_s exp(LSE_s - LSE_max)

All N partials are in hand by then, so :func:`merge_partials` evaluates the
equation as written — one stacked float64 reduction, mirroring the
open-sourced xformers ``merge_attentions`` operator the paper cites — and
is tested against the incremental form of the same recurrence,
:class:`repro.attention.online_softmax.OnlineSoftmaxState`.
"""

from __future__ import annotations

import numpy as np

from repro.attention.flash import AttentionResult


def merge_partials(partials: list[AttentionResult]) -> AttentionResult:
    """Merge partial attention results over disjoint KV shards.

    Args:
        partials: non-empty list of :class:`AttentionResult` computed for the
            *same* queries against disjoint key/value sets. Empty partials
            (``LSE = -inf``) are valid and act as identity elements.

    Returns:
        Exact combined :class:`AttentionResult`; a single float64 partial
        is returned as is.

    Raises:
        ValueError: on empty input or shape mismatches between partials.
    """
    if not partials:
        raise ValueError("merge_partials requires at least one partial result")
    first = partials[0]
    for partial in partials[1:]:
        if partial.out.shape != first.out.shape or partial.lse.shape != first.lse.shape:
            raise ValueError(
                f"partial shapes differ: {partial.out.shape}/{partial.lse.shape} "
                f"vs {first.out.shape}/{first.lse.shape}"
            )
    if len(partials) == 1 and first.out.dtype == first.lse.dtype == np.float64:
        return first
    outs = np.array([p.out for p in partials], dtype=np.float64)
    lses = np.array([p.lse for p in partials], dtype=np.float64)
    m = lses.max(axis=0)
    # rows every partial left empty shift by 0, not by -inf: their weights
    # come out exactly 0 and they keep the identity's O = 0, LSE = -inf
    weights = np.exp(lses - np.where(np.isinf(m), 0.0, m))
    denom = weights.sum(axis=0)
    seen = denom > 0
    den_safe = np.where(seen, denom, 1.0)
    acc = (outs * weights[..., None]).sum(axis=0)
    return AttentionResult(
        out=np.where(seen[..., None], acc / den_safe[..., None], 0.0),
        lse=np.where(seen, m + np.log(den_safe), -np.inf),
    )


def merge_attention(outs: list[np.ndarray], lses: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Array-level convenience wrapper around :func:`merge_partials`."""
    if len(outs) != len(lses):
        raise ValueError(f"got {len(outs)} outputs but {len(lses)} LSEs")
    merged = merge_partials([AttentionResult(out=o, lse=l) for o, l in zip(outs, lses)])
    return merged.out, merged.lse
