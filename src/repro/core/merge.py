"""Merge attention (paper Appendix B, Equation 4).

Each CP rank ends a ring sweep holding N partial attention results
``(O_s, LSE_s)`` for its queries — one per KV shard origin ``s``. The exact
attention over the full context is their LSE-weighted combination:

    O = sum_s O_s * exp(LSE_s - LSE_max) / sum_s exp(LSE_s - LSE_max)

All N partials are in hand by then, so :func:`merge_stacked` evaluates the
equation as written — one float64 reduction down the leading axis of the
stacked partials, mirroring the open-sourced xformers ``merge_attentions``
operator the paper cites. The other axes ride along, so the decode ring
reduces every rank's equal-shaped partials (``[origin, rank, row, ...]``) in
one call; :func:`merge_partials` is the list-shaped wrapper. Tested against
the recurrence's incremental form,
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
    return AttentionResult(
        *merge_stacked(
            np.array([p.out for p in partials], dtype=np.float64),
            np.array([p.lse for p in partials], dtype=np.float64),
        )
    )


def merge_stacked(outs: np.ndarray, lses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equation 4 down axis 0 of float64 partials stacked as ``outs
    [P, ..., DH]`` / ``lses [P, ...]``; returns the merged ``(out, lse)``."""
    m = lses.max(axis=0)
    # rows every partial left empty shift by 0, not by -inf: their weights
    # come out exactly 0 and they keep the identity's O = 0, LSE = -inf
    weights = np.exp(lses - np.where(np.isinf(m), 0.0, m))
    denom = weights.sum(axis=0)
    seen = denom > 0
    den_safe = np.where(seen, denom, 1.0)
    acc = (outs * weights[..., None]).sum(axis=0)
    return (
        np.where(seen[..., None], acc / den_safe[..., None], 0.0),
        np.where(seen, m + np.log(den_safe), -np.inf),
    )


def merge_exchanged(restored: list[list[tuple[np.ndarray, np.ndarray]]]) -> tuple[np.ndarray, np.ndarray]:
    """The decode ring's merge, all ranks at once: ``restored[rank][origin]``
    is the ``(out, lse)`` partial back from the All2All, every one the same
    padded shape — a few rows each, where N calls cost more than they reduce
    (prefill-sized partials merge per rank: stacked, they outgrow the cache).
    Returns ``(out [rank, row, NH, DH], lse [rank, row, NH])``."""
    if len(restored) == 1:  # one rank, one partial: it is the answer
        out, lse = restored[0][0]
        return out[None], lse[None]
    by_origin = list(zip(*restored))
    return merge_stacked(
        np.array([[out for out, _ in ranks] for ranks in by_origin], dtype=np.float64),
        np.array([[lse for _, lse in ranks] for ranks in by_origin], dtype=np.float64),
    )


def merge_attention(outs: list[np.ndarray], lses: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Array-level convenience wrapper around :func:`merge_partials`."""
    if len(outs) != len(lses):
        raise ValueError(f"got {len(outs)} outputs but {len(lses)} LSEs")
    merged = merge_partials([AttentionResult(out=o, lse=l) for o, l in zip(outs, lses)])
    return merged.out, merged.lse
