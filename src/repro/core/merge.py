"""Merge attention (paper Appendix B, Equation 4).

Each CP rank's queries meet N disjoint KV shards over a ring sweep — one
partial attention result per shard origin ``s``. The exact attention over
the full context is their LSE-weighted combination:

    O = sum_s O_s * exp(LSE_s - LSE_max) / sum_s exp(LSE_s - LSE_max)

Eq. 4 holds for any common shift of the scores, not only ``LSE_max``. At
shift 0 a partial is its unnormalised sums ``acc_s = sum exp(score) * V``
and ``den_s = sum exp(score)`` — what the flash kernel holds before it
divides — and the equation is addition: ``O = sum_s acc_s / sum_s den_s``,
``LSE = log sum_s den_s``. So a ring composes as it goes
(:class:`RunningSum`): each step's float64 sums, range-checked by the
kernel (what :func:`repro.attention.flash.flash_attention` returns), are
added to the rank's running pair, and the rank normalises once. A single
kernel call — the single-device forward's, the all-gather baseline's — is
a ring of one step: :class:`RunningSum` is the one normaliser.

Only a step whose range check failed arrives normalised, as ``(O, LSE)``
from the kernel's shifted sweep; the rank's normalised running sum and
those partials are then merged by :func:`merge_stacked`, Eq. 4 as written —
one float64 reduction down the leading axis of the stacked partials,
mirroring the open-sourced xformers ``merge_attentions`` operator the paper
cites. :func:`merge_partials` is its list-shaped wrapper. Tested against the
recurrence's incremental form (Milakov & Gimelshein 2018), one partial
folded at a time, which the test suite keeps as the oracle.
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


class RunningSum:
    """One rank's ring partials, composed as they arrive.

    :meth:`add` takes what a ring step's kernel call returned: a float64
    sums pair ``(acc [T, NH, DH], den [T, NH])`` is added to the running
    pair — Eq. 4 at shift 0 — and an :class:`AttentionResult`, a step whose
    range check failed, is kept for Eq. 4 at the end. A skipped step is the
    zero pair: it adds nothing (pass-KV does not add it). The running
    pair is summed into in place once it is writable: the first pair is
    taken as is, and a frozen one — a collective delivered it — is copied
    by the first add after it, so a pair handed over writable must not be
    read again.
    """

    __slots__ = ("acc", "den", "shifted")

    def __init__(self, partials=()) -> None:
        self.acc: np.ndarray | None = None
        self.den: np.ndarray | None = None
        self.shifted: list[AttentionResult] = []
        for partial in partials:
            self.add(partial)

    def add(self, partial: AttentionResult | tuple[np.ndarray, np.ndarray]) -> None:
        if isinstance(partial, AttentionResult):
            self.shifted.append(partial)
            return
        acc, den = partial
        if self.acc is None:
            self.acc, self.den = acc, den
        elif self.acc.flags.writeable:
            self.acc += acc
            self.den += den
        else:
            self.acc, self.den = self.acc + acc, self.den + den

    def result(self, tokens: int, n_heads: int, head_dim: int) -> AttentionResult:
        """The rank's exact ``(O, LSE)``: the running sums normalised once
        (over their own ``acc`` when writable), merged through Eq. 4 with
        the shifted partials if there are any; the identity when nothing was
        added."""
        partials = self.shifted
        if self.acc is not None:
            out = self.acc if self.acc.flags.writeable else None
            partials = [AttentionResult.from_sums(self.acc, self.den, out=out), *partials]
        if not partials:
            return AttentionResult.empty(tokens, n_heads, head_dim)
        return merge_partials(partials)
