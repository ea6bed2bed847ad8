"""Streaming (online) softmax accumulation.

This is the numerical core of merge attention (paper Appendix B). Given
partial attention results computed against disjoint key/value chunks, each
carrying a log-sum-exp (LSE), the exact attention over the union of the
chunks is recovered by LSE-weighted averaging — Equation (4) of the paper:

    O = sum_s O_s * exp(LSE_s - LSE_max) / sum_s exp(LSE_s - LSE_max)

The accumulator below evaluates it *incrementally*, one partial per fold
with O(1) extra memory. It is the recurrence's reference form: the blocked
kernel (:mod:`repro.attention.flash`) folds its second and later KV blocks
with the same arithmetic inlined and its split-KV partials through this
class, and :func:`repro.core.merge.merge_partials`, which has all N ring
partials in hand and reduces them in one shot, is tested against it.

Empty partials are represented by ``LSE = -inf`` and ``O = 0`` and are
absorbed as identity elements, which is what a causal shard with no visible
keys produces; ``update`` returns early on one without touching the state.
"""

from __future__ import annotations

import numpy as np


class OnlineSoftmaxState:
    """Incremental merge state for partial attention outputs.

    The state tracks, per (token, head): the running max LSE ``m``, the
    running denominator ``denom = sum_s exp(LSE_s - m)`` and the running
    numerator ``acc = sum_s O_s * exp(LSE_s - m)``. ``finalize`` returns
    ``acc / denom`` and the combined LSE ``m + log(denom)``.

    All arithmetic is done in float64 regardless of input dtype so that the
    "lossless exact" property of the ring algorithms is limited only by the
    final cast. Partials computed in a lower precision (e.g. ``float32``
    kernel compute) are promoted element-wise during the fold, giving the
    fp32-compute / fp64-merge-accumulate split without extra copies.
    """

    def __init__(self, out_shape: tuple[int, ...], lse_shape: tuple[int, ...]):
        if out_shape[: len(lse_shape)] != lse_shape:
            raise ValueError(f"lse shape {lse_shape} must prefix output shape {out_shape}")
        self._acc = np.zeros(out_shape, dtype=np.float64)
        self._m = np.full(lse_shape, -np.inf, dtype=np.float64)
        self._denom = np.zeros(lse_shape, dtype=np.float64)

    def update(self, partial_out: np.ndarray, partial_lse: np.ndarray) -> None:
        """Fold one partial attention result into the state, in place.

        Args:
            partial_out: ``[..., DH]`` partial output ``O_s``.
            partial_lse: ``[...]`` log-sum-exp of the partial scores.
        """
        partial_out = np.asarray(partial_out)
        partial_lse = np.asarray(partial_lse)
        if partial_out.shape != self._acc.shape:
            raise ValueError(f"partial out shape {partial_out.shape} != {self._acc.shape}")
        if partial_lse.shape != self._m.shape:
            raise ValueError(f"partial lse shape {partial_lse.shape} != {self._m.shape}")

        # Fast path: an empty partial (all LSE = -inf, e.g. a fully-masked
        # causal shard) is the identity element of the recurrence.
        if np.all(np.isneginf(partial_lse)):
            return

        new_m = np.maximum(self._m, partial_lse)
        # Identity when both sides are empty (-inf): keep zeros. ``safe_m``
        # is always finite, so ``x - safe_m`` is -inf exactly when x is.
        safe_m = np.where(np.isinf(new_m), 0.0, new_m)
        old_scale = np.exp(self._m - safe_m)
        new_scale = np.exp(partial_lse - safe_m)
        self._acc *= old_scale[..., None]
        self._acc += partial_out * new_scale[..., None]
        self._denom *= old_scale
        self._denom += new_scale
        self._m = new_m

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(O, LSE)`` for the union of all folded partials.

        Tokens that never saw a valid key come back as zero output with
        ``LSE = -inf`` (matching the empty-partial convention).
        """
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(self._denom[..., None] > 0, self._acc / np.where(self._denom == 0.0, 1.0, self._denom)[..., None], 0.0)
            lse = np.where(self._denom > 0, self._m + np.log(np.where(self._denom == 0.0, 1.0, self._denom)), -np.inf)
        return out, lse
