"""Attention substrate: exact GQA attention kernels used by context parallelism.

This package provides the single-device attention building blocks that the
ring algorithms in :mod:`repro.core` are built on:

- :mod:`repro.attention.masks` — position/sequence-id based causal masks that
  stay correct under arbitrary token permutations (load-balanced sharding
  reorders tokens, so masks must be derived from absolute positions rather
  than storage order).
- :mod:`repro.attention.reference` — a fully materialized, easy-to-audit
  exact GQA attention. This is the gold standard every other kernel and the
  distributed algorithms are tested against.
- :mod:`repro.attention.flash` — a blocked online-softmax kernel over a
  planned layout (:func:`attention_layout`) that returns the shift-free
  sums behind ``(O, LSE)``, mirroring the FlashAttention-3 / Flash-Decoding
  contract the paper relies on for partial-attention merging (Eq. 4 and
  the one normaliser, ``RunningSum``, are :mod:`repro.core.merge`).
- :mod:`repro.attention.rope` — rotary position embeddings applied by the
  model substrate before attention.
- :mod:`repro.attention.gqa` — grouped-query-attention head bookkeeping.
"""

from repro.attention.flash import AttentionResult, attention_layout, flash_attention
from repro.attention.gqa import expand_kv_heads, validate_gqa_shapes
from repro.attention.masks import attention_mask, causal_mask
from repro.attention.reference import reference_attention, reference_attention_with_lse
from repro.attention.rope import apply_rope, rope_frequencies, rope_rotation

__all__ = [
    "AttentionResult",
    "apply_rope",
    "attention_layout",
    "attention_mask",
    "causal_mask",
    "expand_kv_heads",
    "flash_attention",
    "reference_attention",
    "reference_attention_with_lse",
    "rope_frequencies",
    "rope_rotation",
    "validate_gqa_shapes",
]
