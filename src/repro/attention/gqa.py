"""Grouped-query attention (GQA) head bookkeeping.

GQA (Ainslie et al. 2023) shares each key/value head among a *group* of
query heads. The paper leans on this asymmetry heavily: Llama3 405B has
``NH = 128`` query heads but only ``NKV = 8`` KV heads, so KV messages are
16x smaller than Q messages — the reason pass-KV wins for full prefill
(Table 2) and the source of the ``2 * NKV / NH`` threshold in Equation (1).

Tensor convention used across the library (varseq / token-major):

- queries ``q``: ``[T, NH, DH]``
- keys/values ``k``, ``v``: ``[S, NKV, DH]``
"""

from __future__ import annotations

import numpy as np


def expand_kv_heads(kv: np.ndarray, n_heads: int) -> np.ndarray:
    """Broadcast ``[S, NKV, DH]`` KV tensor to ``[S, NH, DH]``.

    Each KV head is repeated ``NH / NKV`` times so that a plain multi-head
    kernel can consume it. Only the fully-materialized reference kernel
    (:mod:`repro.attention.reference`) uses this expanding copy — it is the
    independent oracle the fused kernel is equivalence-tested against.
    :func:`repro.attention.flash.flash_attention` itself reshapes Q to
    ``[Tq, NKV, G, DH]`` and contracts grouped query heads directly against
    the ``[Tk, NKV, DH]`` KV blocks, so no repeated-head tensor is ever
    materialized on the hot path (its legacy ``fused=False`` expand path
    was removed once the fused kernel's equivalence was pinned).
    """
    s, n_kv, dh = kv.shape
    if n_heads % n_kv != 0:
        raise ValueError(f"n_heads={n_heads} not divisible by n_kv_heads={n_kv}")
    group = n_heads // n_kv
    return np.repeat(kv, group, axis=1).reshape(s, n_heads, dh)


def validate_gqa_shapes(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[int, int, int, int]:
    """Validate GQA tensor shapes; return ``(Tq, Tk, NH, NKV)``.

    Raises:
        ValueError: on rank/shape/grouping mismatches.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ValueError(
            f"expected 3-D [tokens, heads, head_dim] tensors, got q{q.shape} k{k.shape} v{v.shape}"
        )
    tq, nh, dh = q.shape
    tk, nkv, dh_k = k.shape
    if k.shape != v.shape:
        raise ValueError(f"k{k.shape} and v{v.shape} must have identical shapes")
    if dh != dh_k:
        raise ValueError(f"head_dim mismatch: q has {dh}, k has {dh_k}")
    if nkv == 0 or nh % nkv != 0:
        raise ValueError(f"query heads ({nh}) must be a positive multiple of kv heads ({nkv})")
    return tq, tk, nh, nkv
