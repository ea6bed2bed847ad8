"""Fully materialized exact GQA attention — the gold standard.

Every distributed algorithm in this repository is tested against this kernel.
It trades memory (it materializes the full ``[Tq, NH, Tk]`` score tensor) for
absolute clarity: scores, masking, softmax and the value contraction are each
one line of NumPy.

The ``*_with_lse`` variant additionally returns the per-(token, head)
log-sum-exp, which is the quantity the ring algorithms communicate (pass-Q)
or accumulate (pass-KV) in order to merge partial results exactly
(paper Appendix B).
"""

from __future__ import annotations

import numpy as np

from repro.attention.gqa import expand_kv_heads, validate_gqa_shapes
from repro.attention.masks import attention_mask


def reference_attention_with_lse(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    q_pos: np.ndarray | None = None,
    k_pos: np.ndarray | None = None,
    q_seq: np.ndarray | None = None,
    k_seq: np.ndarray | None = None,
    scale: float | None = None,
    mask_fn=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact scaled-dot-product GQA attention returning ``(O, LSE)``.

    Args:
        q: ``[Tq, NH, DH]`` queries.
        k: ``[Tk, NKV, DH]`` keys.
        v: ``[Tk, NKV, DH]`` values.
        q_pos / k_pos: absolute positions (default: storage order).
        q_seq / k_seq: sequence ids for fused batches (default: one sequence).
        scale: score scale; default ``1/sqrt(DH)``.
        mask_fn: optional mask override ``(q_pos, k_pos, q_seq, k_seq) ->
            bool [Tq, Tk]`` replacing the default causal mask (e.g. a
            sliding window, or an arbitrary mask under test).

    Returns:
        ``O`` with shape ``[Tq, NH, DH]`` (float64) and ``LSE`` with shape
        ``[Tq, NH]``. Queries with no visible key produce ``O = 0`` and
        ``LSE = -inf``.
    """
    tq, tk, nh, _ = validate_gqa_shapes(q, k, v)
    if tq == 0 or tk == 0:
        return (
            np.zeros((tq, nh, q.shape[-1]), dtype=np.float64),
            np.full((tq, nh), -np.inf, dtype=np.float64),
        )
    if q_pos is None:
        q_pos = np.arange(tq, dtype=np.int64)
    if k_pos is None:
        k_pos = np.arange(tk, dtype=np.int64)

    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])

    if mask_fn is not None:
        mask = np.asarray(mask_fn(q_pos, k_pos, q_seq, k_seq), dtype=bool)
        if mask.shape != (tq, tk):
            raise ValueError(f"mask_fn returned shape {mask.shape}, expected {(tq, tk)}")
    else:
        mask = attention_mask(q_pos, k_pos, q_seq, k_seq)

    qf = np.asarray(q, dtype=np.float64)
    kf = expand_kv_heads(np.asarray(k, dtype=np.float64), nh)
    vf = expand_kv_heads(np.asarray(v, dtype=np.float64), nh)

    # scores[t, h, s] = q[t, h] . k[s, h] * scale — head-batched BLAS matmul
    # (an order of magnitude faster than the equivalent einsum, and the
    # contraction the blocked fused kernel must stay bit-compatible with).
    scores = np.matmul(qf.transpose(1, 0, 2), kf.transpose(1, 2, 0)).transpose(1, 0, 2) * scale
    scores = np.where(mask[:, None, :], scores, -np.inf)

    with np.errstate(invalid="ignore"):
        m = np.max(scores, axis=-1, keepdims=True)
        m_safe = np.where(np.isneginf(m), 0.0, m)
        p = np.exp(scores - m_safe)
        p = np.where(mask[:, None, :], p, 0.0)
        denom = p.sum(axis=-1)
        lse = np.where(denom > 0, m_safe[..., 0] + np.log(np.where(denom == 0, 1.0, denom)), -np.inf)
        out = np.matmul(p.transpose(1, 0, 2), vf.transpose(1, 0, 2)).transpose(1, 0, 2)
        out = np.where(denom[..., None] > 0, out / np.where(denom == 0, 1.0, denom)[..., None], 0.0)
    return out, lse


def reference_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    **kwargs,
) -> np.ndarray:
    """Exact GQA attention output only (see :func:`reference_attention_with_lse`)."""
    out, _ = reference_attention_with_lse(q, k, v, **kwargs)
    return out
