"""FLOP counting and utilization (paper Table 3 and Appendix A).

Two kinds of work dominate transformer inference:

- **GEMM**: ``2 * W`` FLOPs per token for a ``W``-parameter dense model
  (Kaplan et al. 2020).
- **Attention**: ``4`` FLOPs per (query, visible-key) pair per model
  dimension — 2 batched matmuls x (multiply + add). The paper's Appendix A
  folds causality into a global ``1/2``; we count pairs exactly so partial
  prefill (``T`` new tokens over ``P`` cached) is handled uniformly:
  ``pairs = T * P + T * (T + 1) / 2``.
"""

from __future__ import annotations

from repro.model.config import ModelConfig


def attention_pairs(new_tokens: int, cached_tokens: int = 0) -> int:
    """Visible (query, key) pairs for causal attention over ``T`` new tokens
    with ``P`` cached tokens.

    Every new token sees all ``P`` cached tokens plus the causal triangle of
    the new tokens (including itself): ``T * P + T * (T + 1) / 2``.
    """
    t, p = new_tokens, cached_tokens
    if t < 0 or p < 0:
        raise ValueError("token counts must be non-negative")
    return t * p + t * (t + 1) // 2


def attention_flops(config: ModelConfig, new_tokens: int, cached_tokens: int = 0) -> float:
    """Total attention FLOPs across all layers for one prefill.

    ``4 * D * pairs`` per layer (Appendix A's ``1/2 * 4 * B * T^2 * D`` with
    exact pair counting instead of the ``T^2 / 2`` approximation).
    """
    return 4.0 * config.model_dim * attention_pairs(new_tokens, cached_tokens) * config.n_layers


def gemm_flops(config: ModelConfig, tokens: int) -> float:
    """Linear-layer FLOPs: ``2 * W * tokens`` (Appendix A)."""
    if tokens < 0:
        raise ValueError("tokens must be non-negative")
    return 2.0 * config.param_count * tokens


def model_flops(config: ModelConfig, new_tokens: int) -> float:
    """GEMM + attention FLOPs for one full prefill."""
    return gemm_flops(config, new_tokens) + attention_flops(config, new_tokens)


def mfu(total_flops: float, seconds: float, n_gpus: int, peak_flops_per_gpu: float) -> float:
    """Model FLOPs utilization: achieved / peak (Appendix A).

    The paper reports 502 TF/s/GPU achieved for the 1M prefill = 63% of the
    800 TF/s power-limited peak.
    """
    if seconds <= 0 or n_gpus <= 0 or peak_flops_per_gpu <= 0:
        raise ValueError("seconds, n_gpus and peak must be positive")
    return total_flops / seconds / n_gpus / peak_flops_per_gpu


def achieved_flops_per_gpu(total_flops: float, seconds: float, n_gpus: int) -> float:
    """Sustained FLOP/s per GPU for a measured run."""
    if seconds <= 0 or n_gpus <= 0:
        raise ValueError("seconds and n_gpus must be positive")
    return total_flops / seconds / n_gpus


def weight_bytes(config: ModelConfig) -> float:
    """Model weight footprint with mixed precision.

    The paper serves FFN weights in row-wise FP8 (1 byte) and the rest
    (attention projections, embeddings) in BF16 (2 bytes); decode latency is
    dominated by streaming these bytes from HBM every step.
    """
    ffn = config.n_layers * config.ffn_params_per_layer
    other = config.param_count - ffn
    return ffn * 1.0 + other * 2.0  # FP8 FFN, BF16 rest
