"""Message sizes (paper §3.4, Tables 2-3, Appendix C).

These closed forms give the bytes each ring variant and the TP baseline
move: the latency simulator (:mod:`repro.perf.latency`) prices them, and
the Table 2 and GQA-sensitivity experiments compare them. The overlap
thresholds of Equations 1-3 and 5 live once, on
:class:`repro.core.heuristics.HeuristicConfig`.
"""

from __future__ import annotations

from repro.model.config import ModelConfig

#: Bytes per wire/KV element ``e``: BF16.
ELEMENT_BYTES = 2.0


def q_bytes(config: ModelConfig, new_tokens: int) -> float:
    """Query embedding bytes for ``T`` new tokens: ``T * D * e`` (Table 3)."""
    return new_tokens * config.model_dim * ELEMENT_BYTES


def kv_bytes(
    config: ModelConfig,
    new_tokens: int,
    cached_tokens: int = 0,
    element_bytes: float = ELEMENT_BYTES,
) -> float:
    """Key+value embedding bytes for the full context:
    ``2 * (P + T) * D * (NKV / NH) * e`` (Table 3)."""
    total = new_tokens + cached_tokens
    return 2.0 * total * config.model_dim * (config.n_kv_heads / config.n_heads) * element_bytes


def tp_block_comm_bytes(config: ModelConfig, tokens: int, element_bytes: float = ELEMENT_BYTES) -> float:
    """TP communication per transformer block: two AllReduces of the
    activation, ``2 * T * NH * DH * e`` (Table 2)."""
    return 2.0 * tokens * config.model_dim * element_bytes


def all2all_bytes(config: ModelConfig, new_tokens_per_rank: int, n_ranks: int) -> float:
    """pass-Q output-restore All2All egress per rank (Appendix C):
    ``(N - 1)`` partials of ``(D + 1)`` values per token (output + LSE)."""
    return (n_ranks - 1) * new_tokens_per_rank * (config.model_dim + 1) * ELEMENT_BYTES
