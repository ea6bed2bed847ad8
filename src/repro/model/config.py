"""Transformer model configurations (paper Table 9).

:class:`ModelConfig` carries both the architectural hyperparameters used by
the NumPy model and the derived quantities the analytic performance model
needs (parameter count, per-token KV bytes, GQA message-size ratios).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelConfig:
    """Llama-family GQA transformer configuration.

    Attributes:
        name: preset name.
        n_layers: transformer blocks.
        model_dim: hidden size ``D``.
        ffn_dim: SwiGLU intermediate size.
        n_heads: query heads ``NH``.
        n_kv_heads: key/value heads ``NKV``.
        vocab_size: vocabulary size.
    """

    name: str
    n_layers: int
    model_dim: int
    ffn_dim: int
    n_heads: int
    n_kv_heads: int
    vocab_size: int = 128256

    def __post_init__(self) -> None:
        if self.model_dim % self.n_heads != 0:
            raise ValueError(
                f"model_dim {self.model_dim} not divisible by n_heads {self.n_heads}"
            )
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError(
                f"n_heads {self.n_heads} not divisible by n_kv_heads {self.n_kv_heads}"
            )
        if self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even for RoPE, got {self.head_dim}")

    @property
    def head_dim(self) -> int:
        """Per-head dimension ``DH = D / NH``."""
        return self.model_dim // self.n_heads

    @property
    def kv_dim(self) -> int:
        """Per-token K (or V) width: ``NKV * DH``."""
        return self.n_kv_heads * self.head_dim

    # -------------------------- parameter counts ------------------------ #

    @property
    def attn_params_per_layer(self) -> int:
        """Q/K/V/O projection parameters of one block."""
        d, dh = self.model_dim, self.head_dim
        return d * self.n_heads * dh + 2 * d * self.n_kv_heads * dh + self.n_heads * dh * d

    @property
    def ffn_params_per_layer(self) -> int:
        """SwiGLU gate/up/down projection parameters of one block."""
        return 3 * self.model_dim * self.ffn_dim

    @property
    def param_count(self) -> int:
        """Total parameters ``W`` (blocks + embeddings + unembedding)."""
        per_layer = self.attn_params_per_layer + self.ffn_params_per_layer
        embeddings = 2 * self.vocab_size * self.model_dim
        return self.n_layers * per_layer + embeddings

    def kv_bytes_per_token(self) -> float:
        """BF16 KV-cache bytes one token adds across all layers."""
        return 2.0 * self.kv_dim * self.n_layers * 2.0


def llama3_405b_config() -> ModelConfig:
    """Llama3 405B (paper Table 9): 126 layers, D=16384, 128 Q / 8 KV heads."""
    return ModelConfig(
        name="llama3-405b",
        n_layers=126,
        model_dim=16384,
        ffn_dim=53248,
        n_heads=128,
        n_kv_heads=8,
    )


def llama3_70b_config() -> ModelConfig:
    """Llama3 70B: used for scale-sensitivity sweeps."""
    return ModelConfig(
        name="llama3-70b",
        n_layers=80,
        model_dim=8192,
        ffn_dim=28672,
        n_heads=64,
        n_kv_heads=8,
    )


def llama3_8b_config() -> ModelConfig:
    """Llama3 8B: small preset for cost-model comparisons."""
    return ModelConfig(
        name="llama3-8b",
        n_layers=32,
        model_dim=4096,
        ffn_dim=14336,
        n_heads=32,
        n_kv_heads=8,
    )


def tiny_config(*, n_layers: int = 2, vocab_size: int = 101) -> ModelConfig:
    """Miniature config for numeric tests (same architecture family): D=64,
    8 Q / 2 KV heads; ``dataclasses.replace`` it for other shapes."""
    return ModelConfig(
        name="tiny",
        n_layers=n_layers,
        model_dim=64,
        ffn_dim=128,
        n_heads=8,
        n_kv_heads=2,
        vocab_size=vocab_size,
    )
