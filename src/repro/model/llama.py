"""NumPy Llama-style transformer, stage-decomposed for context parallelism.

The CP engine interleaves *local* per-rank compute with *global* ring
attention, so the model exposes each stage of a block separately:

    x = embed(tokens)
    for layer:
        q, k, v = attn_qkv(layer, x, positions)      # local (includes RoPE)
        attn    = <any exact attention over q/k/v>   # local or ring
        x       = attn_residual(layer, x, attn)      # local
        x       = ffn_residual(layer, x)             # local
    logits = unembed(x)

``forward`` composes the stages with a single-device flash kernel and is the
gold standard the distributed engine is tested against ("lossless exact").

Weights are generated deterministically from a seed at ``1/sqrt(fan_in)``
scale, so any two processes construct bit-identical models. When
``quantize_ffn`` is set the three FFN projections are stored row-wise
quantized (the paper's FP8 serving configuration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.flash import flash_attention
from repro.attention.rope import apply_rope, rope_frequencies, rope_rotation
from repro.model.config import ModelConfig
from repro.model.mlp import swiglu
from repro.model.norms import rms_norm
from repro.model.quant import QuantizedLinear


@dataclass
class _LayerWeights:
    attn_norm: np.ndarray
    wq: np.ndarray  # [D, NH*DH]
    wk: np.ndarray  # [D, NKV*DH]
    wv: np.ndarray  # [D, NKV*DH]
    wo: np.ndarray  # [NH*DH, D]
    ffn_norm: np.ndarray
    w_gate: np.ndarray | QuantizedLinear
    w_up: np.ndarray | QuantizedLinear
    w_down: np.ndarray | QuantizedLinear


def _init(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    return rng.standard_normal(shape) / np.sqrt(fan_in)


class LlamaModel:
    """Deterministic synthetic-weight Llama-family model.

    Args:
        config: architecture (see :mod:`repro.model.config`).
        seed: weight-generation seed; equal seeds give equal models.
        quantize_ffn: store FFN weights row-wise quantized (paper §4.1).
    """

    def __init__(self, config: ModelConfig, *, seed: int = 0, quantize_ffn: bool = False):
        self.config = config
        self.quantize_ffn = quantize_ffn
        rng = np.random.default_rng(seed)
        d, dh = config.model_dim, config.head_dim
        nh, nkv, f = config.n_heads, config.n_kv_heads, config.ffn_dim

        self.embedding = _init(rng, d, (config.vocab_size, d)) * np.sqrt(d)  # unit-scale rows
        self.layers: list[_LayerWeights] = []
        for _ in range(config.n_layers):
            gate = _init(rng, d, (d, f))
            up = _init(rng, d, (d, f))
            down = _init(rng, f, (f, d))
            self.layers.append(
                _LayerWeights(
                    attn_norm=np.ones(d),
                    wq=_init(rng, d, (d, nh * dh)),
                    wk=_init(rng, d, (d, nkv * dh)),
                    wv=_init(rng, d, (d, nkv * dh)),
                    wo=_init(rng, nh * dh, (nh * dh, d)),
                    ffn_norm=np.ones(d),
                    w_gate=QuantizedLinear.from_weights(gate) if quantize_ffn else gate,
                    w_up=QuantizedLinear.from_weights(up) if quantize_ffn else up,
                    w_down=QuantizedLinear.from_weights(down) if quantize_ffn else down,
                )
            )
        self.final_norm = np.ones(d)
        self.unembedding = _init(rng, d, (d, config.vocab_size))
        self._rope_freqs = rope_frequencies(dh, theta=config.rope_theta)

    # ------------------------------- stages ------------------------------ #

    def embed(self, token_ids: np.ndarray) -> np.ndarray:
        """Token embedding lookup: int ``[T]`` -> ``[T, D]``."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 1:
            raise ValueError(f"token_ids must be [T], got {token_ids.shape}")
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.config.vocab_size):
            raise ValueError("token id out of vocabulary range")
        return self.embedding[token_ids]

    def attn_qkv(
        self, layer: int, x: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pre-norm + Q/K/V projections + RoPE for one layer.

        Local to a rank: every input is token-wise. Returns GQA-shaped
        ``q [T, NH, DH]``, ``k [T, NKV, DH]``, ``v [T, NKV, DH]``.
        """
        w = self._layer(layer)
        cfg = self.config
        t = x.shape[0]
        h = rms_norm(x, w.attn_norm)
        q = (h @ w.wq).reshape(t, cfg.n_heads, cfg.head_dim)
        k = (h @ w.wk).reshape(t, cfg.n_kv_heads, cfg.head_dim)
        v = (h @ w.wv).reshape(t, cfg.n_kv_heads, cfg.head_dim)
        rotation = rope_rotation(positions, cfg.head_dim, freqs=self._rope_freqs)  # one cos/sin for q and k
        q = apply_rope(q, positions, rotation=rotation)
        k = apply_rope(k, positions, rotation=rotation)
        return q, k, v

    def attn_residual(self, layer: int, x: np.ndarray, attn_out: np.ndarray) -> np.ndarray:
        """Output projection + residual add: ``x + attn @ Wo``."""
        w = self._layer(layer)
        t = x.shape[0]
        width = self.config.n_heads * self.config.head_dim
        return x + attn_out.reshape(t, width) @ w.wo

    def ffn_residual(self, layer: int, x: np.ndarray) -> np.ndarray:
        """Pre-norm SwiGLU FFN + residual add."""
        w = self._layer(layer)
        h = rms_norm(x, w.ffn_norm)
        gate = w.w_gate.weight if isinstance(w.w_gate, QuantizedLinear) else w.w_gate
        up = w.w_up.weight if isinstance(w.w_up, QuantizedLinear) else w.w_up
        down = w.w_down.weight if isinstance(w.w_down, QuantizedLinear) else w.w_down
        return x + swiglu(h, gate, up, down)

    def unembed(self, x: np.ndarray) -> np.ndarray:
        """Final norm + unembedding: ``[T, D]`` -> ``[T, vocab]`` logits."""
        return rms_norm(x, self.final_norm) @ self.unembedding

    # ----------------------------- single-device ------------------------- #

    def forward(
        self,
        token_ids: np.ndarray,
        *,
        positions: np.ndarray | None = None,
        seq_ids: np.ndarray | None = None,
        block_size: int = 256,
    ) -> np.ndarray:
        """Single-device causal forward pass — the gold standard.

        Args:
            token_ids: ``[T]`` fused token ids.
            positions: absolute positions (default: storage order).
            seq_ids: sequence ids for fused batches (default: one sequence).
            block_size: flash kernel block size.

        Returns:
            ``[T, vocab]`` logits.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        t = token_ids.shape[0]
        if positions is None:
            positions = np.arange(t, dtype=np.int64)
        x = self.embed(token_ids)
        for layer in range(self.config.n_layers):
            q, k, v = self.attn_qkv(layer, x, positions)
            attn = flash_attention(
                q, k, v,
                q_pos=positions, k_pos=positions,
                q_seq=seq_ids, k_seq=seq_ids,
                causal=True, block_size=block_size,
            )
            x = self.attn_residual(layer, x, attn.out)
            x = self.ffn_residual(layer, x)
        return self.unembed(x)

    def _layer(self, layer: int) -> _LayerWeights:
        if not 0 <= layer < self.config.n_layers:
            raise ValueError(f"layer {layer} out of range [0, {self.config.n_layers})")
        return self.layers[layer]
