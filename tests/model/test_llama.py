"""Tests for the stage-decomposed NumPy Llama model."""

import numpy as np
import pytest

from repro.model.config import tiny_config
from repro.model.llama import LlamaModel

from helpers import attend


class TestDeterminism:
    def test_same_seed_same_model(self):
        a = LlamaModel(tiny_config(), seed=5)
        b = LlamaModel(tiny_config(), seed=5)
        toks = np.arange(9)
        np.testing.assert_array_equal(a.forward(toks), b.forward(toks))

    def test_different_seed_different_model(self):
        a = LlamaModel(tiny_config(), seed=5)
        b = LlamaModel(tiny_config(), seed=6)
        toks = np.arange(9)
        assert not np.allclose(a.forward(toks), b.forward(toks))


class TestStages:
    def test_stage_composition_equals_forward(self, tiny_model):
        """Manually composing the stage API reproduces forward()."""
        toks = np.arange(14) % tiny_model.config.vocab_size
        pos = np.arange(14)
        x = tiny_model.embed(toks)
        for layer in range(tiny_model.config.n_layers):
            q, k, v = tiny_model.attn_qkv(layer, x, pos)
            attn = attend(q, k, v, q_pos=pos, k_pos=pos)
            x = tiny_model.attn_residual(layer, x, attn.out)
            x = tiny_model.ffn_residual(layer, x)
        logits = tiny_model.unembed(x)
        np.testing.assert_allclose(logits, tiny_model.forward(toks), atol=1e-12)

    def test_qkv_shapes(self, tiny_model):
        cfg = tiny_model.config
        x = tiny_model.embed(np.arange(5))
        q, k, v = tiny_model.attn_qkv(0, x, np.arange(5))
        assert q.shape == (5, cfg.n_heads, cfg.head_dim)
        assert k.shape == v.shape == (5, cfg.n_kv_heads, cfg.head_dim)

    def test_causality(self, tiny_model):
        """Changing a later token never affects earlier logits."""
        toks = np.arange(10) % tiny_model.config.vocab_size
        base = tiny_model.forward(toks)
        changed = toks.copy()
        changed[7] = (changed[7] + 1) % tiny_model.config.vocab_size
        out = tiny_model.forward(changed)
        np.testing.assert_allclose(out[:7], base[:7], atol=1e-12)
        assert not np.allclose(out[7:], base[7:])

    def test_relative_positions_matter(self, tiny_model):
        """RoPE: stretching the position spacing changes logits, while a
        uniform shift (same relative positions) does not."""
        toks = np.arange(6) % tiny_model.config.vocab_size
        a = tiny_model.forward(toks, positions=np.arange(6))
        shifted = tiny_model.forward(toks, positions=np.arange(6) + 50)
        stretched = tiny_model.forward(toks, positions=np.arange(6) * 3)
        np.testing.assert_allclose(shifted, a, atol=1e-9)
        assert not np.allclose(stretched, a)

    def test_fused_sequences_isolated(self, tiny_model):
        v = tiny_model.config.vocab_size
        a = np.arange(5) % v
        b = (np.arange(7) + 2) % v
        fused = np.concatenate([a, b])
        pos = np.concatenate([np.arange(5), np.arange(7)])
        seq = np.concatenate([np.zeros(5, dtype=np.int64), np.ones(7, dtype=np.int64)])
        out = tiny_model.forward(fused, positions=pos, seq_ids=seq)
        np.testing.assert_allclose(out[:5], tiny_model.forward(a), atol=1e-10)
        np.testing.assert_allclose(out[5:], tiny_model.forward(b), atol=1e-10)


class TestValidation:
    def test_token_range(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.embed(np.array([tiny_model.config.vocab_size]))
        with pytest.raises(ValueError):
            tiny_model.embed(np.array([[1, 2]]))

    def test_layer_range(self, tiny_model):
        x = tiny_model.embed(np.arange(3))
        with pytest.raises(ValueError):
            tiny_model.attn_qkv(99, x, np.arange(3))
