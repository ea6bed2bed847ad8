"""Tests for model configurations (paper Table 9)."""

import pytest

from repro.model.config import (
    ModelConfig,
    llama3_405b_config,
    llama3_70b_config,
    llama3_8b_config,
    tiny_config,
)


class TestLlama405B:
    def test_table9_values(self):
        cfg = llama3_405b_config()
        assert cfg.n_layers == 126
        assert cfg.model_dim == 16384
        assert cfg.ffn_dim == 53248
        assert cfg.n_heads == 128
        assert cfg.n_kv_heads == 8
        assert cfg.head_dim == 128
        assert cfg.kv_dim == 1024

    def test_param_count_is_405b(self):
        """Derived parameter count lands on ~405B (Table 9's W)."""
        w = llama3_405b_config().param_count
        assert 3.9e11 < w < 4.2e11

    def test_kv_bytes_per_token(self):
        cfg = llama3_405b_config()
        # 2 (K+V) * 1024 * 126 layers * 2 bytes ~ 516 KB per token
        assert cfg.kv_bytes_per_token() == pytest.approx(2 * 1024 * 126 * 2)


class TestOtherPresets:
    def test_70b(self):
        cfg = llama3_70b_config()
        assert 6e10 < cfg.param_count < 8e10

    def test_8b(self):
        cfg = llama3_8b_config()
        assert 7e9 < cfg.param_count < 9e9

    def test_tiny_architecture_family(self):
        cfg = tiny_config()
        assert cfg.n_heads % cfg.n_kv_heads == 0
        assert cfg.head_dim % 2 == 0


class TestValidation:
    def test_indivisible_heads(self):
        with pytest.raises(ValueError):
            ModelConfig("x", 2, 64, 128, 7, 2)

    def test_indivisible_kv(self):
        with pytest.raises(ValueError):
            ModelConfig("x", 2, 64, 128, 8, 3)

    def test_odd_head_dim(self):
        with pytest.raises(ValueError):
            ModelConfig("x", 2, 72, 128, 8, 2)  # head_dim 9
