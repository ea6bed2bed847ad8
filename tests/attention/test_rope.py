"""Tests for rotary position embeddings."""

import numpy as np
import pytest

from repro.attention.rope import apply_rope, rope_frequencies, rope_rotation


class TestRopeFrequencies:
    def test_shape_and_range(self):
        freqs = rope_frequencies(16)
        assert freqs.shape == (8,)
        assert freqs[0] == 1.0
        assert np.all(np.diff(freqs) < 0)  # strictly decreasing

    def test_odd_head_dim_raises(self):
        with pytest.raises(ValueError):
            rope_frequencies(15)


class TestApplyRope:
    def test_position_zero_is_identity(self, rng):
        x = rng.standard_normal((4, 2, 8))
        out = apply_rope(x, np.zeros(4))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_norm_preserved(self, rng):
        """Rotation preserves per-pair L2 norms."""
        x = rng.standard_normal((6, 3, 16))
        out = apply_rope(x, np.arange(6) * 1000)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-9
        )

    def test_relative_position_property(self, rng):
        """<RoPE(q, m), RoPE(k, n)> depends only on m - n."""
        q = rng.standard_normal((1, 1, 32))
        k = rng.standard_normal((1, 1, 32))
        def dot(m, n):
            qm = apply_rope(q, np.array([m]))
            kn = apply_rope(k, np.array([n]))
            return float(np.sum(qm * kn))
        assert dot(5, 3) == pytest.approx(dot(105, 103), abs=1e-9)
        assert dot(7, 0) == pytest.approx(dot(1007, 1000), abs=1e-9)

    def test_rotation_composes(self, rng):
        """Rotating by m then n equals rotating by m + n."""
        x = rng.standard_normal((1, 1, 8))
        once = apply_rope(apply_rope(x, np.array([3])), np.array([4]))
        direct = apply_rope(x, np.array([7]))
        np.testing.assert_allclose(once, direct, atol=1e-9)

    def test_precomputed_freqs_match(self, rng):
        x = rng.standard_normal((3, 2, 8))
        pos = np.array([1, 5, 9])
        freqs = rope_frequencies(8)
        np.testing.assert_array_equal(
            apply_rope(x, pos), apply_rope(x, pos, rotation=rope_rotation(pos, 8, freqs=freqs))
        )

    def test_shared_rotation_equals_independent_calls(self, rng):
        """One ``(cos, sin)`` applied to q and k — what ``attn_qkv`` does —
        is bit for bit two independent ``apply_rope`` calls."""
        pos = np.array([0, 3, 511, 2047, 100000])
        freqs = rope_frequencies(8)
        q = rng.standard_normal((5, 8, 8))
        k = rng.standard_normal((5, 2, 8))
        rotation = rope_rotation(pos, 8, freqs=freqs)
        np.testing.assert_array_equal(apply_rope(q, pos, rotation=rotation), apply_rope(q, pos))
        np.testing.assert_array_equal(apply_rope(k, pos, rotation=rotation), apply_rope(k, pos))

    def test_attn_qkv_rotates_q_and_k_as_two_calls_would(self):
        from repro.model.config import tiny_config
        from repro.model.llama import LlamaModel
        from repro.model.norms import rms_norm

        model = LlamaModel(tiny_config(), seed=0)
        cfg = model.config
        pos = np.array([7, 0, 19, 4096])
        x = model.embed(np.arange(4) % cfg.vocab_size)
        q, k, _ = model.attn_qkv(0, x, pos)
        w = model._layer(0)
        h = rms_norm(x, w.attn_norm)
        np.testing.assert_array_equal(
            q, apply_rope((h @ w.wq).reshape(4, cfg.n_heads, cfg.head_dim), pos)
        )
        np.testing.assert_array_equal(
            k, apply_rope((h @ w.wk).reshape(4, cfg.n_kv_heads, cfg.head_dim), pos)
        )

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            apply_rope(rng.standard_normal((3, 8)), np.arange(3))
        with pytest.raises(ValueError):
            apply_rope(rng.standard_normal((3, 2, 8)), np.arange(4))
