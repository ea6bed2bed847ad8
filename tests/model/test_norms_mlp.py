"""Tests for RMSNorm and SwiGLU."""

import numpy as np
import pytest

from repro.model.mlp import silu, swiglu
from repro.model.norms import rms_norm


class TestRmsNorm:
    def test_unit_rms_output(self, rng):
        x = rng.standard_normal((5, 32)) * 10
        out = rms_norm(x, np.ones(32))
        rms = np.sqrt(np.mean(out * out, axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-4)

    def test_weight_scales(self, rng):
        x = rng.standard_normal((3, 8))
        w = np.full(8, 2.0)
        np.testing.assert_allclose(rms_norm(x, w), 2 * rms_norm(x, np.ones(8)), atol=1e-12)

    def test_scale_invariance(self, rng):
        """RMSNorm(c * x) == RMSNorm(x) for c > 0 (up to eps)."""
        x = rng.standard_normal((4, 64))
        a = rms_norm(x, np.ones(64))
        b = rms_norm(7.0 * x, np.ones(64))
        np.testing.assert_allclose(a, b, rtol=1e-4)

    def test_tokenwise_independence(self, rng):
        """Each row normalizes independently — why CP needs no comm here."""
        x = rng.standard_normal((6, 16))
        full = rms_norm(x, np.ones(16))
        per_row = np.vstack([rms_norm(x[i : i + 1], np.ones(16)) for i in range(6)])
        np.testing.assert_allclose(full, per_row, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rms_norm(np.zeros((2, 4)), np.zeros(5))
        with pytest.raises(ValueError):
            rms_norm(np.zeros(4), np.zeros(4))


class TestSilu:
    def test_known_values(self):
        assert silu(np.array([0.0]))[0] == 0.0
        assert silu(np.array([100.0]))[0] == pytest.approx(100.0)
        assert silu(np.array([-100.0]))[0] == pytest.approx(0.0, abs=1e-9)

    def test_matches_sigmoid_form(self, rng):
        x = rng.standard_normal(100)
        expected = x / (1.0 + np.exp(-x))
        np.testing.assert_allclose(silu(x), expected, atol=1e-12)


class TestSwiglu:
    def test_shapes(self, rng):
        x = rng.standard_normal((5, 8))
        g = rng.standard_normal((8, 16))
        u = rng.standard_normal((8, 16))
        d = rng.standard_normal((16, 8))
        assert swiglu(x, g, u, d).shape == (5, 8)

    def test_matches_manual(self, rng):
        x = rng.standard_normal((2, 4))
        g = rng.standard_normal((4, 6))
        u = rng.standard_normal((4, 6))
        d = rng.standard_normal((6, 4))
        manual = (silu(x @ g) * (x @ u)) @ d
        np.testing.assert_allclose(swiglu(x, g, u, d), manual, atol=1e-12)

    def test_tokenwise_independence(self, rng):
        x = rng.standard_normal((4, 4))
        g = rng.standard_normal((4, 8))
        u = rng.standard_normal((4, 8))
        d = rng.standard_normal((8, 4))
        full = swiglu(x, g, u, d)
        rows = np.vstack([swiglu(x[i : i + 1], g, u, d) for i in range(4)])
        np.testing.assert_allclose(full, rows, atol=1e-12)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            swiglu(np.zeros((2, 4)), np.zeros((5, 6)), np.zeros((5, 6)), np.zeros((6, 4)))
        with pytest.raises(ValueError):
            swiglu(np.zeros((2, 4)), np.zeros((4, 6)), np.zeros((4, 6)), np.zeros((5, 4)))
