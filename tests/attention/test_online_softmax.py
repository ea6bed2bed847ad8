"""Tests for the streaming softmax accumulator."""

import numpy as np
import pytest

from repro.attention.reference import reference_attention_with_lse

from helpers import OnlineSoftmaxState, make_qkv


class TestOnlineSoftmaxState:
    def test_single_update_identity(self, rng):
        out = rng.standard_normal((3, 2, 4))
        lse = rng.standard_normal((3, 2))
        state = OnlineSoftmaxState(out.shape, lse.shape)
        state.update(out, lse)
        got_out, got_lse = state.finalize()
        np.testing.assert_allclose(got_out, out, atol=1e-12)
        np.testing.assert_allclose(got_lse, lse, atol=1e-12)

    def test_empty_state_finalizes_to_zero(self):
        state = OnlineSoftmaxState((2, 2, 4), (2, 2))
        out, lse = state.finalize()
        assert np.all(out == 0)
        assert np.all(np.isneginf(lse))

    def test_neg_inf_partial_is_identity(self, rng):
        out = rng.standard_normal((3, 2, 4))
        lse = rng.standard_normal((3, 2))
        state = OnlineSoftmaxState(out.shape, lse.shape)
        state.update(out, lse)
        state.update(np.zeros_like(out), np.full_like(lse, -np.inf))
        got_out, got_lse = state.finalize()
        np.testing.assert_allclose(got_out, out, atol=1e-12)
        np.testing.assert_allclose(got_lse, lse, atol=1e-12)

    def test_order_invariance(self, rng):
        partials = [
            (rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3)))
            for _ in range(5)
        ]
        a = OnlineSoftmaxState((2, 3, 4), (2, 3))
        b = OnlineSoftmaxState((2, 3, 4), (2, 3))
        for out, lse in partials:
            a.update(out, lse)
        for out, lse in reversed(partials):
            b.update(out, lse)
        out_a, lse_a = a.finalize()
        out_b, lse_b = b.finalize()
        np.testing.assert_allclose(out_a, out_b, atol=1e-10)
        np.testing.assert_allclose(lse_a, lse_b, atol=1e-10)

    def test_chunked_attention_recomposes(self, rng):
        """Splitting the KV range into chunks and folding partials equals
        one full attention — the identity merge attention relies on."""
        q, k, v = make_qkv(rng, 6, 24)
        kpos = np.arange(24)
        full_out, full_lse = reference_attention_with_lse(
            q, k, v, q_pos=np.arange(18, 24), k_pos=kpos
        )
        state = OnlineSoftmaxState(full_out.shape, full_lse.shape)
        for lo in range(0, 24, 5):
            hi = min(lo + 5, 24)
            o, l = reference_attention_with_lse(
                q, k[lo:hi], v[lo:hi], q_pos=np.arange(18, 24), k_pos=kpos[lo:hi]
            )
            state.update(o, l)
        out, lse = state.finalize()
        np.testing.assert_allclose(out, full_out, atol=1e-12)
        np.testing.assert_allclose(lse, full_lse, atol=1e-12)

    def test_extreme_lse_magnitudes(self):
        """Large score offsets must not overflow (the whole point of LSE)."""
        state = OnlineSoftmaxState((1, 1, 2), (1, 1))
        state.update(np.full((1, 1, 2), 1.0), np.array([[1000.0]]))
        state.update(np.full((1, 1, 2), 3.0), np.array([[-1000.0]]))
        out, lse = state.finalize()
        np.testing.assert_allclose(out, np.full((1, 1, 2), 1.0), atol=1e-12)
        assert lse[0, 0] == pytest.approx(1000.0, abs=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OnlineSoftmaxState((2, 3, 4), (3, 2))
        state = OnlineSoftmaxState((2, 3, 4), (2, 3))
        with pytest.raises(ValueError):
            state.update(np.zeros((2, 3, 5)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            state.update(np.zeros((2, 3, 4)), np.zeros((2, 2)))
