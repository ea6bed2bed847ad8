"""Property-based tests: kernels agree under arbitrary custom masks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.flash import flash_attention
from repro.attention.reference import reference_attention_with_lse

from helpers import window_mask_fn

SETTINGS = dict(max_examples=30, deadline=None)


@st.composite
def masked_case(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    t = draw(st.integers(2, 24))
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((t, 4, 8))
    k = rng.standard_normal((t, 2, 8))
    v = rng.standard_normal((t, 2, 8))
    window = draw(st.integers(1, t))
    sinks = draw(st.integers(0, 3))
    block = draw(st.integers(1, t))
    splits = draw(st.integers(1, 4))
    return q, k, v, window, sinks, block, splits


class TestMaskedKernelAgreement:
    @given(masked_case())
    @settings(**SETTINGS)
    def test_flash_equals_reference_under_windowed_mask(self, case):
        """Blocked/split execution is exact for any window/sink mask: the
        mask is evaluated per block in absolute coordinates, so chunking
        cannot change the result."""
        q, k, v, window, sinks, block, splits = case
        fn = window_mask_fn(window, sink_tokens=sinks)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, mask_fn=fn)
        res = flash_attention(q, k, v, mask_fn=fn, block_size=block, num_kv_splits=splits)
        np.testing.assert_allclose(res.out, ref_out, atol=1e-9)
        np.testing.assert_allclose(res.lse, ref_lse, atol=1e-9)

    @given(masked_case())
    @settings(**SETTINGS)
    def test_window_of_t_equals_causal(self, case):
        """A window covering the whole sequence is plain causal attention."""
        q, k, v, _, _, block, _ = case
        t = q.shape[0]
        fn = window_mask_fn(t)
        windowed, _ = reference_attention_with_lse(q, k, v, mask_fn=fn)
        causal, _ = reference_attention_with_lse(q, k, v)
        np.testing.assert_allclose(windowed, causal, atol=1e-12)

    @given(masked_case())
    @settings(**SETTINGS)
    def test_windowed_lse_at_most_causal(self, case):
        """Removing visible keys can only shrink the softmax denominator."""
        q, k, v, window, _, _, _ = case
        fn = window_mask_fn(window)
        _, lse_w = reference_attention_with_lse(q, k, v, mask_fn=fn)
        _, lse_c = reference_attention_with_lse(q, k, v)
        assert np.all(lse_w <= lse_c + 1e-9)
