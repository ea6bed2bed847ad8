"""Tests for the public validation utilities."""

import numpy as np
import pytest

from repro.core import ring_passkv, ring_passq
from repro.core.merge import merge_partials
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.testing import (
    assert_lossless_conversation,
    assert_lossless_prefill,
    max_logit_error,
)


@pytest.fixture(scope="module")
def model():
    return LlamaModel(tiny_config(), seed=77)


class TestMaxLogitError:
    def test_zero_for_identical(self):
        x = np.ones((3, 5))
        assert max_logit_error(x, x.copy()) == 0.0

    def test_reports_max(self):
        a = np.zeros((2, 2))
        b = np.array([[0.0, 0.5], [0.0, -1.5]])
        assert max_logit_error(a, b) == 1.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_logit_error(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_empty(self):
        assert max_logit_error(np.zeros((0, 5)), np.zeros((0, 5))) == 0.0


class TestAssertLossless:
    def test_prefill_passes(self, model):
        err = assert_lossless_prefill(model, 3, np.arange(15) % model.config.vocab_size)
        assert err < 1e-9

    def test_conversation_passes(self, model):
        v = model.config.vocab_size
        turns = [np.arange(9) % v, np.array([1, 2]) % v, np.array([5]) % v]
        err = assert_lossless_conversation(model, 2, turns, decode_per_turn=1)
        assert err < 1e-9

    def test_dropped_partial_fails_exactness(self, model, monkeypatch):
        """The utility catches real divergence: a prefill ring whose merge
        loses its last partial is not lossless."""
        for ring in (ring_passkv, ring_passq):
            monkeypatch.setattr(ring, "merge_partials", lambda partials: merge_partials(partials[:-1]))
        with pytest.raises(AssertionError):
            assert_lossless_conversation(
                model, 2,
                [np.arange(12) % model.config.vocab_size, np.array([3, 4])],
                atol=1e-12,
            )
