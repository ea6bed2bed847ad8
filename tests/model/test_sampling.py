"""Tests for token sampling."""

import numpy as np
import pytest

from repro.model.sampling import sample_greedy


class TestGreedy:
    def test_argmax(self):
        logits = np.array([[0.1, 5.0, -2.0], [3.0, 1.0, 2.0]])
        np.testing.assert_array_equal(sample_greedy(logits), [1, 0])

    def test_single_vector(self):
        assert sample_greedy(np.array([1.0, 9.0, 2.0])) == 1

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            sample_greedy(np.float64(3.0))

