"""Tests for ring-schedule index arithmetic."""

import pytest

from repro.distributed.ring import source_rank_at_step


class TestSourceRank:
    def test_step_zero_is_self(self):
        for n in (1, 2, 5):
            for k in range(n):
                assert source_rank_at_step(k, 0, n) == k

    def test_paper_formula(self):
        """s = (k - j) mod N, Algorithms 2-4."""
        n = 5
        for k in range(n):
            for j in range(n):
                assert source_rank_at_step(k, j, n) == (k - j) % n

    def test_full_sweep_visits_all(self):
        """Over N steps every rank sees every origin exactly once."""
        for n in (1, 2, 3, 8):
            for k in range(n):
                assert sorted(source_rank_at_step(k, j, n) for j in range(n)) == list(range(n))

    def test_consistency_with_shift(self):
        """After j shifts (each rank receives from prev), rank k holds the
        payload originally at (k - j) mod N."""
        n = 6
        holders = list(range(n))  # holders[k] = origin of payload at rank k
        for j in range(1, n):
            holders = [holders[(k - 1) % n] for k in range(n)]
            for k in range(n):
                assert holders[k] == source_rank_at_step(k, j, n)

    def test_negative_step(self):
        with pytest.raises(ValueError):
            source_rank_at_step(0, -1, 4)
