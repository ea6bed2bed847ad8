"""Tests for the chunked-prefill policy."""

import pytest

from repro.serving.scheduler import ChunkAssignment, ChunkedPrefillPolicy


class TestChunkedPrefillPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkedPrefillPolicy(chunk_tokens=0)
        with pytest.raises(ValueError):
            ChunkedPrefillPolicy(chunk_tokens=64, max_tokens_per_round=32)
        with pytest.raises(ValueError):
            ChunkedPrefillPolicy(max_seqs_per_round=0)
        with pytest.raises(ValueError):
            ChunkAssignment(seq_id=0, tokens=0)

    def test_long_prompt_spreads_across_rounds(self):
        p = ChunkedPrefillPolicy(chunk_tokens=16, max_tokens_per_round=16)
        round_ = p.build_round([(0, 40)])
        assert round_ == [ChunkAssignment(seq_id=0, tokens=16)]
        # 16 + 16 + 8: the tail chunk shrinks to the remaining tokens
        assert p.build_round([(0, 8)]) == [ChunkAssignment(seq_id=0, tokens=8)]

    def test_round_fuses_chunks_up_to_budget(self):
        p = ChunkedPrefillPolicy(chunk_tokens=16, max_tokens_per_round=40)
        round_ = p.build_round([(0, 100), (1, 100), (2, 100)])
        assert [(c.seq_id, c.tokens) for c in round_] == [(0, 16), (1, 16), (2, 8)]

    def test_exact_budget_no_sliver(self):
        p = ChunkedPrefillPolicy(chunk_tokens=16, max_tokens_per_round=32)
        round_ = p.build_round([(0, 16), (1, 16), (2, 16)])
        assert [(c.seq_id, c.tokens) for c in round_] == [(0, 16), (1, 16)]

    def test_seq_cap(self):
        p = ChunkedPrefillPolicy(chunk_tokens=4, max_tokens_per_round=1000, max_seqs_per_round=2)
        round_ = p.build_round([(0, 9), (1, 9), (2, 9)])
        assert [c.seq_id for c in round_] == [0, 1]

    def test_skips_drained_entries(self):
        p = ChunkedPrefillPolicy(chunk_tokens=8, max_tokens_per_round=32)
        round_ = p.build_round([(0, 0), (1, 5)])
        assert [(c.seq_id, c.tokens) for c in round_] == [(1, 5)]

    def test_packs_in_arrival_order(self):
        p = ChunkedPrefillPolicy(chunk_tokens=16, max_tokens_per_round=40)
        round_ = p.build_round([(0, 100), (1, 6), (2, 30)])
        assert [(c.seq_id, c.tokens) for c in round_] == [(0, 16), (1, 6), (2, 16)]

    def test_empty_pending(self):
        assert ChunkedPrefillPolicy().build_round([]) == []
