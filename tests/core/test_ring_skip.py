"""Tests for the shard-level causal skip predicate (ring hot path)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.masks import PAD_SEQ, attention_mask
from repro.attention.reference import reference_attention_with_lse
from repro.core.ring_decode import ring_passq_decode
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.ring_skip import kv_reach, partial_fully_masked, query_reach
from repro.core.sharding import ShardedKV, ShardedQueries
from repro.distributed.process_group import SimProcessGroup

from helpers import PrefillRound, decode_round, run_ring

SETTINGS = dict(max_examples=50, deadline=None)


class TestReachSummaries:
    def test_query_reach_per_sequence_max(self):
        pos = np.array([3, 9, 1, 7])
        seq = np.array([0, 0, 1, 1])
        assert query_reach(pos, seq) == {0: 9, 1: 7}

    def test_kv_reach_per_sequence_min(self):
        pos = np.array([3, 9, 1, 7])
        seq = np.array([0, 0, 1, 1])
        assert kv_reach(pos, seq) == {0: 3, 1: 1}

    def test_none_seq_ids_default_to_sequence_zero(self):
        assert query_reach(np.array([4, 2]), None) == {0: 4}
        assert kv_reach(np.array([4, 2]), None) == {0: 2}

    def test_pad_tokens_are_ignored(self):
        pos = np.array([5, 100, 2])
        seq = np.array([0, PAD_SEQ, 0])
        assert query_reach(pos, seq) == {0: 5}
        assert kv_reach(pos, seq) == {0: 2}

    def test_empty_and_all_pad_shards(self):
        assert query_reach(np.zeros(0, dtype=np.int64), None) == {}
        assert kv_reach(np.array([1, 2]), np.full(2, PAD_SEQ)) == {}


class TestPartialFullyMasked:
    def test_visible_when_key_precedes_query(self):
        assert not partial_fully_masked({0: 5}, {0: 5})
        assert not partial_fully_masked({0: 5}, {0: 0})

    def test_masked_when_all_keys_after_queries(self):
        assert partial_fully_masked({0: 5}, {0: 6})

    def test_masked_when_no_shared_sequence(self):
        assert partial_fully_masked({0: 5}, {1: 0})
        assert partial_fully_masked({}, {0: 0})
        assert partial_fully_masked({0: 5}, {})


class TestShardFullyMaskedProperty:
    @given(
        seed=st.integers(0, 2**31 - 1),
        tq=st.integers(0, 12),
        tk=st.integers(0, 12),
    )
    @settings(**SETTINGS)
    def test_matches_materialized_mask(self, seed, tq, tk):
        """The O(T) predicate over the two reach summaries agrees with
        ``not attention_mask(...).any()`` under the causal mask the rings
        use, for arbitrary (position, sequence, PAD) layouts."""
        rng = np.random.default_rng(seed)
        q_pos = rng.integers(0, 8, tq)
        k_pos = rng.integers(0, 8, tk)
        q_seq = rng.integers(PAD_SEQ, 2, tq)
        k_seq = rng.integers(PAD_SEQ, 2, tk)
        predicted = partial_fully_masked(query_reach(q_pos, q_seq), kv_reach(k_pos, k_seq))
        actual = not attention_mask(q_pos, k_pos, q_seq, k_seq).any()
        assert predicted == actual


def _shards(q_heads, kv_heads):
    """Two ranks' shards of sequence 0 (positions 0-3 and 4-7), each with
    its own query and KV head count."""
    rng = np.random.default_rng(0)
    pos = [np.arange(4), np.arange(4, 8)]
    queries = [
        ShardedQueries(q=rng.standard_normal((4, h, 8)), positions=p, seq_ids=np.zeros(4, dtype=np.int64))
        for h, p in zip(q_heads, pos)
    ]
    kvs = [
        ShardedKV(
            k=rng.standard_normal((4, h, 8)), v=rng.standard_normal((4, h, 8)),
            positions=p, seq_ids=np.zeros(4, dtype=np.int64),
        )
        for h, p in zip(kv_heads, pos)
    ]
    return queries, kvs


def _decode(kv_heads, positions):
    _, kvs = _shards((4, 4), kv_heads)
    queries, slots = decode_round(np.ones((2, 4, 8)), positions, np.array([0, 1]), 2)
    return run_ring(ring_passq_decode, SimProcessGroup(2), queries, kvs, slots=slots)


class TestOneHeadLayout:
    @pytest.mark.parametrize(
        ("run", "match"),
        [
            (lambda: run_ring(ring_passkv_prefill, SimProcessGroup(2), *_shards((4, 4), (2, 1))), "rank 1's KV shard"),
            (lambda: run_ring(ring_passq_prefill, SimProcessGroup(2), *_shards((4, 2), (2, 2))), "rank 1's query"),
            (lambda: _decode((2, 1), np.array([7, 7])), "rank 1's KV shard"),
            (lambda: _decode((2, 2), np.array([2.5, 7.0])), "positions must be integers"),
        ],
        ids=["passkv-kv-heads", "passq-query-heads", "decode-kv-heads", "decode-float-positions"],
    )
    def test_a_rank_that_differs_is_named(self, run, match):
        """Every rank of a ring shares one head layout, and a query shard
        has integer coordinates; a ring that silently mixed layouts would
        attend rank 1 in another GQA grouping or answer with its heads."""
        with pytest.raises(ValueError, match=match):
            run()


#: A fused round on CP3: sequence 0 a partial prefill over KV cached 4 / 2 /
#: 3 on the ranks, sequence 1 a full prefill, so every rank's sum takes
#: several visible partials and a pass-KV shard is padded.
_FIXED = ((3, {0: ([4, 2, 3], 7), 1: ([0, 0, 0], 11)}), 5)


def _exact(ring) -> None:
    """``ring`` over the fixed round equals the per-sequence reference."""
    (world, seqs), seed = _FIXED
    prefill = PrefillRound(world, seqs)
    per_seq = prefill.arrays(np.random.default_rng(seed))
    queries, kvs = prefill.shards(per_seq)
    results = run_ring(ring, SimProcessGroup(world), queries, kvs)
    for sid, (q, k, v) in per_seq.items():
        p, t = prefill.context(sid)
        want_out, want_lse = reference_attention_with_lse(q, k, v, q_pos=np.arange(p, p + t), k_pos=np.arange(p + t))
        for res, qs in zip(results, queries):
            rows = np.flatnonzero(qs.seq_ids == sid)
            np.testing.assert_allclose(res.out[rows], want_out[qs.positions[rows] - p], atol=1e-10)
            np.testing.assert_allclose(res.lse[rows], want_lse[qs.positions[rows] - p], atol=1e-10)


class TestFixedShapeExactness:
    """One fixed round through each prefill ring: the cheap exactness check
    beside ``test_prop_ring.py``'s whole-ring properties."""

    def test_passkv_exact(self):
        _exact(ring_passkv_prefill)

    def test_passq_exact(self):
        _exact(ring_passq_prefill)
