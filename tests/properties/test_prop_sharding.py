"""Property-based tests: load-balanced sharding invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attention.masks import run_offsets
from repro.core import sharding
from repro.core.sharding import (
    SequenceSpec,
    ShardPlan,
    causal_flops_per_rank,
    shard_positions,
    shard_sequences,
)

SETTINGS = dict(max_examples=80, deadline=None)


class TestShardProperties:
    @given(st.integers(1, 2000), st.integers(1, 12), st.integers(0, 10000))
    @settings(**SETTINGS)
    def test_positions_partition_range(self, length, world, offset):
        shards = shard_positions(length, world, offset=offset)
        merged = np.sort(np.concatenate(shards))
        np.testing.assert_array_equal(merged, np.arange(offset, offset + length))

    @given(st.integers(1, 2000), st.integers(1, 12))
    @settings(**SETTINGS)
    def test_token_balance(self, length, world):
        """Per-rank token counts differ by at most 2 (one per chunk)."""
        sizes = [s.shape[0] for s in shard_positions(length, world)]
        assert max(sizes) - min(sizes) <= 2

    @given(st.integers(32, 4000), st.integers(2, 8))
    @settings(**SETTINGS)
    def test_causal_work_balance(self, length, world):
        """Attention-FLOP share per rank stays within ~15% of ideal for
        non-degenerate lengths (exact at multiples of 2N)."""
        work = causal_flops_per_rank(length, world)
        ideal = work.sum() / world
        assert np.all(work <= ideal * 1.3 + length)
        if length % (2 * world) == 0:
            np.testing.assert_allclose(work, ideal, rtol=1e-12)


class TestVarseqProperties:
    @given(
        st.lists(st.tuples(st.integers(1, 200), st.integers(0, 300)), min_size=1, max_size=6),
        st.integers(1, 8),
    )
    @settings(**SETTINGS)
    def test_fused_batch_partitions_each_sequence(self, sizes, world):
        specs = [
            SequenceSpec(i, new, cached) for i, (new, cached) in enumerate(sizes)
        ]
        shards = shard_sequences(specs, world)
        for spec in specs:
            got = []
            for pos, sid in shards:
                got.extend(int(p) for p, s in zip(pos, sid) if s == spec.seq_id)
            expected = list(range(spec.cached_tokens, spec.cached_tokens + spec.new_tokens))
            assert sorted(got) == expected

    @given(
        st.lists(st.integers(1, 100), min_size=1, max_size=5),
        st.integers(1, 6),
    )
    @settings(**SETTINGS)
    def test_batch_order_preserved_within_rank(self, sizes, world):
        """Within a rank, sequence blocks appear in batch order (fused
        layout, Figure 1)."""
        specs = [SequenceSpec(i, n) for i, n in enumerate(sizes)]
        shards = shard_sequences(specs, world)
        for _, sid in shards:
            non_decreasing_blocks = all(
                sid[i] <= sid[i + 1] for i in range(len(sid) - 1)
            )
            assert non_decreasing_blocks


# --------------------------------------------------------------------------- #
# ShardPlan: the exactness twin of benchmarks/bench_numeric_kernels.py's
# bench_shard_plan / bench_prefill_token_demand_cp2 / bench_engine_prefill_tiny_cp1
# --------------------------------------------------------------------------- #
# The concatenating implementation `shard_sequences` had before it became a
# reader of `ShardPlan`, kept here as the oracle (array_split convention,
# rank i takes C_i then C_{2N-1-i}, one np.full per (sequence, rank)).


def oracle_chunks(length, world):
    sizes = [len(part) for part in np.array_split(np.arange(length), 2 * world)]
    edges = np.concatenate([[0], np.cumsum(sizes)])
    return [(int(edges[i]), int(edges[i + 1])) for i in range(2 * world)]


def oracle_shard_sequences(specs, world):
    per_rank_pos = [[] for _ in range(world)]
    per_rank_seq = [[] for _ in range(world)]
    for spec in specs:
        chunks = oracle_chunks(spec.new_tokens, world)
        for rank in range(world):
            for start, stop in (chunks[rank], chunks[2 * world - 1 - rank]):
                pos = np.arange(start, stop, dtype=np.int64) + spec.cached_tokens
                per_rank_pos[rank].append(pos)
                per_rank_seq[rank].append(np.full(pos.size, spec.seq_id, dtype=np.int64))
    return [
        (np.concatenate(per_rank_pos[rank]), np.concatenate(per_rank_seq[rank]))
        for rank in range(world)
    ]


def check_plan_equals_oracle(sizes, world):
    """Everything a round derives from its plan, against the oracle."""
    # ids deliberately not 0..n-1 and not ascending: batch order is spec order
    specs = [SequenceSpec(100 - 3 * i, new, cached) for i, (new, cached) in enumerate(sizes)]
    want = oracle_shard_sequences(specs, world)
    plan = ShardPlan(specs, world)
    got, read = plan.coordinates(), shard_sequences(specs, world)
    assert len(got) == len(read) == world
    demand = plan.demand()
    new_rows = {s.seq_id: np.arange(s.new_tokens) for s in specs}
    for rank in range(world):
        want_pos, want_seq = want[rank]
        for pos, seq in (got[rank], read[rank]):
            assert pos.dtype == seq.dtype == np.int64
            np.testing.assert_array_equal(pos, want_pos)
            np.testing.assert_array_equal(seq, want_seq)
        np.testing.assert_array_equal(plan.runs(rank), run_offsets(want_seq))
        # demand is a per-token count
        counted = {}
        for sid in want_seq.tolist():
            counted[sid] = counted.get(sid, 0) + 1
        assert demand[rank] == counted
        assert list(demand[rank]) == list(counted)  # batch order too
        # each (rank, seq) span is one contiguous row range holding exactly
        # that sequence's rows, and names the two chunks the rank owns
        covered = np.zeros(want_seq.size, dtype=bool)
        for span in plan.spans[rank]:
            assert span.row_lo < span.row_hi
            assert (want_seq[span.row_lo : span.row_hi] == span.seq_id).all()
            covered[span.row_lo : span.row_hi] = True
            assert np.count_nonzero(want_seq == span.seq_id) == span.row_hi - span.row_lo
            spec = next(s for s in specs if s.seq_id == span.seq_id)
            chunks = oracle_chunks(spec.new_tokens, world)
            assert [span.early, span.late] == [chunks[rank], chunks[2 * world - 1 - rank]]
        assert covered.all()
        # the gather a span's ranges drive picks the rows positions name
        offsets = {s.seq_id: s.cached_tokens for s in specs}
        want_rows = want_pos - np.array([offsets[s] for s in want_seq.tolist()], dtype=np.int64)
        np.testing.assert_array_equal(plan.take(rank, new_rows), want_rows)


SIZES = st.lists(st.tuples(st.integers(0, 70), st.integers(0, 300)), min_size=1, max_size=6)


class TestShardPlanEqualsOracle:
    @given(SIZES, st.integers(1, 9))
    @example([(1, 0)], 1)  # T = 1, N = 1
    @example([(1, 5), (3, 0), (2, 9)], 4)  # T < 2N: empty chunks, empty ranks
    @example([(7, 12)], 1)  # the modal fleet_smallreq round
    @example([(16, 0), (0, 4), (5, 5)], 2)  # a sequence with nothing to add
    @settings(**SETTINGS)
    def test_plan_equals_concatenating_oracle(self, sizes, world):
        check_plan_equals_oracle(sizes, world)

    def test_duplicate_sequence_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShardPlan([SequenceSpec(3, 4), SequenceSpec(3, 2)], 2)


class TestShardPlanMutantsDie:
    """Each seeded defect must fail `check_plan_equals_oracle` on a fixed
    case — the property has teeth where the arithmetic could go wrong."""

    CASE = ([(11, 3), (5, 0), (9, 20)], 2)

    def _dies(self):
        with pytest.raises(AssertionError):
            check_plan_equals_oracle(*self.CASE)

    def test_case_passes_unmutated(self):
        check_plan_equals_oracle(*self.CASE)

    def test_late_chunk_taken_as_2n_minus_rank(self, monkeypatch):
        world = self.CASE[1]
        real = sharding._chunk
        # late indices are the ones >= N: shift them up by one (2N - rank)
        monkeypatch.setattr(
            sharding, "_chunk",
            lambda base, extra, i: real(base, extra, i + 1 if i >= world else i),
        )
        self._dies()

    def test_remainder_given_to_the_last_chunks(self, monkeypatch):
        world = self.CASE[1]

        def last_chunks_take_extra(base, extra, i):
            first_big = 2 * world - extra
            start = i * base + max(0, i - first_big)
            return start, start + base + (i >= first_big)

        monkeypatch.setattr(sharding, "_chunk", last_chunks_take_extra)
        self._dies()

    def test_span_offset_not_advanced_across_sequences(self, monkeypatch):
        real = sharding.ShardSpan
        monkeypatch.setattr(
            sharding, "ShardSpan",
            lambda sid, lo, hi, early, late: real(sid, 0, hi - lo, early, late),
        )
        self._dies()
