"""Tests for load-balanced context-parallel sharding (§3.5.1)."""

import numpy as np
import pytest

from repro.attention.masks import PAD_SEQ, run_index, run_offsets
from repro.core.sharding import (
    SequenceSpec,
    ShardedKV,
    ShardedQueries,
    ShardPlan,
    causal_flops_per_rank,
    naive_flops_per_rank,
    pad_kv_shards,
    plan_query_padding,
    shard_positions,
    shard_sequences,
)


class TestShardPositions:
    @pytest.mark.parametrize("length,world", [(64, 4), (63, 4), (17, 3), (7, 8), (1, 2)])
    def test_partition(self, length, world):
        shards = shard_positions(length, world)
        merged = np.sort(np.concatenate(shards))
        np.testing.assert_array_equal(merged, np.arange(length))

    def test_token_balance(self):
        shards = shard_positions(1024, 8)
        sizes = [s.shape[0] for s in shards]
        assert max(sizes) - min(sizes) <= 2  # two chunks per rank

    def test_offset_for_partial_prefill(self):
        shards = shard_positions(8, 2, offset=100)
        merged = np.sort(np.concatenate(shards))
        np.testing.assert_array_equal(merged, np.arange(100, 108))

    def test_rank0_has_first_and_last_chunks(self):
        shards = shard_positions(80, 4)
        assert 0 in shards[0]
        assert 79 in shards[0]


class TestCausalBalance:
    def test_load_balanced_beats_naive(self):
        """The defining property: attention work imbalance shrinks."""
        for n in (2, 4, 8):
            lb = causal_flops_per_rank(4096, n)
            naive = naive_flops_per_rank(4096, n)
            lb_imbalance = lb.max() / lb.min()
            naive_imbalance = naive.max() / naive.min()
            assert lb_imbalance < 1.01
            assert naive_imbalance > 1.5

    def test_total_work_preserved(self):
        t = 1000
        expected = t * (t + 1) / 2
        assert causal_flops_per_rank(t, 4).sum() == expected
        assert naive_flops_per_rank(t, 4).sum() == expected


class TestShardSequences:
    def test_fused_batch_partition(self):
        specs = [SequenceSpec(0, 30), SequenceSpec(1, 17), SequenceSpec(2, 5)]
        shards = shard_sequences(specs, 4)
        seen = {0: [], 1: [], 2: []}
        total = 0
        for pos, sid in shards:
            total += pos.shape[0]
            for p, s in zip(pos, sid):
                seen[int(s)].append(int(p))
        assert total == 52
        for spec in specs:
            assert sorted(seen[spec.seq_id]) == list(range(spec.new_tokens))

    def test_partial_prefill_offsets(self):
        specs = [SequenceSpec(0, 10, cached_tokens=100)]
        shards = shard_sequences(specs, 2)
        merged = np.sort(np.concatenate([pos for pos, _ in shards]))
        np.testing.assert_array_equal(merged, np.arange(100, 110))

    def test_per_rank_token_balance_varseq(self):
        specs = [SequenceSpec(i, 64 + i) for i in range(3)]
        shards = shard_sequences(specs, 4)
        sizes = [pos.shape[0] for pos, _ in shards]
        assert max(sizes) - min(sizes) <= len(specs) * 2

    def test_invalid_world(self):
        with pytest.raises(ValueError):
            shard_sequences([SequenceSpec(0, 4)], 0)


class TestRoundRobinSplit:
    @pytest.mark.parametrize("world", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [0, 1, 3, 4, 9])
    @pytest.mark.parametrize("step", [0, 1, 6])
    def test_places_each_slot_as_the_assignment_does(self, world, batch, step):
        """A decode round's split puts slot ``b`` on rank ``(b + step) mod
        N`` as one row, in batch order on each rank; its coordinates,
        demand, runs, row gather and batch ids all read that placement."""
        sids = [10 * b + 7 for b in range(batch)]
        positions = [40 + b for b in range(batch)]
        split = ShardPlan.round_robin(sids, positions, world, step)
        owner = (np.arange(batch) + step) % world
        width = max([int((owner == rank).sum()) for rank in range(world)] + [0])
        tokens = {sid: np.array([b]) for b, sid in enumerate(sids)}
        for rank, (spans, (pos, seq), demand, ids) in enumerate(
            zip(split.spans, split.coordinates(), split.demand(), split.batch_ids())
        ):
            mine = np.flatnonzero(owner == rank)
            assert [span.seq_id for span in spans] == [sids[b] for b in mine]
            assert [(span.row_lo, span.row_hi) for span in spans] == [(j, j + 1) for j in range(mine.size)]
            np.testing.assert_array_equal(pos, np.array(positions, dtype=np.int64)[mine])
            np.testing.assert_array_equal(seq, np.array(sids, dtype=np.int64)[mine])
            assert pos.dtype == seq.dtype == np.int64
            assert demand == {sids[b]: 1 for b in mine}
            np.testing.assert_array_equal(split.runs(rank), np.arange(mine.size + 1))
            np.testing.assert_array_equal(split.take(rank, tokens), mine)
            np.testing.assert_array_equal(ids, np.concatenate([mine, np.full(width - mine.size, -1)]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlan.round_robin([1], [0], 0, 0)
        with pytest.raises(ValueError):
            ShardPlan.round_robin([1], [0], 2, -1)


class TestSequenceSpec:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SequenceSpec(0, -1)


class TestPadding:
    def _kv(self, n, sid=0, start=0):
        return ShardedKV(
            k=np.ones((n, 2, 4)),
            v=np.ones((n, 2, 4)),
            positions=np.arange(start, start + n, dtype=np.int64),
            seq_ids=np.full(n, sid, dtype=np.int64),
        )

    def test_pad_kv_equal_lengths(self):
        shards = [self._kv(5), self._kv(3), self._kv(4)]
        padded, pad_total = pad_kv_shards(shards)
        assert len({len(p) for p in padded}) == 1
        assert pad_total == (5 - 3) + (5 - 4)

    def test_pad_entries_marked(self):
        padded, _ = pad_kv_shards([self._kv(4), self._kv(2)])
        assert np.count_nonzero(padded[1].seq_ids == PAD_SEQ) == 2

    def test_pad_per_sequence(self):
        a = ShardedKV.concat([self._kv(4, sid=0), self._kv(2, sid=1)])
        b = ShardedKV.concat([self._kv(3, sid=0), self._kv(5, sid=1)])
        padded, pad_total = pad_kv_shards([a, b])
        assert pad_total == 1 + 3
        # per-sequence slices padded to per-sequence max: 4 + 5
        assert len(padded[0]) == len(padded[1]) == 9

    def test_pad_queries(self):
        shards = [
            ShardedQueries(
                q=np.ones((n, 2, 4)),
                positions=np.arange(n, dtype=np.int64),
                seq_ids=np.zeros(n, dtype=np.int64),
            )
            for n in (4, 2, 3)
        ]
        paddings, pad_total = plan_query_padding(shards)
        assert all(p.fill(s.q).shape[0] == len(p.positions) == 4 for p, s in zip(paddings, shards))
        assert pad_total == 2 + 1
        assert np.count_nonzero(paddings[1].seq_ids == PAD_SEQ) == 2
        assert paddings[0].rows is None  # (the longest shard is its own message)

    def test_messages_of_unequal_length_raise(self, monkeypatch):
        """Equal ring messages are an invariant, checked without ``assert``:
        a shard whose runs claim rows it does not hold (five of sequence 0,
        over three rows) would send a shorter message than its peer."""
        short = self._kv(3)
        monkeypatch.setattr(short, "runs", np.array([0, 5]))
        with pytest.raises(RuntimeError, match="padding failed to equalise shard lengths"):
            pad_kv_shards([short, self._kv(5)])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            pad_kv_shards([])
        with pytest.raises(ValueError):
            plan_query_padding([])


class TestShardContainers:
    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            ShardedQueries(
                q=np.zeros((3, 2, 4)),
                positions=np.zeros(2, dtype=np.int64),
                seq_ids=np.zeros(3, dtype=np.int64),
            )
        with pytest.raises(ValueError):
            ShardedKV(
                k=np.zeros((3, 2, 4)),
                v=np.zeros((4, 2, 4)),
                positions=np.zeros(3, dtype=np.int64),
                seq_ids=np.zeros(3, dtype=np.int64),
            )

    @pytest.mark.parametrize("name", ["positions", "seq_ids"])
    def test_query_coordinates_must_be_integers(self, name):
        """Both pass-Q rings (prefill and decode) put a query shard's
        coordinates on the wire and test the causal skip on them exactly."""
        coords = {"positions": np.arange(3), "seq_ids": np.zeros(3, dtype=np.int64)}
        coords[name] = coords[name].astype(np.float64)
        with pytest.raises(ValueError, match=f"{name} must be integers"):
            ShardedQueries(q=np.zeros((3, 2, 4)), **coords)

    def test_concat_and_empty(self):
        empty = ShardedKV.empty(2, 4)
        assert len(empty) == 0
        one = ShardedKV(
            k=np.ones((2, 2, 4)), v=np.ones((2, 2, 4)),
            positions=np.arange(2, dtype=np.int64), seq_ids=np.zeros(2, dtype=np.int64),
        )
        cat = ShardedKV.concat([empty, one, one])
        assert len(cat) == 4
        with pytest.raises(ValueError):
            ShardedKV.concat([])


class TestRunOffsets:
    """Shards carry ``cu_seqlens``-style run offsets, so the kernel and the
    skip predicate never rediscover the sequence structure per call."""

    @staticmethod
    def _is_run_structure(shard):
        runs = shard.runs
        assert runs[0] == 0 and runs[-1] == len(shard) and np.all(np.diff(runs) > 0)
        for lo, hi in zip(runs[:-1], runs[1:]):
            assert len(set(shard.seq_ids[lo:hi].tolist())) == 1
        assert shard.run_index == run_index(shard.seq_ids, runs)  # handed over or found

    def test_found_by_one_scan_when_not_handed_over(self):
        seq = np.array([3, 3, PAD_SEQ, 7, 7, 7, 3], dtype=np.int64)
        shard = ShardedKV(
            k=np.zeros((7, 1, 2)), v=np.zeros((7, 1, 2)),
            positions=np.arange(7, dtype=np.int64), seq_ids=seq,
        )
        np.testing.assert_array_equal(shard.runs, run_offsets(seq))
        np.testing.assert_array_equal(shard.runs, [0, 2, 3, 6, 7])
        np.testing.assert_array_equal(ShardedKV.empty(1, 2).runs, [0])

    def test_padding_helpers_hand_them_over(self):
        rng = np.random.default_rng(0)

        def kv(counts):
            seq = np.repeat(np.array(list(counts)), list(counts.values()))
            n = seq.size
            return ShardedKV(
                k=rng.standard_normal((n, 1, 2)), v=rng.standard_normal((n, 1, 2)),
                positions=np.arange(n, dtype=np.int64), seq_ids=seq.astype(np.int64),
            )

        padded, _ = pad_kv_shards([kv({0: 4, 1: 2}), kv({1: 5, 2: 1}), kv({})])
        for shard in padded:
            self._is_run_structure(shard)
        queries = [
            ShardedQueries(
                q=np.ones((n, 2, 4)), positions=np.arange(n, dtype=np.int64),
                seq_ids=np.repeat(np.arange(2), [n - 1, 1]).astype(np.int64),
            )
            for n in (4, 2)
        ]
        for shard, p in zip(queries, plan_query_padding(queries)[0]):
            padded = ShardedQueries(p.fill(shard.q), p.positions, p.seq_ids, p.runs, p.run_index)
            self._is_run_structure(padded)

    def test_interleaved_sequence_pads_like_a_contiguous_one(self):
        """A sequence split over several runs keeps its storage order."""
        seq = np.array([0, 1, 0, 1, 1], dtype=np.int64)
        pos = np.array([0, 0, 1, 1, 2], dtype=np.int64)
        k = np.arange(5, dtype=np.float64).reshape(5, 1, 1)
        mixed = ShardedKV(k=k, v=-k, positions=pos, seq_ids=seq)
        other = ShardedKV(
            k=np.zeros((1, 1, 1)), v=np.zeros((1, 1, 1)),
            positions=np.zeros(1, dtype=np.int64), seq_ids=np.zeros(1, dtype=np.int64),
        )
        padded, pad_total = pad_kv_shards([mixed, other])
        np.testing.assert_array_equal(padded[0].seq_ids, [0, 0, 1, 1, 1])
        np.testing.assert_array_equal(padded[0].k[:, 0, 0], [0, 2, 1, 3, 4])
        np.testing.assert_array_equal(padded[1].seq_ids, [0, PAD_SEQ, PAD_SEQ, PAD_SEQ, PAD_SEQ])
        assert pad_total == 4

    def test_runs_are_not_wire_bytes(self):
        """A ring ships a shard's arrays alone: its runs, run index and reach
        are looked up by the payload's origin, never sent."""
        from repro.core.ring_passkv import ring_passkv_prefill

        from helpers import comm, run_ring, traced_group

        shard = ShardedKV(
            k=np.zeros((6, 2, 4)), v=np.zeros((6, 2, 4)),
            positions=np.arange(6, dtype=np.int64),
            seq_ids=np.repeat(np.arange(3), 2).astype(np.int64),
        )
        assert shard.runs.size == 4
        queries = ShardedQueries(q=np.zeros((6, 4, 4)), positions=shard.positions, seq_ids=shard.seq_ids)
        group = traced_group(2)
        run_ring(ring_passkv_prefill, group, [queries, queries], [shard, shard])
        assert comm(group)["sendrecv"].bytes == 2 * (2 * 6 * 2 * 4 + 2 * 6)  # bf16 on the wire

    def test_reach_summaries_agree_with_and_without_runs(self):
        from repro.core.ring_skip import kv_reach, query_reach

        rng = np.random.default_rng(1)
        for _ in range(50):
            seq = np.repeat(rng.integers(PAD_SEQ, 4, 6), rng.integers(1, 5, 6)).astype(np.int64)
            pos = rng.integers(0, 30, seq.size)
            runs = run_offsets(seq)  # ids may repeat across runs
            want_max = {int(s): int(pos[seq == s].max()) for s in set(seq.tolist()) - {PAD_SEQ}}
            want_min = {int(s): int(pos[seq == s].min()) for s in set(seq.tolist()) - {PAD_SEQ}}
            assert query_reach(pos, seq) == query_reach(pos, seq, runs) == want_max
            assert kv_reach(pos, seq) == kv_reach(pos, seq, runs) == want_min
