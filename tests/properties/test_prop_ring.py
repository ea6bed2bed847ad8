"""Property-based tests: ring algorithms are lossless for arbitrary inputs."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.reference import reference_attention_with_lse
from repro.core import ring_skip
from repro.core.ring_decode import DecodeBatch, ring_passq_decode
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.sharding import SequenceSpec, ShardedKV, ShardedQueries, shard_sequences
from repro.distributed.process_group import SimProcessGroup

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def varseq_case(draw):
    """Random fused varseq full-prefill case sharded over a random world."""
    seed = draw(st.integers(0, 2**31 - 1))
    world = draw(st.integers(1, 5))
    n_seqs = draw(st.integers(1, 3))
    lengths = [draw(st.integers(1, 30)) for _ in range(n_seqs)]
    rng = np.random.default_rng(seed)
    per_seq = {
        i: (
            rng.standard_normal((n, 4, 8)),
            rng.standard_normal((n, 2, 8)),
            rng.standard_normal((n, 2, 8)),
        )
        for i, n in enumerate(lengths)
    }
    return world, per_seq


def build_shards(world, per_seq):
    specs = [SequenceSpec(sid, qkv[0].shape[0]) for sid, qkv in sorted(per_seq.items())]
    shards = shard_sequences(specs, world)
    queries, kvs = [], []
    for pos, sids in shards:
        qs = np.zeros((pos.shape[0], 4, 8))
        ks = np.zeros((pos.shape[0], 2, 8))
        vs = np.zeros((pos.shape[0], 2, 8))
        for i, (p, s) in enumerate(zip(pos, sids)):
            q, k, v = per_seq[int(s)]
            qs[i], ks[i], vs[i] = q[int(p)], k[int(p)], v[int(p)]
        queries.append(ShardedQueries(q=qs, positions=pos, seq_ids=sids))
        kvs.append(ShardedKV(k=ks, v=vs, positions=pos, seq_ids=sids))
    return queries, kvs


class TestRingLosslessness:
    @given(varseq_case())
    @settings(**SETTINGS)
    def test_passkv_exact_for_any_case(self, case):
        world, per_seq = case
        queries, kvs = build_shards(world, per_seq)
        results = ring_passkv_prefill(SimProcessGroup(world), queries, kvs)
        refs = {sid: reference_attention_with_lse(*qkv)[0] for sid, qkv in per_seq.items()}
        for res, qs in zip(results, queries):
            for i, (p, s) in enumerate(zip(qs.positions, qs.seq_ids)):
                np.testing.assert_allclose(res.out[i], refs[int(s)][int(p)], atol=1e-9)

    @given(varseq_case())
    @settings(**SETTINGS)
    def test_passq_exact_for_any_case(self, case):
        world, per_seq = case
        queries, kvs = build_shards(world, per_seq)
        results = ring_passq_prefill(SimProcessGroup(world), queries, kvs)
        refs = {sid: reference_attention_with_lse(*qkv)[0] for sid, qkv in per_seq.items()}
        for res, qs in zip(results, queries):
            for i, (p, s) in enumerate(zip(qs.positions, qs.seq_ids)):
                np.testing.assert_allclose(res.out[i], refs[int(s)][int(p)], atol=1e-9)

    @given(varseq_case())
    @settings(**SETTINGS)
    def test_variants_agree(self, case):
        """pass-KV and pass-Q are interchangeable: identical results."""
        world, per_seq = case
        queries, kvs = build_shards(world, per_seq)
        a = ring_passkv_prefill(SimProcessGroup(world), queries, kvs)
        b = ring_passq_prefill(SimProcessGroup(world), queries, kvs)
        for ra, rb in zip(a, b):
            np.testing.assert_allclose(ra.out, rb.out, atol=1e-9)
            np.testing.assert_allclose(ra.lse, rb.lse, atol=1e-9)


@contextlib.contextmanager
def _every_partial_computed():
    """The rings' one sweep with its shard skip off: the predicate never
    fires, so every ring-step partial is a kernel call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring_skip, "partial_fully_masked", lambda q_reach, k_reach: False)
        yield


class TestShardSkipIsPureExecutionStrategy:
    """Skipping provably all-masked ring-step partials substitutes the exact
    merge identity element, so outputs are bitwise unchanged."""

    @given(varseq_case())
    @settings(**SETTINGS)
    def test_passkv_skip_on_off_identical(self, case):
        world, per_seq = case
        queries, kvs = build_shards(world, per_seq)
        a = ring_passkv_prefill(SimProcessGroup(world), queries, kvs)
        with _every_partial_computed():
            b = ring_passkv_prefill(SimProcessGroup(world), queries, kvs)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.out, rb.out)
            assert np.array_equal(ra.lse, rb.lse)

    @given(varseq_case())
    @settings(**SETTINGS)
    def test_passq_skip_on_off_identical(self, case):
        world, per_seq = case
        queries, kvs = build_shards(world, per_seq)
        a = ring_passq_prefill(SimProcessGroup(world), queries, kvs)
        with _every_partial_computed():
            b = ring_passq_prefill(SimProcessGroup(world), queries, kvs)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.out, rb.out)
            assert np.array_equal(ra.lse, rb.lse)

    @given(varseq_case(), st.integers(0, 5))
    @settings(**SETTINGS)
    def test_decode_skip_on_off_identical(self, case, step):
        """Decode's skip branch (all-pad payloads when B % N != 0, plus
        unrelated/empty shards) substitutes identity partials exactly."""
        world, per_seq = case
        _, kvs = build_shards(world, per_seq)
        rng = np.random.default_rng(step)
        sids = sorted(per_seq)
        batch = DecodeBatch(
            q=rng.standard_normal((len(sids), 4, 8)),
            positions=np.array([per_seq[s][0].shape[0] - 1 for s in sids]),
            seq_ids=np.array(sids, dtype=np.int64),
        )
        a, assign_a = ring_passq_decode(SimProcessGroup(world), kvs, batch, step=step)
        with _every_partial_computed():
            b, assign_b = ring_passq_decode(SimProcessGroup(world), kvs, batch, step=step)
        assert np.array_equal(assign_a, assign_b)
        assert np.array_equal(a.out, b.out)
        assert np.array_equal(a.lse, b.lse)
