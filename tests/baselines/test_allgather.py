"""Tests for the all-gather pass-KV baseline."""

import numpy as np
import pytest

from repro.attention.reference import reference_attention_with_lse
from repro.baselines.allgather_passkv import allgather_passkv_prefill
from repro.core.ring_passkv import ring_passkv_prefill
from repro.distributed.process_group import SimProcessGroup

from helpers import (
    comm,
    make_qkv,
    run_ring,
    shard_qkv_full_prefill,
    shard_varseq_full_prefill,
    traced_group,
)


class TestExactness:
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_matches_reference(self, rng, world):
        q, k, v = make_qkv(rng, 29, 29)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        results = allgather_passkv_prefill(SimProcessGroup(world), queries, kvs)
        for res, qs in zip(results, queries):
            np.testing.assert_allclose(res.out, ref_out[qs.positions], atol=1e-10)
            np.testing.assert_allclose(res.lse, ref_lse[qs.positions], atol=1e-10)

    def test_agrees_with_ring(self, rng):
        world = 3
        per_seq = {0: make_qkv(rng, 10, 10), 1: make_qkv(rng, 15, 15)}
        queries, kvs = shard_varseq_full_prefill(per_seq, world)
        ag = allgather_passkv_prefill(SimProcessGroup(world), queries, kvs)
        ring = run_ring(ring_passkv_prefill, SimProcessGroup(world), queries, kvs)
        for a, b in zip(ag, ring):
            np.testing.assert_allclose(a.out, b.out, atol=1e-10)


class TestCommunicationShape:
    def test_allgather_not_sendrecv(self, rng):
        """The ablation's point: same bytes-scale traffic, but as one
        exposed collective rather than N-1 overlappable hops."""
        world = 4
        q, k, v = make_qkv(rng, 16, 16)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        group = traced_group(world)
        allgather_passkv_prefill(group, queries, kvs)
        assert comm(group)["allgather"].count == 1
        assert comm(group)["sendrecv"].count == 0

    def test_total_bytes_comparable_to_ring(self, rng):
        """AllGather moves the same KV volume the ring does (N-1 shards)."""
        world = 4
        q, k, v = make_qkv(rng, 16, 16)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        g_ring = traced_group(world)
        run_ring(ring_passkv_prefill, g_ring, queries, kvs)
        g_ag = traced_group(world)
        allgather_passkv_prefill(g_ag, queries, kvs)
        ring_bytes = comm(g_ring)["sendrecv"].bytes
        ag_bytes = comm(g_ag)["allgather"].bytes
        assert ag_bytes == pytest.approx(ring_bytes, rel=0.01)

    def test_world_mismatch(self, rng):
        q, k, v = make_qkv(rng, 8, 8)
        queries, kvs = shard_qkv_full_prefill(q, k, v, 2)
        with pytest.raises(ValueError):
            allgather_passkv_prefill(SimProcessGroup(3), queries, kvs)
