"""Property tests: the sequence-segmented (varlen) sweep is exact.

Twin of the ``decode_batch`` performance claim: when the key side fuses
several sequences, :func:`flash_attention` pairs query and key runs by
sequence id and sweeps them as one padded batch. These properties pin that
path three ways on random fused batches — against the same kernel run as
one monolithic segment (forced through ``mask_fn``, which is never
segmented), against the fully-materialized reference oracle, and against
itself with the run offsets handed over (bare, or with the run index a
``ShardedKV`` carries) versus rediscovered — to the
library's contract of ``atol=1e-12, rtol=0`` plus *identical* ``-inf``
structure (see ``test_prop_flash_fused.py``).

The batches cover what the rings and the cache produce and what they never
do: unequal lengths (one long sequence among short ones, so the padding
rule has to split the batch), ``PAD_SEQ`` runs, sequences present on only
one side, interleaved (non-run) sequence ids, an empty key side,
``compute_dtype=float32`` and ``num_kv_splits > 1``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.flash import _pad_groups, _sequence_runs, flash_attention
from repro.attention.masks import PAD_SEQ, attention_mask, run_index, run_offsets
from repro.attention.reference import reference_attention_with_lse
from repro.core.sharding import ShardedKV
from repro.distributed.process_group import SimProcessGroup

SETTINGS = dict(max_examples=60, deadline=None)


@st.composite
def fused_batch(draw):
    """A fused varlen batch: per-sequence runs on both sides."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n_kv = draw(st.sampled_from([1, 2]))
    nh = n_kv * draw(st.sampled_from([1, 4]))
    dh = draw(st.sampled_from([4, 8]))
    n_seq = draw(st.integers(2, 7))
    layout = draw(st.sampled_from(["runs", "runs", "interleaved"]))
    long_tail = draw(st.booleans())

    q_ids, k_ids = [], []
    for sid in range(n_seq):
        # 0 on one side only = a sequence the other side never meets
        rows = draw(st.integers(0, 5))
        keys = draw(st.integers(0, 12))
        if long_tail and sid == 0:
            keys = draw(st.integers(150, 300))
        q_ids += [sid] * rows
        k_ids += [sid] * keys
        if draw(st.booleans()):
            k_ids += [PAD_SEQ] * draw(st.integers(1, 3))
    q_ids += [PAD_SEQ] * draw(st.integers(0, 2))
    q_seq = np.array(q_ids, dtype=np.int64)
    k_seq = np.array(k_ids, dtype=np.int64)
    if layout == "interleaved":
        q_seq = rng.permutation(q_seq)
        k_seq = rng.permutation(k_seq)
    tq, tk = q_seq.size, k_seq.size
    case = dict(
        q=rng.standard_normal((tq, nh, dh)),
        k=rng.standard_normal((tk, n_kv, dh)),
        v=rng.standard_normal((tk, n_kv, dh)),
        q_pos=rng.integers(0, 24, tq),
        k_pos=rng.integers(0, 24, tk),
        q_seq=q_seq,
        k_seq=k_seq,
    )
    knobs = dict(
        block_size=draw(st.sampled_from([1, 3, 16, 128])),
        num_kv_splits=draw(st.integers(1, 3)),
        causal=draw(st.sampled_from([True, True, False])),
    )
    return case, knobs


def _call(case, **kw):
    tensors = (case["q"], case["k"], case["v"])
    coords = {key: case[key] for key in ("q_pos", "k_pos", "q_seq", "k_seq")}
    return flash_attention(*tensors, **coords, **kw)


def _as_shard(case) -> ShardedKV:
    return ShardedKV(k=case["k"], v=case["v"], positions=case["k_pos"], seq_ids=case["k_seq"])


def _assert_same(res, out, lse, *, atol=1e-12):
    np.testing.assert_allclose(res.out, out, atol=atol, rtol=0)
    empty = np.isneginf(lse)
    assert np.array_equal(np.isneginf(res.lse), empty)
    np.testing.assert_allclose(res.lse[~empty], lse[~empty], atol=atol, rtol=0)
    assert np.all(res.out[empty] == 0.0)


class TestSegmentedMatchesMonolithic:
    @given(fused_batch())
    @settings(**SETTINGS)
    def test_against_one_segment_and_the_reference(self, batch):
        case, knobs = batch
        causal = knobs["causal"]
        seen = []

        def whole_call_mask(q_pos, k_pos, q_seq, k_seq):
            seen.append((len(q_pos), len(k_pos)))
            return attention_mask(q_pos, k_pos, q_seq, k_seq, causal=causal)

        segmented = _call(case, **knobs)
        monolithic = _call(case, **knobs, mask_fn=whole_call_mask)
        _assert_same(segmented, monolithic.out, monolithic.lse)
        if case["q_seq"].size and case["k_seq"].size:
            # mask_fn saw the whole call exactly once: it was not segmented
            assert seen == [(case["q_seq"].size, case["k_seq"].size)]
            ref_out, ref_lse = reference_attention_with_lse(
                case["q"], case["k"], case["v"], causal=causal,
                **{key: case[key] for key in ("q_pos", "k_pos", "q_seq", "k_seq")},
            )
            _assert_same(segmented, ref_out, ref_lse)

    @given(fused_batch())
    @settings(**SETTINGS)
    def test_handed_over_runs_equal_rediscovered_runs(self, batch):
        case, knobs = batch
        found = _call(case, **knobs)
        given_runs = _call(
            case, **knobs,
            q_runs=run_offsets(case["q_seq"]), k_runs=run_offsets(case["k_seq"]),
        )
        assert np.array_equal(found.out, given_runs.out)
        assert np.array_equal(found.lse, given_runs.lse)
        # ... and the (offsets, index) pair a shard carries: nothing scanned
        # (an interleaved side has no index; the kernel falls back to its sort)
        q_runs, kv = run_offsets(case["q_seq"]), _as_shard(case)
        carried = _call(
            case, **knobs,
            q_runs=(q_runs, run_index(case["q_seq"], q_runs)), k_runs=(kv.runs, kv.run_index),
        )
        assert np.array_equal(found.out, carried.out)
        assert np.array_equal(found.lse, carried.lse)

    @given(fused_batch())
    @settings(**SETTINGS)
    def test_shard_carried_index_is_what_the_kernel_scans(self, batch):
        case, _ = batch
        kv = _as_shard(case)
        order, offsets, index = _sequence_runs(case["k_seq"], None)
        if order is None:  # one run per sequence: the shard found the same index
            assert kv.run_index == index and PAD_SEQ not in index
            assert np.array_equal(kv.runs, offsets)
            for sid, run in index.items():
                assert set(case["k_seq"][offsets[run] : offsets[run + 1]].tolist()) == {sid}
        else:  # interleaved: only the kernel's sort can gather it
            assert kv.run_index is None
        # host-side bookkeeping, like ``runs``: not a byte of it on the wire,
        # and it survives the trip
        group = SimProcessGroup(2)
        tensors = (kv.k, kv.v, kv.positions, kv.seq_ids)
        assert group.payload_nbytes(kv) == group.payload_nbytes(tensors)
        received = group.ring_shift([kv, kv])[0]
        assert received.run_index == kv.run_index

    @given(fused_batch())
    @settings(**SETTINGS)
    def test_float32_compute_keeps_the_structure(self, batch):
        case, knobs = batch
        exact = _call(case, **knobs)
        single = _call(case, **knobs, compute_dtype=np.float32)
        assert single.out.dtype == np.float64
        _assert_same(single, exact.out, exact.lse, atol=5e-5)

    @given(fused_batch())
    @settings(**SETTINGS)
    def test_block_skipping_is_invisible(self, batch):
        case, knobs = batch
        a = _call(case, **knobs)
        b = _call(case, **knobs, skip_masked_blocks=False)
        _assert_same(a, b.out, b.lse)


class TestEdges:
    def _case(self, q_seq, k_seq, seed=0):
        rng = np.random.default_rng(seed)
        q_seq, k_seq = np.asarray(q_seq), np.asarray(k_seq)
        return dict(
            q=rng.standard_normal((q_seq.size, 4, 8)),
            k=rng.standard_normal((k_seq.size, 2, 8)),
            v=rng.standard_normal((k_seq.size, 2, 8)),
            q_pos=np.full(q_seq.size, 50),
            k_pos=np.arange(k_seq.size),
            q_seq=q_seq,
            k_seq=k_seq,
        )

    def test_empty_key_side(self):
        res = _call(self._case([0, 1, 2], []))
        assert res.out.shape == (3, 4, 8)
        assert np.all(res.out == 0.0) and np.all(np.isneginf(res.lse))

    def test_no_sequence_in_common(self):
        res = _call(self._case([5, 5, 6], [0, 0, 1, 1, 2]))
        assert np.all(res.out == 0.0) and np.all(np.isneginf(res.lse))

    def test_unmatched_and_pad_rows_stay_empty(self):
        case = self._case([0, 7, PAD_SEQ, 1], [0, 0, 1, 1, 1, PAD_SEQ, 2])
        res = _call(case)
        assert np.all(np.isneginf(res.lse[[1, 2]])) and np.all(res.out[[1, 2]] == 0.0)
        assert np.all(np.isfinite(res.lse[[0, 3]]))

    def test_a_sequence_split_over_two_runs_is_gathered(self):
        """Interleaved ids: the run pairing has to sort, and still attends
        every key of the sequence, not just its first run."""
        case = self._case([0, 1, 0], [0, 1, 0, 1, 1, 0])
        ref_out, ref_lse = reference_attention_with_lse(
            case["q"], case["k"], case["v"],
            **{key: case[key] for key in ("q_pos", "k_pos", "q_seq", "k_seq")},
        )
        _assert_same(_call(case), ref_out, ref_lse)

    def test_runs_must_span_the_shard(self):
        with pytest.raises(ValueError, match="run offsets"):
            ShardedKV(
                k=np.zeros((3, 1, 4)), v=np.zeros((3, 1, 4)),
                positions=np.arange(3), seq_ids=np.zeros(3, dtype=np.int64),
                runs=np.array([0, 2]),
            )


class TestPaddingRule:
    @given(
        st.lists(st.tuples(st.integers(1, 40), st.integers(1, 3000)), min_size=1, max_size=24)
    )
    @settings(**SETTINGS)
    def test_every_batch_pads_to_at_most_twice_its_area(self, segments):
        rows = np.array([r for r, _ in segments])
        keys = np.array([k for _, k in segments])
        groups = _pad_groups(rows, keys)
        members = np.concatenate([np.arange(len(rows))[g] for g, _, _ in groups])
        assert sorted(members.tolist()) == list(range(len(rows)))  # a partition
        for g, max_rows, max_keys in groups:
            r, k = rows[g], keys[g]
            assert (max_rows, max_keys) == (r.max(), k.max())  # the padded shape it reports
            assert len(r) * max_rows * max_keys <= 2 * (r * k).sum()

    def test_short_sequences_are_not_padded_to_a_long_one(self):
        rows = np.array([4] * 10 + [500])
        keys = np.array([30] * 10 + [2000])
        long_batch, short_batch = (np.arange(11)[g].tolist() for g, _, _ in _pad_groups(rows, keys))
        # the rule lets the long sweep carry one short rider (2x its area,
        # exactly); the other nine are swept at their own size
        assert long_batch[0] == 10 and len(long_batch) <= 2
        assert sorted(long_batch[1:] + short_batch) == list(range(10))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        rows, keys = rng.integers(1, 50, 30), rng.integers(1, 900, 30)
        a, b = _pad_groups(rows, keys), _pad_groups(rows.copy(), keys.copy())
        assert [np.arange(30)[g].tolist() for g, _, _ in a] == [np.arange(30)[g].tolist() for g, _, _ in b]
