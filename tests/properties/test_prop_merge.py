"""Property-based tests: merge attention is an exact, well-behaved monoid."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.flash import AttentionResult, flash_attention
from repro.attention.reference import reference_attention_with_lse
from repro.core.merge import RunningSum, merge_partials

from helpers import OnlineSoftmaxState, layout_of

SETTINGS = dict(max_examples=40, deadline=None)


def qkv_strategy(draw, max_tokens=24):
    seed = draw(st.integers(0, 2**31 - 1))
    tq = draw(st.integers(1, 8))
    tk = draw(st.integers(1, max_tokens))
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((tq, 4, 8))
    k = rng.standard_normal((tk, 2, 8))
    v = rng.standard_normal((tk, 2, 8))
    return q, k, v, tq, tk


@st.composite
def attention_case(draw):
    q, k, v, tq, tk = qkv_strategy(draw)
    # queries positioned at the tail so most keys are visible
    q_pos = np.arange(tk - tq, tk) if tk >= tq else np.arange(tq)
    k_pos = np.arange(tk)
    n_chunks = draw(st.integers(1, min(6, tk)))
    edges = np.linspace(0, tk, n_chunks + 1, dtype=int)
    return q, k, v, q_pos, k_pos, edges


class TestMergeProperties:
    @given(attention_case())
    @settings(**SETTINGS)
    def test_chunked_merge_equals_monolithic(self, case):
        """For ANY chunking of the KV range, merging partials is exact."""
        q, k, v, q_pos, k_pos, edges = case
        full_out, full_lse = reference_attention_with_lse(q, k, v, q_pos=q_pos, k_pos=k_pos)
        partials = []
        for lo, hi in zip(edges, edges[1:]):
            o, l = reference_attention_with_lse(
                q, k[lo:hi], v[lo:hi], q_pos=q_pos, k_pos=k_pos[lo:hi]
            )
            partials.append(AttentionResult(out=o, lse=l))
        merged = merge_partials(partials)
        np.testing.assert_allclose(merged.out, full_out, atol=1e-9)
        np.testing.assert_allclose(merged.lse, full_lse, atol=1e-9)

    @given(attention_case(), st.randoms())
    @settings(**SETTINGS)
    def test_merge_order_invariance(self, case, pyrandom):
        """Merging is commutative: any permutation of partials agrees."""
        q, k, v, q_pos, k_pos, edges = case
        partials = []
        for lo, hi in zip(edges, edges[1:]):
            o, l = reference_attention_with_lse(
                q, k[lo:hi], v[lo:hi], q_pos=q_pos, k_pos=k_pos[lo:hi]
            )
            partials.append(AttentionResult(out=o, lse=l))
        shuffled = list(partials)
        pyrandom.shuffle(shuffled)
        a = merge_partials(partials)
        b = merge_partials(shuffled)
        np.testing.assert_allclose(a.out, b.out, atol=1e-9)
        np.testing.assert_allclose(a.lse, b.lse, atol=1e-9)

    @given(attention_case())
    @settings(**SETTINGS)
    def test_merge_associativity(self, case):
        """merge(merge(a, b), c) == merge(a, merge(b, c)) == merge(a,b,c)."""
        q, k, v, q_pos, k_pos, _ = case
        tk = k.shape[0]
        edges = np.linspace(0, tk, 4, dtype=int)
        parts = []
        for lo, hi in zip(edges, edges[1:]):
            o, l = reference_attention_with_lse(
                q, k[lo:hi], v[lo:hi], q_pos=q_pos, k_pos=k_pos[lo:hi]
            )
            parts.append(AttentionResult(out=o, lse=l))
        left = merge_partials([merge_partials(parts[:2]), parts[2]])
        right = merge_partials([parts[0], merge_partials(parts[1:])])
        flat = merge_partials(parts)
        np.testing.assert_allclose(left.out, right.out, atol=1e-9)
        np.testing.assert_allclose(left.out, flat.out, atol=1e-9)
        np.testing.assert_allclose(left.lse, flat.lse, atol=1e-9)

    @given(attention_case())
    @settings(**SETTINGS)
    def test_output_in_value_convex_hull(self, case):
        """Attention output per head lies inside the values' bounding box
        (softmax weights are a convex combination)."""
        q, k, v, q_pos, k_pos, edges = case
        partials = []
        for lo, hi in zip(edges, edges[1:]):
            o, l = reference_attention_with_lse(
                q, k[lo:hi], v[lo:hi], q_pos=q_pos, k_pos=k_pos[lo:hi]
            )
            partials.append(AttentionResult(out=o, lse=l))
        merged = merge_partials(partials)
        vmin, vmax = v.min() - 1e-9, v.max() + 1e-9
        visible = ~np.isneginf(merged.lse)
        assert np.all(merged.out[visible] >= vmin)
        assert np.all(merged.out[visible] <= vmax)


# ---------------------------------------------------------------------- #
# one-shot Equation 4 vs the sequential recurrence (exactness twin of
# bench_merge_partials_cp4)
# ---------------------------------------------------------------------- #


def _sequential(partials):
    state = OnlineSoftmaxState(partials[0].out.shape, partials[0].lse.shape)
    for p in partials:
        state.update(p.out, p.lse)
    return state.finalize()


@st.composite
def partial_set(draw):
    """N partials of one ``[T, NH, DH]`` query block with the empties the
    rings produce: whole partials (a skipped shard), rows empty in every
    partial (pad queries), rows empty in some; optionally float32."""
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(1, 6))
    t, nh, dh = draw(st.integers(1, 6)), draw(st.sampled_from([1, 4])), 4
    rng = np.random.default_rng(seed)
    empty_partials = draw(st.sets(st.integers(0, n - 1), max_size=n))
    dead_rows = draw(st.sets(st.integers(0, t - 1), max_size=t))
    partials = []
    for i in range(n):
        lse = rng.normal(scale=draw(st.sampled_from([1.0, 30.0])), size=(t, nh))
        out = rng.standard_normal((t, nh, dh))
        dark = rng.random((t, nh)) < 0.15
        if i in empty_partials:
            dark[:] = True
        dark[sorted(dead_rows)] = True
        lse[dark], out[dark] = -np.inf, 0.0
        if draw(st.booleans()):
            lse, out = lse.astype(np.float32), out.astype(np.float32)
        partials.append(AttentionResult(out=out, lse=lse))
    return partials


class TestOneShotEqualsSequential:
    @given(partial_set())
    @settings(**SETTINGS)
    def test_value_and_structure(self, partials):
        with np.errstate(invalid="raise"):  # no inf - inf on the way, NaN-then-masked or not
            merged = merge_partials(partials)
        ref_out, ref_lse = _sequential(partials)
        assert merged.out.dtype == merged.lse.dtype == np.float64
        empty = np.isneginf(ref_lse)
        assert np.array_equal(np.isneginf(merged.lse), empty)  # identical -inf structure
        assert np.all(merged.out[empty] == 0)
        np.testing.assert_allclose(merged.out, ref_out, atol=1e-12, rtol=0)
        np.testing.assert_allclose(merged.lse[~empty], ref_lse[~empty], atol=1e-12, rtol=0)

    def test_single_float64_partial_is_returned_as_is(self):
        rng = np.random.default_rng(0)
        one = AttentionResult(out=rng.standard_normal((3, 2, 4)), lse=rng.standard_normal((3, 2)))
        assert merge_partials([one]) is one

    def test_single_float32_partial_is_promoted(self):
        rng = np.random.default_rng(1)
        one = AttentionResult(
            out=rng.standard_normal((3, 2, 4)).astype(np.float32),
            lse=rng.standard_normal((3, 2)).astype(np.float32),
        )
        merged = merge_partials([one])
        ref_out, ref_lse = _sequential([one])
        assert merged.out.dtype == np.float64
        np.testing.assert_allclose(merged.out, ref_out, atol=1e-12, rtol=0)
        np.testing.assert_allclose(merged.lse, ref_lse, atol=1e-12, rtol=0)

    def test_all_partials_empty(self):
        empties = [AttentionResult.empty(4, 2, 8) for _ in range(3)]
        merged = merge_partials(empties)
        assert np.all(merged.out == 0) and np.all(np.isneginf(merged.lse))


# ---------------------------------------------------------------------- #
# a rank's running shift-free sums vs one-shot Equation 4 (exactness twin
# of bench_ring_passkv_cp4 and bench_ring_decode_cp4)
# ---------------------------------------------------------------------- #


class TestRunningSum:
    @given(attention_case(), st.lists(st.booleans(), min_size=6, max_size=6), st.booleans())
    @settings(**SETTINGS)
    def test_sums_add_to_the_one_shot_merge(self, case, normalised, frozen):
        """Each KV chunk's kernel sums added as they arrive — some chunks
        handed over already normalised, as a step whose range check failed
        is, and every pair frozen as a collective delivers it, or writable
        as the rank's own kernel returns it — equal one-shot Eq. 4 over the
        normalised chunks and the reference, with the identical ``-inf``
        rows, and never write into a frozen pair. Kills: a step's sums
        dropped; a normalised partial merged without the running sums; the
        first frozen pair added into."""
        q, k, v, q_pos, k_pos, edges = case
        running, partials, kept = RunningSum(), [], []
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            layout = layout_of(q, k[lo:hi], q_pos=q_pos, k_pos=k_pos[lo:hi])
            acc, den = flash_attention(q, k[lo:hi], v[lo:hi], layout, block_size=4)
            whole = AttentionResult.from_sums(acc.copy(), den)
            partials.append(whole)
            if normalised[i]:
                running.add(whole)
                continue
            if frozen:
                acc.flags.writeable = den.flags.writeable = False
                kept.append((acc, acc.copy(), den, den.copy()))
            running.add((acc, den))
        with np.errstate(all="raise"):
            merged = running.result(*q.shape)
        one_shot = merge_partials(partials)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, q_pos=q_pos, k_pos=k_pos)
        for out, lse in ((merged.out, merged.lse), (one_shot.out, one_shot.lse)):
            empty = np.isneginf(ref_lse)
            assert np.array_equal(np.isneginf(lse), empty) and np.all(out[empty] == 0)
            np.testing.assert_allclose(out, ref_out, atol=1e-12, rtol=0)
            np.testing.assert_allclose(lse[~empty], ref_lse[~empty], atol=1e-12, rtol=0)
        for acc, acc_then, den, den_then in kept:
            assert np.array_equal(acc, acc_then) and np.array_equal(den, den_then)

    def test_nothing_added_is_the_identity(self):
        merged = RunningSum().result(3, 2, 4)
        assert np.all(merged.out == 0) and np.all(np.isneginf(merged.lse))
