"""Blocked online-softmax attention with LSE output (flash-style).

This kernel mirrors the contract of FlashAttention-3 / Flash-Decoding that
the production system uses: it walks the key/value tensor in blocks, keeps a
running online-softmax state per (query token, head), and returns both the
attention output ``O`` and the log-sum-exp ``LSE``.

The blocked structure is not a performance affectation — it is load-bearing
for the reproduction:

- It proves that the library's merge attention (:mod:`repro.core.merge`,
  paper Appendix B) composes *exactly*: a ring algorithm that merges K
  partial results from K disjoint KV shards must produce the same output
  as a single monolithic kernel call, because both evaluate the same
  online-softmax recurrence (Equation 4).
- ``num_kv_splits`` emulates Flash-Decoding's split-KV execution (the paper
  uses 256 splits for decode) by computing independent partials per split
  and merging them, again through the same recurrence.

The kernel is a *fused grouped-head* implementation: Q is laid out once as
``[NKV, DH, R * G]`` (``G = NH / NKV`` query heads per KV head), the score
scale folded in by the same pass, and contracted directly against
``[L_blk, NKV, DH]`` KV blocks through batched BLAS matmuls, so no per-block
``expand_kv_heads`` copy is ever materialized (:mod:`repro.attention.reference`
remains the independent full-materialization oracle). The permission mask is
computed once per call and each block is classified once from its slice: no
visible pair — skipped outright (the identity under the online-softmax
recurrence); otherwise only the contiguous band of query rows that see a key
*and* the band of keys some row sees are computed (causal full prefill: about
half the score work; a load-balanced shard's late chunk is invisible to every
row of a later rank). The block's scores live in **one reused score tile**, a
slice of a module-level scratch buffer that is never handed to a caller, laid
out keys-major when it holds at least as many query columns as keys (prefill)
and rows-major otherwise (decode); ``-inf`` never reaches ``exp``. The sweep
is **shift-free**: scores are exponentiated as they are, blocks *add*
(``den += sum P``, ``acc += P . V``, in float64) and ``O = acc / den``,
``LSE = log den`` happen once — Eq. 4 at shift 0: no row max, no subtraction,
no rescaling between blocks. An a-posteriori **range check** on ``den`` makes
that sound, not hopeful (:func:`_sweep_additive`); a call that fails it is
swept again by the shifted online-softmax sweep (:func:`_sweep_shifted`), which
is sound for any finite scores. Either way what leaves a sweep is ``(O, LSE)``.
One query row per segment with its keys in one block — a decode token — is
that sweep's **one-row base case**: scores straight into fresh memory, one
``exp``, ``den`` and ``acc`` at once, under the same range check and fallback.

**Varlen (sequence-segmented) sweep.** A fused batch — several sequences
concatenated on the key side, as a rank's KV shard is — never lets a query
see another sequence's keys, so a dense ``[Tq, Tk]`` sweep spends its time
on blocks that straddle sequences and are almost entirely masked. Every
tensor in the sweep therefore carries a leading *segment* axis ``S``:
``[S, NKV, R * G, DH] x [S, NKV, DH, L_blk]``. When the key side holds one
sequence (or ``mask_fn`` overrides the predicate, which has to see the
whole call) the call *is* the one segment, ``S = 1``, under its full mask.
When it holds two or more, query and key runs are paired by sequence id,
gathered into padded ``[S, R_max]`` / ``[S, L_max]`` layouts, and the same
sweep runs once over all pairs — work proportional to ``sum_i R_i * L_i``
instead of ``Tq * sum_i L_i``, one pass of NumPy ops per call instead of
one per straddling block. Padding slots and ``PAD_SEQ`` runs are simply
masked, so rows with no visible key still come back ``O = 0, LSE = -inf``.
Segments of very different size are not padded to the largest:
:func:`_pad_groups` batches them under a deterministic cost rule (padded
area at most twice the true area). The run structure arrives with the
shards: ``q_runs`` / ``k_runs`` take the ``cu_seqlens`` offsets or the
``(offsets, {seq_id: run})`` pair :class:`repro.core.sharding.ShardedKV`
carries, which leaves nothing to scan at any of the N ring steps; a caller
with neither costs one scan, and an interleaved shard one stable sort.

Knobs:

- ``compute_dtype``: dtype for score/softmax/value arithmetic inside the
  kernel (default ``float64``). The online-softmax merge accumulators stay
  ``float64`` regardless, so ``float32`` compute still merges losslessly —
  the mixed-precision split of Mao et al. (arXiv:2401.08586). The default
  agrees with :func:`reference_attention_with_lse` to ``atol=1e-12`` with
  the identical ``O = 0, LSE = -inf`` structure (not bit for bit: the scale
  fold, summation order and BLAS operand shapes move last bits).
- ``skip_masked_blocks``: disable the all-masked block skip and the row and
  key bands (benchmark A/B only; same results to that contract).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from repro.attention.gqa import validate_gqa_shapes
from repro.attention.masks import attention_mask, run_index, run_offsets
from repro.attention.online_softmax import OnlineSoftmaxState

#: Kernel-internal arithmetic dtype when ``compute_dtype`` is not given.
DEFAULT_COMPUTE_DTYPE = np.float64


@dataclass(frozen=True)
class AttentionResult:
    """Partial or final attention result: output plus log-sum-exp.

    Attributes:
        out: ``[T, NH, DH]`` attention output.
        lse: ``[T, NH]`` log-sum-exp of the (scaled, masked) scores.
    """

    out: np.ndarray
    lse: np.ndarray

    @property
    def tokens(self) -> int:
        return self.out.shape[0]

    def astype(self, dtype) -> "AttentionResult":
        return AttentionResult(self.out.astype(dtype), self.lse.astype(dtype))

    @staticmethod
    def empty(tokens: int, n_heads: int, head_dim: int) -> "AttentionResult":
        """Fully-masked result: zero output, ``LSE = -inf`` — the identity
        element of merge attention. Used by the ring algorithms to stand in
        for skipped (provably all-masked) partials."""
        return AttentionResult(
            out=np.zeros((tokens, n_heads, head_dim), dtype=np.float64),
            lse=np.full((tokens, n_heads), -np.inf, dtype=np.float64),
        )


def flash_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    q_pos: np.ndarray | None = None,
    k_pos: np.ndarray | None = None,
    q_seq: np.ndarray | None = None,
    k_seq: np.ndarray | None = None,
    causal: bool = True,
    scale: float | None = None,
    block_size: int = 128,
    num_kv_splits: int = 1,
    mask_fn=None,
    compute_dtype=None,
    skip_masked_blocks: bool = True,
    q_runs: np.ndarray | None = None,
    k_runs: np.ndarray | None = None,
) -> AttentionResult:
    """Blocked exact GQA attention returning :class:`AttentionResult`.

    Args:
        q, k, v: GQA tensors ``[Tq, NH, DH]`` / ``[Tk, NKV, DH]``.
        q_pos, k_pos, q_seq, k_seq: token coordinates (see
            :mod:`repro.attention.masks`).
        causal: apply the causal predicate.
        scale: score scale, default ``1/sqrt(DH)``.
        block_size: KV block length for the online-softmax sweep.
        num_kv_splits: emulate Flash-Decoding split-KV: the KV range is cut
            into this many independent partials, merged at the end. The
            result is exact for any split count.
        mask_fn: optional mask override in absolute coordinates (see
            :func:`repro.attention.reference.reference_attention_with_lse`);
            enables windowed/sink attention through the same kernel. The
            override sees the whole call, so it is never segmented.
        compute_dtype: kernel arithmetic dtype (default ``float64``; the
            merge accumulation is always ``float64``).
        skip_masked_blocks: skip all-masked KV blocks and trim each block to
            the rows and keys that see each other (default). Same results
            either way, to the ``atol=1e-12`` contract.
        q_runs, k_runs: ``cu_seqlens``-style offsets of the constant
            ``q_seq`` / ``k_seq`` runs, or the ``(offsets, {seq_id: run})``
            pair :class:`repro.core.sharding.ShardedKV` carries (the index
            in run order); found by one scan when omitted.

    Returns:
        Exact ``(O, LSE)`` for the full masked attention.
    """
    tq, tk, nh, nkv = validate_gqa_shapes(q, k, v)
    dh = q.shape[-1]
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    if num_kv_splits <= 0:
        raise ValueError(f"num_kv_splits must be positive, got {num_kv_splits}")
    if tk == 0 or tq == 0:
        return AttentionResult.empty(tq, nh, dh)
    if q_pos is None:
        q_pos = np.arange(tq, dtype=np.int64)
    if k_pos is None:
        k_pos = np.arange(tk, dtype=np.int64)
    q_pos = np.asarray(q_pos)
    k_pos = np.asarray(k_pos)
    if scale is None:
        scale = 1.0 / math.sqrt(dh)
    dtype = np.dtype(DEFAULT_COMPUTE_DTYPE if compute_dtype is None else compute_dtype)
    if dtype.kind != "f":
        raise ValueError(f"compute_dtype must be a real floating dtype, got {dtype}")
    sweep = (scale, block_size, num_kv_splits, skip_masked_blocks, dtype)

    # Segmenting pays once the key side fuses >= 2 sequences.
    k_side = None
    if mask_fn is None and k_seq is not None:
        k_side = _sequence_runs(k_seq, k_runs)
    if k_side is None or len(k_side[2]) < 2:
        # One segment: the whole call under its full [Tq, Tk] mask.
        if mask_fn is not None:
            mask = np.asarray(mask_fn(q_pos, k_pos, q_seq, k_seq), dtype=bool)
            if mask.shape != (tq, tk):
                raise ValueError(f"mask_fn returned shape {mask.shape}, expected {(tq, tk)}")
        else:
            mask = attention_mask(q_pos, k_pos, q_seq, k_seq, causal=causal)
        out, lse = _attend(q[None], k[None], v[None], mask[None], *sweep)
        return AttentionResult(out=out[0], lse=lse[0])

    # The key side fuses several sequences: a query only ever sees its own
    # sequence's keys, so pair the runs by sequence id and attend each pair
    # as one segment of a padded batch.
    q_seq = np.zeros(tq, dtype=np.int64) if q_seq is None else np.asarray(q_seq)
    k_seq = np.asarray(k_seq)
    if q_pos.shape != q_seq.shape:
        raise ValueError(f"q_pos {q_pos.shape} and q_seq {q_seq.shape} must match")
    if k_pos.shape != k_seq.shape:
        raise ValueError(f"k_pos {k_pos.shape} and k_seq {k_seq.shape} must match")
    q_order, q_off, q_index = _sequence_runs(q_seq, q_runs)
    k_order, k_off, k_index = k_side
    q_off, k_off = q_off.tolist(), k_off.tolist()
    spans = [  # (q start, rows, k start, keys) per pair
        (q_off[i], q_off[i + 1] - q_off[i], k_off[j], k_off[j + 1] - k_off[j])
        for sid, i in q_index.items()
        if (j := k_index.get(sid)) is not None
    ]
    spans.sort()  # query storage order, whatever order the index came in
    if not spans:
        return AttentionResult.empty(tq, nh, dh)
    q_start, rows, k_start, keys = np.array(spans).T
    result = None
    for group, max_rows, max_keys in _pad_groups(rows, keys):
        qi, q_valid = _padded_index(q_start[group], rows[group], max_rows, q_order)
        ki, k_valid = _padded_index(k_start[group], keys[group], max_keys, k_order)
        if causal:
            mask = k_pos.take(ki)[:, None, :] <= q_pos.take(qi)[:, :, None]
        else:
            mask = np.ones(qi.shape + ki.shape[1:], dtype=bool)
        if q_valid is not None:
            mask &= q_valid[:, :, None]
        if k_valid is not None:
            mask &= k_valid[:, None, :]
        out, lse = _attend(q.take(qi, 0), k.take(ki, 0), v.take(ki, 0), mask, *sweep)
        if qi.size == tq and q_valid is None and q_order is None and isinstance(group, slice):
            # one unpadded batch of every query row, in storage order
            return AttentionResult(out.reshape(tq, nh, dh), lse.reshape(tq, nh))
        if result is None:
            result = AttentionResult.empty(tq, nh, dh)
        kept = slice(None) if q_valid is None else q_valid
        result.out[qi[kept]] = out[kept]
        result.lse[qi[kept]] = lse[kept]
    return result


def _sequence_runs(seq: np.ndarray, runs):
    """Locate each non-pad sequence's tokens as one run of ``seq``, given
    its run offsets, the ``(offsets, index)`` pair a shard carries (nothing
    left to scan) or ``None``.

    Returns ``(order, offsets, index)``: sequence ``sid`` is tokens
    ``order[offsets[i]:offsets[i + 1]]`` with ``i = index[sid]``; ``order``
    is ``None`` (storage order) unless some sequence was split over several
    runs — an interleaved shard — and a stable sort had to gather it.
    """
    offsets, index = runs if isinstance(runs, tuple) else (runs, None)
    if index is not None:
        return None, offsets, index
    seq = np.asarray(seq)
    if offsets is None:
        offsets = run_offsets(seq)
    order = None
    index = run_index(seq, offsets)
    if index is None:
        order = np.argsort(seq, kind="stable")
        offsets = run_offsets(seq[order])
        index = run_index(seq[order], offsets)
    return order, offsets, index


def _pad_groups(rows: np.ndarray, keys: np.ndarray) -> list:
    """Partition segments into batches padded to a common ``[rows, keys]``;
    returns ``(segments, max rows, max keys)`` per batch.

    Deterministic cost rule: a batch's padded area (segments x max rows x
    max keys) stays within ``2x`` its true area, so one long sequence fused
    with many short ones is swept on its own instead of padding the short
    ones to its length. Segments are taken longest-keys first; each batch
    grows greedily until the next segment would break the rule.
    """
    row_list, key_list = rows.tolist(), keys.tolist()
    max_rows, max_keys = max(row_list), max(key_list)
    if len(row_list) * max_rows * max_keys <= 2 * sum(map(mul, row_list, key_list)):
        return [(slice(None), max_rows, max_keys)]
    groups, current = [], []
    true = max_rows = 0
    for seg in np.lexsort((-rows, -keys)).tolist():
        seg_rows, seg_area = row_list[seg], row_list[seg] * key_list[seg]
        grown = (len(current) + 1) * max(max_rows, seg_rows) * max_keys
        if current and grown > 2 * (true + seg_area):
            groups.append((np.array(current), max_rows, max_keys))
            current, true, max_rows = [], 0, 0
        if not current:
            max_keys = key_list[seg]
        current.append(seg)
        true += seg_area
        max_rows = max(max_rows, seg_rows)
    groups.append((np.array(current), max_rows, max_keys))
    return groups


def _padded_index(starts: np.ndarray, lengths: np.ndarray, width: int, order: np.ndarray | None):
    """``[S, width]`` gather indices of ``S`` token runs (``width`` is the
    longest) plus their validity mask — ``None`` when no run is shorter;
    padding slots repeat each run's first token."""
    index, valid = starts[:, None], None
    if width > 1:  # (no run is empty: at width 1 each is exactly its first token)
        lane = np.arange(width)
        valid = lane < lengths[:, None]
        if valid.all():
            valid = None
        else:
            lane = np.where(valid, lane, 0)
        index = index + lane
    return (index if order is None else order[index]), valid


def _attend(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray,
    scale: float,
    block_size: int,
    num_kv_splits: int,
    skip_masked_blocks: bool,
    dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Attend ``S`` independent segments: ``q [S, R, NH, DH]`` against
    ``k, v [S, L, NKV, DH]`` under ``mask [S, R, L]``; returns
    ``(out [S, R, NH, DH], lse [S, R, NH])``."""
    s, r, nh, dh = q.shape
    length, nkv = k.shape[1], k.shape[2]
    g = nh // nkv
    # One [DH, R * G] matrix per (segment, KV head): column t*G + g' is query
    # head nkv*G + g' of token t. Contracting a [L_blk, DH] KV block against
    # it is the "indexing instead of copying" GQA layout — no
    # expand_kv_heads. The one pass that lays it out also folds in the score
    # scale, and always writes a buffer of the kernel's own (a no-op
    # transpose must not hand back the caller's ``q``).
    qt = np.multiply(
        q.reshape(s, r, nkv, g, dh).transpose(0, 2, 4, 1, 3), scale, dtype=dtype, order="C"
    ).reshape(s, nkv, dh, r * g)
    kb = np.asarray(k, dtype=dtype).transpose(0, 2, 1, 3)  # [S, NKV, L, DH]
    vb = np.asarray(v, dtype=dtype).transpose(0, 2, 1, 3)

    if num_kv_splits == 1:
        return _sweep_range(qt, kb, vb, mask, block_size, 0, length, skip_masked_blocks, g)
    split_edges = np.linspace(0, length, num_kv_splits + 1, dtype=np.int64)
    state = OnlineSoftmaxState(out_shape=(s, r, nh, dh), lse_shape=(s, r, nh))
    for split in range(num_kv_splits):
        lo, hi = int(split_edges[split]), int(split_edges[split + 1])
        state.update(*_sweep_range(qt, kb, vb, mask, block_size, lo, hi, skip_masked_blocks, g))
    return state.finalize()


#: One scratch buffer per dtype, grown to the largest tile seen. Score tiles
#: (compute dtype) and expanded masks (bool) are slices of it, so a sweep
#: allocates nothing tile-sized per block. It is never handed to a caller:
#: what a sweep returns is always memory of its own. Not re-entrant.
_WORKSPACE: dict[np.dtype, np.ndarray] = {}
_BOOL = np.dtype(bool)


def _scratch(dtype: np.dtype, size: int) -> np.ndarray:
    """The flat scratch buffer of ``dtype``, at least ``size`` long."""
    buf = _WORKSPACE.get(dtype)
    if buf is None or buf.size < size:
        buf = _WORKSPACE[dtype] = np.empty(size, dtype=dtype)
    return buf


def _band(visible: np.ndarray) -> tuple[int, int]:
    """``[first, last + 1)`` of the set entries of a 1-D mask that has one."""
    if visible[0] and visible[-1]:
        return 0, visible.size
    return int(visible.argmax()), visible.size - int(visible[::-1].argmax())


def _keys_major(columns: int, keys: int) -> bool:
    """The aspect rule: lay a tile of ``columns = R * G`` query columns by
    ``keys`` out keys-major once a row of columns is at least as long as a
    row of keys (prefill: 512 x 128), rows-major otherwise (decode: 4 x 30)."""
    return columns >= keys


def _sweep_range(*sweep) -> tuple[np.ndarray, np.ndarray]:
    """Grouped-head sweep over KV storage slice ``[lo, hi)`` of (pre-scaled)
    ``qt [S, NKV, DH, R * G]`` against ``kb, vb [S, NKV, L, DH]``: shift-free
    where its range check passes — in practice always — else shifted."""
    return _sweep_additive(*sweep) or _sweep_shifted(*sweep)


def _score_tiles(qt, kb, mask, block_size, lo, hi, skip_masked_blocks, g):
    """The block loop both reducers share. Each visible block of ``[lo, hi)``
    is classified once, trimmed to the band of rows and the band of keys that
    see each other, and its scores written into one reused tile
    (:data:`_WORKSPACE`), keys-major when it has at least as many query
    columns as keys. Yields ``(r0, r1, start, stop, tile, view, seeing,
    keys_axis)``: ``seeing`` is the mask laid out like ``view`` (the tile, or
    its ``[S, NKV, R, G, keys]`` form), ``None`` when every pair is visible."""
    s, nkv = qt.shape[:2]
    tq = mask.shape[1]
    qg, kt = qt.swapaxes(-1, -2), kb.swapaxes(-1, -2)  # [S, NKV, R * G, DH], [S, NKV, DH, L]
    scratch = _scratch(qt.dtype, s * nkv * tq * g * min(block_size, hi - lo))
    for start in range(lo, hi, block_size):
        stop = min(start + block_size, hi)
        mb = mask[:, :, start:stop]
        # Classify the block once — no pair visible (the identity), all, or
        # some — inside the bands of rows and keys that hold every visible pair.
        seen = np.count_nonzero(mb)
        r0, r1 = 0, tq
        if skip_masked_blocks and seen < mb.size:
            if seen == 0:
                continue
            if tq > 1:  # (a one-row tile is all fixed cost: scanning it costs more than it trims)
                r0, r1 = _band(mb.any(axis=(0, 2)))
                k0, k1 = _band(mb.any(axis=(0, 1)))
                start, stop = start + k0, start + k1
                mb = mask[:, r0:r1, start:stop]
        r, blk = r1 - r0, stop - start
        size = s * nkv * r * g * blk
        seeing = None if seen == s * r * blk else mb[:, None, :, None, :]

        # tile[s, n, (t, g'), j] = scale * q[s, t, n*G+g'] . k[s, j, n], or
        # keys-major, its transpose: reductions over keys then run down the
        # leading axis at SIMD width (see _keys_major for when that pays).
        if _keys_major(r * g, blk):
            keys_axis = -2
            tile = view = scratch[:size].reshape(s, nkv, blk, r * g)
            np.matmul(kb[:, :, start:stop], qt[..., r0 * g : r1 * g], out=tile)
            if seeing is not None:  # G is the innermost axis: expand the mask over it
                n = size // nkv
                seeing = _scratch(_BOOL, n)[:n].reshape(s, 1, blk, r * g)
                np.copyto(seeing.reshape(s, blk, r, g), mb.transpose(0, 2, 1)[..., None])
        else:
            keys_axis = -1
            tile = scratch[:size].reshape(s, nkv, r * g, blk)
            np.matmul(qg[:, :, r0 * g : r1 * g], kt[..., start:stop], out=tile)
            view = tile.reshape(s, nkv, r, g, blk)
        yield r0, r1, start, stop, tile, view, seeing, keys_axis


@functools.cache
def _den_range(dtype: np.dtype) -> tuple[float, float]:
    """``[sqrt(tiny), sqrt(max)]`` of ``dtype``: where a shift-free ``den`` must end."""
    limits = np.finfo(dtype)
    return math.sqrt(limits.tiny), math.sqrt(limits.max)


def _sweep_additive(qt, kb, vb, mask, block_size, lo, hi, skip_masked_blocks, g):
    """The shift-free sweep — Eq. 4 at shift 0. Blocks add: ``den += sum
    exp(scores)``, ``acc += exp(scores) . V``, both float64 whatever the
    compute dtype; ``O = acc / den`` and ``LSE = log den`` once, at the end.

    Sound only while ``exp`` stays in range, which is checked afterwards:
    every row the mask says sees a key must end with ``den`` inside
    ``[sqrt(tiny), sqrt(max)]`` of the compute dtype — no term overflowed,
    and a term that underflowed or went subnormal is below ``sqrt(tiny)`` of
    the sum — and with a finite output; a zero ``den`` is a blind row only
    where the mask agrees. Returns ``None`` on any violation (the caller
    re-runs the range shifted)."""
    s, nkv, dh = qt.shape[:3]
    tq = mask.shape[1]
    den_min, den_max = _den_range(qt.dtype)
    acc = den = None  # grouped [S, NKV, R, G, ...], float64 whatever the compute dtype
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if tq == 1 and hi - lo <= block_size:
            # The one-row base case — a decode token per segment, its keys in
            # one block: no bands to find, no tile to reuse, no sums to carry.
            # Scores go straight into fresh memory, where nothing is -inf, so
            # exp runs over all of them and the unseen ones are dropped after.
            tiles = ()
            p = np.matmul(qt.swapaxes(-1, -2), kb[:, :, lo:hi].swapaxes(-1, -2))  # [S, NKV, G, keys]
            p = np.where(mask[:, :, None, lo:hi], np.exp(p, out=p), 0.0)
            acc = np.matmul(p, vb[:, :, lo:hi])[:, :, None].astype(np.float64, copy=False)
            den = p.sum(axis=-1)[:, :, None].astype(np.float64, copy=False)
        else:
            tiles = _score_tiles(qt, kb, mask, block_size, lo, hi, skip_masked_blocks, g)
        for r0, r1, start, stop, tile, view, seeing, keys_axis in tiles:
            # -inf never reaches exp (it drops NumPy's SIMD exp onto a scalar
            # fallback, 3-8x slower): a partial tile takes exp over visible
            # entries only and zeroes the finite leftovers.
            if seeing is None:
                np.exp(tile, out=tile)
            else:
                np.exp(view, out=view, where=seeing)
                view *= seeing
            r = r1 - r0
            p = tile.swapaxes(-1, -2) if keys_axis == -2 else tile
            o = np.matmul(p, vb[:, :, start:stop]).reshape(s, nkv, r, g, dh)
            d = tile.sum(axis=keys_axis).reshape(s, nkv, r, g)
            if acc is None:
                if r == tq:  # sums start at their first term: fresh memory, never the tile's
                    acc, den = o.astype(np.float64, copy=False), d.astype(np.float64, copy=False)
                    continue
                acc, den = np.zeros((s, nkv, tq, g, dh)), np.zeros((s, nkv, tq, g))
            acc[:, :, r0:r1] += o
            den[:, :, r0:r1] += d
        if acc is None:  # no visible block at all
            return np.zeros((s, tq, nkv * g, dh)), np.full((s, tq, nkv * g), -np.inf)

        highest, lowest = den.max(), den.min()
        lse = np.log(den.transpose(0, 2, 1, 3), order="C")  # log 0 = -inf: the rows that saw no key ...
        if lowest == 0.0:  # ... which a zero den means only where the mask agrees
            sighted = mask[:, :, lo:hi].any(axis=2)[:, None, :, None]
            lowest = den.min(where=sighted, initial=den_max)
            den = np.where(sighted, den, 1.0)  # (their acc is 0 already, or the sum below is not finite)
        # One divide per row, not per element, in the pass that ungroups the heads.
        weight = np.reciprocal(den).transpose(0, 2, 1, 3)[..., None]
        out = np.multiply(acc.transpose(0, 2, 1, 3, 4), weight, order="C")
        if not (den_min <= lowest and highest <= den_max and math.isfinite(out.sum())):
            return None
    return out.reshape(s, tq, nkv * g, dh), lse.reshape(s, tq, nkv * g)


def _sweep_shifted(qt, kb, vb, mask, block_size, lo, hi, skip_masked_blocks, g):
    """The online-softmax sweep: every block shifted by its row max, sound
    for any finite scores — the general path behind :func:`_sweep_additive`
    and its in-module oracle.

    The first visible block's ``(o, lse)`` *is* the result of a one-block
    range. Only a second block opens the running ``(acc, m, denom)``
    recurrence, in the grouped ``[S, NKV, R, G, ...]`` layout, folding each
    block in place over its row band; untouched rows receive the exact
    identity update, so the result equals folding full-height partials
    through :class:`OnlineSoftmaxState`.
    """
    dtype = qt.dtype
    neg_inf = dtype.type(-np.inf)
    zero = dtype.type(0.0)
    one = dtype.type(1.0)
    s, nkv, dh = qt.shape[:3]
    tq = mask.shape[1]

    acc = m = denom = None
    for r0, r1, start, stop, tile, view, seeing, keys_axis in _score_tiles(
        qt, kb, mask, block_size, lo, hi, skip_masked_blocks, g
    ):
        r = r1 - r0
        dense = seeing is None  # until a row is found that sees no key
        # Softmax over the key axis, the row max broadcasting as one
        # contiguous row of a keys-major tile. A partial tile takes its row
        # max and its exp over visible entries only — their bits are those
        # of the -inf formulation — and zeroes the finite leftovers.
        if dense:
            bm = tile.max(axis=keys_axis, keepdims=True)
            tile -= bm
            p = np.exp(tile, out=tile)
        else:
            bm = view.max(axis=keys_axis, keepdims=True, where=seeing, initial=neg_inf)
            dense = bool(bm.min() > neg_inf)
            view -= bm if dense else np.where(bm == neg_inf, zero, bm)
            np.exp(view, out=view, where=seeing)
            view *= seeing
            p = tile
        bm = bm.reshape(s, nkv, r, g)
        bden = p.sum(axis=keys_axis).reshape(s, nkv, r, g)
        o = np.matmul(
            p.swapaxes(-1, -2) if keys_axis == -2 else p, vb[:, :, start:stop]
        ).reshape(s, nkv, r, g, dh)
        if dense:
            o /= bden[..., None]
            blse = bm + np.log(bden)
        else:  # rows that saw no key: O = 0, LSE = -inf
            empty = bden == 0.0
            bden_safe = np.where(empty, one, bden)
            o /= bden_safe[..., None]
            np.copyto(o, zero, where=empty[..., None])
            blse = np.where(empty, neg_inf, bm + np.log(bden_safe))

        if acc is None:
            # The first block *is* the state: its (o, lse) at full
            # height, rows outside its band having seen no key.
            acc, m = o, blse
            if r < tq:
                acc = np.zeros((s, nkv, tq, g, dh), dtype=np.float64)
                m = np.full((s, nkv, tq, g), -np.inf, dtype=np.float64)
                acc[:, :, r0:r1], m[:, :, r0:r1] = o, blse
            continue
        if denom is None:
            # A second block opens the recurrence; folding the first
            # into the empty state was assignment (weight 1, or 0 — the
            # identity — where no key was visible).
            acc, m = np.asarray(acc, dtype=np.float64), np.asarray(m, dtype=np.float64)
            denom = (m > -np.inf).astype(np.float64)
        # In-place online-softmax fold over the visible row band —
        # identical math to OnlineSoftmaxState.update.
        acc_r, m_r, den_r = acc[:, :, r0:r1], m[:, :, r0:r1], denom[:, :, r0:r1]
        new_m = np.maximum(m_r, blse)
        safe = np.where(np.isinf(new_m), 0.0, new_m)
        old_scale = np.exp(m_r - safe)
        new_scale = np.exp(blse - safe)
        acc_r *= old_scale[..., None]
        o = o.astype(np.float64, copy=False)  # the fold is float64 whatever the compute dtype
        o *= new_scale[..., None]
        acc_r += o
        den_r *= old_scale
        den_r += new_scale
        m_r[...] = new_m

    if denom is not None:
        den_safe = np.where(denom == 0.0, 1.0, denom)
        acc = np.where(denom[..., None] > 0, acc / den_safe[..., None], 0.0)
        m = np.where(denom > 0, m + np.log(den_safe), -np.inf)
    elif acc is None:  # no visible block at all
        acc = np.zeros((s, nkv, tq, g, dh), dtype=np.float64)
        m = np.full((s, nkv, tq, g), -np.inf, dtype=np.float64)
    # (one block: (acc, m) is its (o, lse); finalising would divide by 1, add log 1)
    out = np.ascontiguousarray(acc.transpose(0, 2, 1, 3, 4), dtype=np.float64)
    lse = np.ascontiguousarray(m.transpose(0, 2, 1, 3), dtype=np.float64)
    return out.reshape(s, tq, nkv * g, dh), lse.reshape(s, tq, nkv * g)
