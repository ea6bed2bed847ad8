"""Engine-level prefix cache: match/adopt exactness and index lockstep."""

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.serving.session import ChatSession

MODEL = LlamaModel(tiny_config(), seed=0)
VOCAB = MODEL.config.vocab_size
RNG = np.random.default_rng(3)


def prompt(n):
    return RNG.integers(0, VOCAB, size=n, dtype=np.int64)


def engine(world=2, **kw):
    return ContextParallelEngine(MODEL, world_size=world, **kw)


class TestMatchAdopt:
    def test_disabled_engine_matches_nothing(self):
        eng = engine()
        eng.prefill({0: prompt(8)})
        assert eng.match_prefix(prompt(8)) == (0, None)
        with pytest.raises(RuntimeError):
            eng.adopt_prefix(1, 0, 4)

    def test_a_prefix_sharded_to_another_count_raises(self, monkeypatch):
        """The ranks must share exactly ``length`` tokens between them, or
        ``seq_lengths`` would misdescribe the adopter: a broken count is a
        RuntimeError naming that invariant, also under ``python -O``."""
        from repro.kvcache.cache import RankKVCache

        eng = engine()
        eng.enable_prefix_cache()
        eng.prefill({0: prompt(12)})
        share = RankKVCache.share_prefix
        monkeypatch.setattr(
            RankKVCache, "share_prefix", lambda self, *a: share(self, *a) - (self is eng.caches[0])
        )
        with pytest.raises(RuntimeError, match="must shard to exactly its length"):
            eng.adopt_prefix(1, 0, 8)

    def test_match_tracks_chunked_commits_and_decode(self):
        eng = engine()
        eng.enable_prefix_cache()
        p = prompt(20)
        eng.prefill({0: p[:12]})
        assert eng.match_prefix(p) == (12, 0)
        eng.prefill({0: p[12:]})
        assert eng.match_prefix(p) == (20, 0)
        # decode tokens commit into the index too
        eng.decode({0: 7})
        full = np.concatenate([p, [7]])
        assert eng.match_prefix(np.concatenate([full, [1, 2]])) == (21, 0)

    @pytest.mark.parametrize("world", [1, 2, 3])
    def test_adopted_suffix_prefill_is_exact(self, world):
        shared, tail_a, tail_b = prompt(30), prompt(7), prompt(9)
        eng = ContextParallelEngine(MODEL, world_size=world)
        eng.enable_prefix_cache()
        eng.prefill({0: np.concatenate([shared, tail_a])})
        matched, donor = eng.match_prefix(np.concatenate([shared, tail_b]))
        assert (matched, donor) == (30, 0)
        eng.adopt_prefix(1, 0, 30)
        out = eng.prefill({1: tail_b})

        ref = ContextParallelEngine(MODEL, world_size=world)
        ref_out = ref.prefill({1: np.concatenate([shared, tail_b])})
        np.testing.assert_allclose(
            out.last_logits(1), ref_out.last_logits(1), atol=1e-9, rtol=0
        )

    def test_adopted_generation_matches_reference(self):
        shared, tail = prompt(24), prompt(5)
        ext = prompt(3)
        eng = engine()
        eng.enable_prefix_cache()
        eng.prefill({0: np.concatenate([shared, prompt(6)])})
        eng.adopt_prefix(1, 0, 24)
        eng.prefill({1: tail})
        got = ChatSession(eng, 1).send(ext, max_new_tokens=5).generated

        ref = engine()
        ref.prefill({1: np.concatenate([shared, tail])})
        want = ChatSession(ref, 1).send(ext, max_new_tokens=5).generated
        assert got == want

    def test_adopter_becomes_donor(self):
        eng = engine()
        eng.enable_prefix_cache()
        p = prompt(16)
        eng.prefill({0: np.concatenate([p, prompt(4)])})
        eng.adopt_prefix(1, 0, 16)
        eng.evict(0)
        # donor gone; the adopter's copy still matches
        matched, donor = eng.match_prefix(np.concatenate([p, prompt(2)]))
        assert (matched, donor) == (16, 1)
        eng.adopt_prefix(2, 1, 16)
        assert eng.context_length(2) == 16

    def test_adopt_validation(self):
        eng = engine()
        eng.enable_prefix_cache()
        eng.prefill({0: prompt(8)})
        with pytest.raises(ValueError):
            eng.adopt_prefix(1, 0, 9)  # longer than donor
        with pytest.raises(ValueError):
            eng.adopt_prefix(0, 0, 4)  # already resident
        with pytest.raises(ValueError):
            eng.adopt_prefix(1, 5, 1)  # unknown donor

    def test_capacity_shared_once(self):
        eng = engine(capacity_tokens=64)
        eng.enable_prefix_cache()
        eng.prefill({0: prompt(32)})
        free_before = [c._allocator.free_tokens() for c in eng.caches]
        eng.adopt_prefix(1, 0, 32)
        assert [c._allocator.free_tokens() for c in eng.caches] == free_before


class TestIndexLockstep:
    def test_evict_removes_anchor(self):
        eng = engine()
        eng.enable_prefix_cache()
        p = prompt(10)
        eng.prefill({0: p})
        assert eng.match_prefix(p) == (10, 0)  # anchored: the index is flushed
        eng.evict(0)
        assert eng.match_prefix(p) == (0, None)

    def test_evict_tail_trims_anchor(self):
        eng = engine()
        eng.enable_prefix_cache()
        p = prompt(12)
        eng.prefill({0: p})
        eng.evict_tail(0, 5)
        matched, donor = eng.match_prefix(p)
        assert (matched, donor) == (5, 0)
        # re-prefilling the suffix restores full coverage
        eng.prefill({0: p[5:]})
        assert eng.match_prefix(p) == (12, 0)

    def test_import_kv_marks_sequence_opaque(self):
        src = engine()
        p = prompt(10)
        src.prefill({0: p})
        export = src.export_kv(0)

        dst = engine()
        dst.enable_prefix_cache()
        dst.import_kv(export)
        # resident but not donatable: the payload had no token identity
        assert dst.context_length(0) == 10
        assert dst.match_prefix(p) == (0, None)
        # later commits on top of opaque KV stay untracked
        dst.prefill({0: prompt(4)})
        assert dst.match_prefix(p) == (0, None)

    def test_swap_roundtrip_loses_donation_but_not_tokens(self):
        eng = engine()
        eng.enable_prefix_cache()
        p, ext = prompt(12), prompt(3)
        eng.prefill({0: p})
        export = eng.export_kv(0)
        eng.evict(0)
        eng.import_kv(export)
        got = ChatSession(eng, 0).send(ext, max_new_tokens=4).generated
        ref = engine()
        ref.prefill({0: p})
        want = ChatSession(ref, 0).send(ext, max_new_tokens=4).generated
        assert got == want
        assert eng.match_prefix(p) == (0, None)
