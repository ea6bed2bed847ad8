"""End-to-end engine tests: CP inference equals single-device forward."""

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.core.heuristics import RingAlgo
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel


@pytest.fixture(scope="module")
def model():
    return LlamaModel(tiny_config(), seed=3)


class TestFullPrefill:
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_logits_match_forward(self, model, world):
        engine = ContextParallelEngine(model, world_size=world)
        toks = (np.arange(26) * 7) % model.config.vocab_size
        out = engine.prefill({0: toks})
        ref = model.forward(toks)
        np.testing.assert_allclose(out.logits[0], ref, atol=1e-9)

    def test_pass_q_forced_matches(self, model):
        engine = ContextParallelEngine(model, world_size=3)
        toks = np.arange(17) % model.config.vocab_size
        out = engine.prefill({0: toks}, force_algo=RingAlgo.PASS_Q)
        ref = model.forward(toks)
        assert out.plan.forced
        np.testing.assert_allclose(out.logits[0], ref, atol=1e-9)

    def test_fused_varseq_batch(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        prompts = {
            0: np.arange(13) % model.config.vocab_size,
            1: (np.arange(21) + 5) % model.config.vocab_size,
        }
        out = engine.prefill(prompts)
        for sid, toks in prompts.items():
            np.testing.assert_allclose(out.logits[sid], model.forward(toks), atol=1e-9)

    def test_kv_balanced_across_ranks(self, model):
        engine = ContextParallelEngine(model, world_size=4)
        engine.prefill({0: np.arange(32) % model.config.vocab_size})
        counts = engine.cached_tokens(0)
        assert sum(counts) == 32
        assert max(counts) - min(counts) <= 2

    def test_validation(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        with pytest.raises(ValueError):
            engine.prefill({})
        with pytest.raises(ValueError):
            engine.prefill({0: np.zeros(0, dtype=np.int64)})


class TestDecode:
    def test_decode_matches_forward(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        toks = np.arange(11) % model.config.vocab_size
        engine.prefill({0: toks})
        step = engine.decode({0: 4})
        ref = model.forward(np.concatenate([toks, [4]]))
        np.testing.assert_allclose(step.logits[0], ref[-1], atol=1e-9)

    def test_multiple_decode_steps(self, model):
        engine = ContextParallelEngine(model, world_size=3)
        toks = np.arange(9) % model.config.vocab_size
        engine.prefill({0: toks})
        history = list(toks)
        for t in (2, 8, 5, 1):
            step = engine.decode({0: t})
            history.append(t)
            ref = model.forward(np.array(history))
            np.testing.assert_allclose(step.logits[0], ref[-1], atol=1e-9)

    def test_batched_decode(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        prompts = {
            0: np.arange(7) % model.config.vocab_size,
            1: np.arange(12) % model.config.vocab_size,
        }
        engine.prefill(prompts)
        step = engine.decode({0: 3, 1: 9})
        for sid, nxt in ((0, 3), (1, 9)):
            ref = model.forward(np.concatenate([prompts[sid], [nxt]]))
            np.testing.assert_allclose(step.logits[sid], ref[-1], atol=1e-9)

    def test_round_robin_balances_decode_kv(self, model):
        """After N decode steps each rank got one of the sequence's decode
        tokens (§3.6's OOM-avoidance property)."""
        world = 4
        engine = ContextParallelEngine(model, world_size=world)
        engine.prefill({0: np.arange(8) % model.config.vocab_size})
        before = np.array(engine.cached_tokens(0))
        for t in range(world):
            engine.decode({0: t % model.config.vocab_size})
        after = np.array(engine.cached_tokens(0))
        np.testing.assert_array_equal(after - before, np.ones(world, dtype=int))

    def test_a_round_derives_its_plan_and_its_kv_structure_once(self, monkeypatch):
        """Per decode round, whatever the layer count: one round-robin
        assignment (the engine reads the ring's plan, it derives none of its
        own) and, per rank, one KV structure — positions, sequence ids, runs,
        run index, reach — that every layer's read shares, so the ring scans
        no shard for its reach. The logits are an untouched engine's."""
        import repro.core.ring_decode as ring_decode
        from repro.kvcache.cache import RankKVCache

        model = LlamaModel(tiny_config(n_layers=3), seed=0)
        world = 4
        prompts = {sid: (np.arange(5 + sid) * 7) % 101 for sid in range(6)}
        tokens = {sid: 3 + sid for sid in prompts}
        engine = ContextParallelEngine(model, world_size=world)
        engine.prefill(prompts)
        want = ContextParallelEngine(model, world_size=world)
        want.prefill(prompts)
        want = want.decode(tokens)

        assigned, scanned, reads = [], [], []
        assignment, reach, get = ring_decode.round_robin_assignment, ring_decode.kv_reach, RankKVCache.get
        monkeypatch.setattr(
            ring_decode, "round_robin_assignment", lambda *a: assigned.append(a) or assignment(*a)
        )
        monkeypatch.setattr(ring_decode, "kv_reach", lambda *a: scanned.append(a) or reach(*a))
        monkeypatch.setattr(
            RankKVCache, "get", lambda self, layer, sids: reads.append((self, get(self, layer, sids))) or reads[-1][1]
        )
        got = engine.decode(tokens)
        assert len(assigned) == 1 and not scanned
        assert len(reads) == world * 3
        for cache in engine.caches:
            shards = [shard for owner, shard in reads if owner is cache]
            for name in ("positions", "seq_ids", "runs", "run_index", "reach"):
                assert len({id(getattr(shard, name)) for shard in shards}) == 1
            assert shards[0].reach == reach(shards[0].positions, shards[0].seq_ids, shards[0].runs)
            assert not np.array_equal(shards[0].k, shards[1].k)
        for sid in prompts:
            np.testing.assert_array_equal(got.logits[sid], want.logits[sid])
        assert got.assignment == want.assignment

    def test_decode_unknown_sequence(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        with pytest.raises(KeyError):
            engine.decode({42: 1})

    def test_empty_decode_rejected(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        with pytest.raises(ValueError):
            engine.decode({})


class TestRelease:
    def test_release_clears_state(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        engine.prefill({0: np.arange(10) % model.config.vocab_size})
        assert engine.context_length(0) == 10
        engine.release(0)
        assert engine.context_length(0) == 0
        assert sum(engine.cached_tokens(0)) == 0
