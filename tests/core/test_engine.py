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


class TestPrefillRound:
    def test_a_round_plans_its_ring_once(self, monkeypatch):
        """Per prefill round, whatever the layer count: one padding plan of
        the travelling side (the KV's for pass-KV, the queries' for pass-Q),
        and per visible (step, rank) pair of the ring one kernel layout,
        built at the first layer and handed to the kernel at every layer —
        over rounds whose ranks hold different per-sequence KV counts, so
        the padding is real. The logits are an untouched engine's."""
        import repro.core.ring_skip as ring_skip

        model = LlamaModel(tiny_config(n_layers=3), seed=0)
        world, vocab = 4, model.config.vocab_size
        rounds = [
            ({0: np.arange(13) % vocab, 1: (np.arange(21) * 3) % vocab, 2: np.arange(6) + 1}, RingAlgo.PASS_KV),
            ({0: np.arange(5) + 7, 2: np.arange(3) + 2}, RingAlgo.PASS_KV),
            ({1: np.arange(3) + 9}, RingAlgo.PASS_Q),
        ]
        untouched = ContextParallelEngine(model, world_size=world)
        want = [untouched.prefill(prompts, force_algo=algo) for prompts, algo in rounds]

        built, handed, paddings = [], [], []
        layout, kernel = ring_skip.attention_layout, ring_skip.flash_attention
        monkeypatch.setattr(ring_skip, "attention_layout", lambda *a, **kw: built.append(layout(*a, **kw)) or built[-1])
        monkeypatch.setattr(
            ring_skip, "flash_attention", lambda *a, **kw: handed.append(a[3]) or kernel(*a, **kw)
        )
        for name in ("plan_kv_padding", "plan_query_padding"):
            planner = getattr(ring_skip, name)
            monkeypatch.setattr(
                ring_skip, name, lambda shards, planner=planner: paddings.append(planner(shards)) or paddings[-1]
            )
        engine = ContextParallelEngine(model, world_size=world)
        padded = []
        for (prompts, algo), expected in zip(rounds, want):
            built.clear(), handed.clear(), paddings.clear()
            got = engine.prefill(prompts, force_algo=algo)
            assert len(paddings) == 1
            padded.append(any(p.rows is not None for p in paddings[0][0]))
            assert built and len(handed) == 3 * len(built)
            assert all(sum(h is b for h in handed) == 3 for b in built)
            for sid in prompts:
                np.testing.assert_array_equal(got.logits[sid], expected.logits[sid])
        assert padded[1:] == [True, True]  # (KV counts, then query counts, differ by rank)


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

    @pytest.mark.parametrize("batch", [3, 6], ids=["B<N", "B>N"])
    @pytest.mark.parametrize("kind", ["decode", "passkv", "passq"])
    def test_a_round_derives_its_plan_and_its_kv_structure_once(self, monkeypatch, kind, batch):
        """Per round, decode or prefill, whatever the layer count: one
        split; each rank's ``ShardedQueries`` built once (``__post_init__``
        runs ``world`` times); one ring plan, built by the pass-Q or pass-KV
        prefill planner over the layer-0 queries and reads and handed to the
        ring at every layer with that layer's ``q`` rows; decode's padded
        batch ids the same arrays at every layer; per rank one KV structure
        — positions, sequence ids, runs, run index, reach — that every
        later layer's read takes from the layer-0 read, so the plan scans no
        shard for its reach; and per visible (step, rank) pair one kernel
        layout, built with the plan and handed to the kernel at every layer.
        The logits are an untouched engine's."""
        import repro.core.engine as engine_module
        import repro.core.ring_skip as ring_skip
        from repro.core.sharding import ShardedQueries, ShardPlan
        from repro.kvcache.cache import RankKVCache

        model = LlamaModel(tiny_config(n_layers=3), seed=0)
        world = 4
        prompts = {sid: (np.arange(5 + sid) * 7) % 101 for sid in range(batch)}
        if kind == "decode":
            ring_name = "ring_passq_decode"

            def run(engine):
                return engine.decode({sid: 3 + sid for sid in prompts})
        else:
            ring_name = f"ring_{kind}_prefill"
            algo = RingAlgo.PASS_KV if kind == "passkv" else RingAlgo.PASS_Q

            def run(engine):
                return engine.prefill({sid: np.arange(2 + sid) + 1 for sid in prompts}, force_algo=algo)

        engine, untouched = (ContextParallelEngine(model, world_size=world) for _ in range(2))
        for e in (engine, untouched):
            e.prefill(prompts)
        want = run(untouched)

        splits, built_queries, planned, handed, scanned, reads = [], [], [], [], [], []

        class CountedSplit(ShardPlan):
            def __init__(self, *args):
                splits.append(self)
                super().__init__(*args)

            @classmethod
            def round_robin(cls, *args):
                splits.append(super().round_robin(*args))
                return splits[-1]

        post_init, plan_prefill, ring = ShardedQueries.__post_init__, engine_module.plan_prefill, getattr(engine_module, ring_name)
        reach, get = ring_skip.kv_reach, RankKVCache.get
        monkeypatch.setattr(engine_module, "ShardPlan", CountedSplit)
        monkeypatch.setattr(ShardedQueries, "__post_init__", lambda self: built_queries.append(self) or post_init(self))
        monkeypatch.setattr(
            engine_module, "plan_prefill", lambda *a, **kw: planned.append(plan_prefill(*a, **kw)) or planned[-1]
        )
        monkeypatch.setattr(engine_module, ring_name, lambda *a, **kw: handed.append((a, kw)) or ring(*a, **kw))
        monkeypatch.setattr(ring_skip, "kv_reach", lambda *a: scanned.append(a) or reach(*a))
        monkeypatch.setattr(
            RankKVCache, "get",
            lambda self, layer, sids, **kw: reads.append((self, get(self, layer, sids, **kw))) or reads[-1][1],
        )
        built, laid_out = [], []
        layout, kernel = ring_skip.attention_layout, ring_skip.flash_attention
        monkeypatch.setattr(ring_skip, "attention_layout", lambda *a, **kw: built.append(layout(*a, **kw)) or built[-1])
        monkeypatch.setattr(
            ring_skip, "flash_attention", lambda *a, **kw: laid_out.append(a[3]) or kernel(*a, **kw)
        )
        got = run(engine)
        assert len(splits) == 1
        assert len(built_queries) == world
        assert len(planned) == 1 and not scanned
        assert len(handed) == 3 and all(args[1] is planned[0] for args, _ in handed)
        for args, _ in handed:  # each layer's own q rows, one array per rank
            assert len(args[2]) == world and all(isinstance(q, np.ndarray) for q in args[2])
        if kind == "decode":
            slots = [kw["slots"] for _, kw in handed]
            assert all(s is slots[0] for s in slots)
            assert [len(ids) for ids in slots[0]] == [len(p.positions) for p in planned[0].q]
        assert len(reads) == world * 3
        assert built and len(laid_out) == 3 * len(built)
        assert all(sum(h is b for h in laid_out) == 3 for b in built)
        for cache in engine.caches:
            shards = [shard for owner, shard in reads if owner is cache]
            for name in ("positions", "seq_ids", "runs", "run_index", "reach"):
                assert len({id(getattr(shard, name)) for shard in shards}) == 1
            assert shards[0].reach == reach(shards[0].positions, shards[0].seq_ids, shards[0].runs)
            assert not np.array_equal(shards[0].k, shards[1].k)
        assert sorted(got.logits) == sorted(want.logits)
        for sid in prompts:
            np.testing.assert_array_equal(got.logits[sid], want.logits[sid])
        if kind == "decode":
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
        assert engine.evict(0) == 10
        assert engine.context_length(0) == 0
        assert sum(engine.cached_tokens(0)) == 0
