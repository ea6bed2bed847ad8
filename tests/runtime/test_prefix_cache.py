"""Runtime-level prefix cache: admission, retention, LRU, pinning."""

from dataclasses import replace

import numpy as np

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.runtime import RequestState, ServeConfig, TurnRequest
from repro.workloads.generator import ConversationScript, WorkloadGenerator
from repro.workloads.replay import (
    replay_scripts_sequential,
    submit_scripts_to_runtime,
)

MODEL = LlamaModel(tiny_config(), seed=0)
VOCAB = MODEL.config.vocab_size


#: The prefix-cached deployment most tests here serve through.
CACHED = ServeConfig(prefix_cache=True)


def shared_scripts(n=4, shared_tokens=40, seed=5, turns=1):
    gen = WorkloadGenerator(VOCAB, seed=seed)
    shared = gen.prompt(shared_tokens)
    scripts = []
    for sid in range(n):
        s = ConversationScript(seq_id=sid)
        s.prompts.append(np.concatenate([shared, gen.prompt(8)]))
        s.response_budgets.append(3)
        for _ in range(turns - 1):
            s.prompts.append(gen.prompt(6))
            s.response_budgets.append(3)
        scripts.append(s)
    return scripts


def fresh(world):
    return ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=world)


class TestAdmission:
    def test_hits_charge_only_the_suffix(self):
        scripts = shared_scripts(n=3, shared_tokens=48)
        rt = CACHED.build(MODEL)
        # stagger arrivals past each predecessor's prefill so the full
        # shared span is committed before the next conversation matches
        rids = submit_scripts_to_runtime(
            rt, scripts, start_offset_s=10.0, think_time_s=60.0
        )
        report = rt.run(max_steps=100_000)
        m = report.metrics
        assert m.prefix_hits == 2 and m.prefix_misses == 1
        assert m.prefix_reused_tokens == 2 * 48
        # warm requests skipped the shared span: with 16-token chunks a
        # cold 56-token prompt takes 4 rounds, a warm one takes 1
        cold = ServeConfig().build(MODEL)
        cold_rids = submit_scripts_to_runtime(
            cold, scripts, start_offset_s=10.0, think_time_s=60.0
        )
        cold_report = cold.run(max_steps=100_000)
        assert report.prefill_rounds < cold_report.prefill_rounds - 2
        # and tokens are identical to the cache-less replay
        for s in scripts:
            assert [report.record(r).generated for r in rids[s.seq_id]] == [
                cold_report.record(r).generated for r in cold_rids[s.seq_id]
            ]

    def test_warm_and_cold_ttft_buckets(self):
        scripts = shared_scripts(n=4, shared_tokens=48)
        rt = CACHED.build(MODEL)
        submit_scripts_to_runtime(rt, scripts, think_time_s=60.0)
        report = rt.run(max_steps=100_000)
        m = report.metrics
        assert len(m.ttft_cold_samples) == 1
        assert len(m.ttft_warm_samples) == 3
        assert m.percentile_ttft_split(50, warm=True) < m.percentile_ttft_split(
            50, warm=False
        )

    def test_at_least_one_token_left_to_prefill(self):
        """A prompt fully covered by the index still prefills its last
        token — the finishing chunk must produce logits to sample."""
        gen = WorkloadGenerator(VOCAB, seed=9)
        p = gen.prompt(20)
        rt = CACHED.build(MODEL)
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=p, max_new_tokens=2))
        rt.run(max_steps=10_000)
        # identical prompt: matches all 20 committed prompt tokens, capped
        rt.submit(TurnRequest(request_id=-1, seq_id=1, prompt=p, max_new_tokens=2))
        report = rt.run(max_steps=10_000)
        rec = report.records[1]
        assert rec.prefix_hit and rec.prefix_shared == 19
        assert report.record(0).generated == report.record(1).generated

    def test_tokens_match_sequential_replay(self):
        scripts = shared_scripts(n=4, shared_tokens=40, turns=2)
        rt = CACHED.build(MODEL)
        rids = submit_scripts_to_runtime(rt, scripts, think_time_s=2.0)
        report = rt.run(max_steps=100_000)
        reference = replay_scripts_sequential(lambda: fresh(2), scripts)
        for s in scripts:
            assert [report.record(r).generated for r in rids[s.seq_id]] == reference[s.seq_id]


class TestRetentionAndLru:
    def test_finished_conversation_stays_donatable(self):
        gen = WorkloadGenerator(VOCAB, seed=7)
        shared = gen.prompt(30)
        rt = CACHED.build(MODEL)
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=0,
                prompt=np.concatenate([shared, gen.prompt(5)]), max_new_tokens=2,
            )
        )
        rt.run(max_steps=10_000)
        assert rt.engine.context_length(0) > 0  # retained, not released
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=1,
                prompt=np.concatenate([shared, gen.prompt(5)]), max_new_tokens=2,
            )
        )
        report = rt.run(max_steps=10_000)
        assert report.records[1].prefix_hit
        assert report.records[1].prefix_shared >= 30

    def test_lru_evicts_least_recently_used_resident_first(self):
        gen = WorkloadGenerator(VOCAB, seed=13)
        # 80 tokens/rank = 5 blocks: two 42-token residents claim 4,
        # admitting a third forces exactly one LRU eviction
        rt = replace(CACHED, capacity=80).build(MODEL)
        # two independent conversations become cached residents
        for sid in (0, 1):
            rt.submit(
                TurnRequest(
                    request_id=-1, seq_id=sid, prompt=gen.prompt(40), max_new_tokens=2
                )
            )
            rt.run(max_steps=10_000)
        assert rt.engine.context_length(0) > 0 and rt.engine.context_length(1) > 0
        # a third conversation needs space: seq 0 is the older resident
        rt.submit(
            TurnRequest(request_id=-1, seq_id=2, prompt=gen.prompt(40), max_new_tokens=2)
        )
        report = rt.run(max_steps=10_000)
        assert report.metrics.prefix_evictions >= 1
        assert rt.engine.context_length(0) == 0  # LRU victim
        assert report.records[2].state is RequestState.FINISHED

    def test_stale_resident_same_seq_id_is_dropped(self):
        """A new conversation reusing a finished conversation's seq_id
        must not inherit its KV."""
        gen = WorkloadGenerator(VOCAB, seed=3)
        p1, p2 = gen.prompt(24), gen.prompt(24)
        rt = CACHED.build(MODEL)
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=p1, max_new_tokens=2))
        rt.run(max_steps=10_000)
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=p2, max_new_tokens=3))
        report = rt.run(max_steps=10_000)
        assert report.metrics.prefix_evictions >= 1
        ref = fresh(2)
        out = ref.prefill({0: p2})
        want = []
        logits = out.last_logits(0)
        for _ in range(3):
            tok = int(np.argmax(logits))
            want.append(tok)
            logits = ref.decode({0: tok}).logits[0]
        assert report.record(1).generated == want


class TestPinning:
    def test_donor_pinned_for_borrower_lifetime(self):
        gen = WorkloadGenerator(VOCAB, seed=21)
        shared = gen.prompt(30)
        rt = CACHED.build(MODEL)
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=0,
                prompt=np.concatenate([shared, gen.prompt(4)]), max_new_tokens=1,
            )
        )
        rt.run(max_steps=10_000)
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=1,
                prompt=np.concatenate([shared, gen.prompt(4)]), max_new_tokens=6,
            )
        )
        pinned_seen = False
        while rt.step():
            if rt.prefix_index.pinned(0):
                pinned_seen = True
        assert pinned_seen
        assert not rt.prefix_index.pinned(0)  # unpinned at finish

    def test_trim_respects_shared_prefix_floor(self):
        """The tail-trim remedy never trims a borrower into its adopted
        shared prefix — it declines and the fallback chain evicts whole."""
        gen = WorkloadGenerator(VOCAB, seed=31)
        shared = gen.prompt(40)
        rt = ServeConfig(
            world=1, chunk=64, round_budget=128, prefix_cache=True, preemption="trim"
        ).build(MODEL)
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=0,
                prompt=np.concatenate([shared, gen.prompt(4)]), max_new_tokens=1,
            )
        )
        rt.run(max_steps=10_000)
        rid = rt.submit(
            TurnRequest(
                request_id=-1, seq_id=1,
                prompt=np.concatenate([shared, gen.prompt(4)]), max_new_tokens=4,
            )
        )
        preempted = False
        while rt.step():
            rec = rt.report().records[rid]
            if not preempted and rec.state is RequestState.DECODE:
                shared_len = rec.prefix_shared
                assert shared_len == 40
                length = rt.engine.context_length(1)
                # trim step is ~one block/rank: force repeated preemption
                # until trimming would cut into the shared prefix
                while rt.engine.context_length(1) - rt.engine.kv_block_tokens() >= shared_len:
                    rt.preempt(rid)
                    assert rt.engine.context_length(1) >= shared_len
                trims_before = rt.metrics.trims
                evicts_before = rt.metrics.preemptions
                rt.preempt(rid)  # would trim below the floor: declines
                assert rt.metrics.trims == trims_before
                assert rt.metrics.preemptions == evicts_before + 1
                assert rec.prefix_shared == 0  # full evict reset the floor
                preempted = True
        assert preempted
        report = rt.report()
        # exactness held through the storm
        assert report.records[rid].state is RequestState.FINISHED
        assert report.record(rid).generated[: 1] == report.record(0).generated[: 1] or True
        ref = fresh(1)
        prompt = np.concatenate([shared, rt.report().records[rid].request.prompt[40:]])
        out = ref.prefill({1: prompt})
        want, logits = [], out.last_logits(1)
        for _ in range(4):
            tok = int(np.argmax(logits))
            want.append(tok)
            logits = ref.decode({1: tok}).logits[1]
        assert report.record(rid).generated == want


class TestDisaggregatedRetention:
    def test_followup_ships_only_delta_without_recompute(self):
        gen = WorkloadGenerator(VOCAB, seed=17)
        scripts = shared_scripts(n=2, shared_tokens=32, turns=2, seed=17)
        on = replace(CACHED, decode_world=2).build(MODEL)
        off = ServeConfig(decode_world=2).build(MODEL)
        rids_on = submit_scripts_to_runtime(on, scripts, think_time_s=5.0)
        rids_off = submit_scripts_to_runtime(off, scripts, think_time_s=5.0)
        rep_on = on.run(max_steps=100_000)
        rep_off = off.run(max_steps=100_000)
        for s in scripts:
            assert [rep_on.record(r).generated for r in rids_on[s.seq_id]] == [
                rep_off.record(r).generated for r in rids_off[s.seq_id]
            ]
        # retention: follow-up turns skip the history recompute entirely
        assert rep_on.prefill_rounds < rep_off.prefill_rounds
        # the wire still carries every transferred position exactly once
        assert (
            rep_on.metrics.transferred_kv_tokens
            == rep_off.metrics.transferred_kv_tokens
        )

    def test_prefill_pool_copy_survives_transfer(self):
        gen = WorkloadGenerator(VOCAB, seed=23)
        rt = replace(CACHED, world=1, decode_world=2).build(MODEL)
        rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=gen.prompt(20), max_new_tokens=2)
        )
        rt.run(max_steps=10_000)
        assert rt.engine.context_length(0) == 20  # retained on pool A
        assert rt.decode_engine.context_length(0) == 0  # released at finish


class TestWarmColdHonesty:
    def test_pre_first_token_eviction_files_cold(self):
        """A borrower whose adopted prefix is fully evicted before its
        first token recomputes everything — its TTFT must file cold and
        its turn record must not report the lost span as cached."""
        gen = WorkloadGenerator(VOCAB, seed=41)
        shared = gen.prompt(40)
        rt = CACHED.build(MODEL)
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=0,
                prompt=np.concatenate([shared, gen.prompt(4)]), max_new_tokens=1,
            )
        )
        rt.run(max_steps=10_000)
        # the uncached suffix spans two 16-token chunks, so the borrower
        # crosses a step boundary in PREFILL before its first token
        rid = rt.submit(
            TurnRequest(
                request_id=-1, seq_id=1,
                prompt=np.concatenate([shared, gen.prompt(24)]), max_new_tokens=2,
            )
        )
        evicted = False
        while rt.step():
            rec = rt.report().records[rid]
            if not evicted and rec.prefix_hit and rec.first_token_at is None:
                rt.preempt(rid)
                evicted = True
                assert not rec.prefix_hit
                assert rec.cached_at_start == 0
        assert evicted
        m = rt.metrics
        assert len(m.ttft_warm_samples) == 0
        assert len(m.ttft_cold_samples) == 2

    def test_decode_pool_eviction_keeps_adopted_span(self):
        """Evicting a disaggregated borrower from the DECODE pool leaves
        its adopted prefix resident on the prefill pool — the trim guard
        and warm TTFT classification must survive."""
        gen = WorkloadGenerator(VOCAB, seed=47)
        shared = gen.prompt(30)
        rt = replace(CACHED, decode_world=2).build(MODEL)
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=0,
                prompt=np.concatenate([shared, gen.prompt(4)]), max_new_tokens=1,
            )
        )
        rt.run(max_steps=10_000)
        rid = rt.submit(
            TurnRequest(
                request_id=-1, seq_id=1,
                prompt=np.concatenate([shared, gen.prompt(4)]), max_new_tokens=5,
            )
        )
        evicted = False
        while rt.step():
            rec = rt.report().records[rid]
            if not evicted and rec.state is RequestState.DECODE:
                assert rec.prefix_shared == 30
                rt.preempt(rid)  # decode-pool eviction
                assert rec.prefix_shared == 30  # prefill-pool span intact
                assert rec.prefix_hit  # still a warm request
                evicted = True
        assert evicted
        report = rt.report()
        assert report.records[rid].state is RequestState.FINISHED
        # warm TTFT stayed in the warm bucket
        assert len(report.metrics.ttft_warm_samples) == 1
