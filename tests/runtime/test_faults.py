"""Unit tests for the deterministic fault-injection layer.

Covers the :class:`repro.runtime.faults.FaultPlan` spec surface
(validation, CLI parsing, capped exponential backoff), the
:class:`repro.runtime.faults.FaultInjector` oracle (counter-based
determinism, per-request fault budgets, the pre-drawn pool-reset
schedule), the runtime's degradation ladder (retry -> backoff ->
re-prefill fallback, deadline shedding with conversation cascade,
queue-depth backpressure), and the fault-counter metrics plumbing.
"""

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.runtime import ContinuousBatchingRuntime, FaultInjector, FaultPlan
from repro.runtime.faults import _MAX_SWAP_LOSSES
from repro.runtime.state import RequestState, TERMINAL_STATES
from repro.serving.metrics import ServingMetrics
from repro.serving.scheduler import ChunkedPrefillPolicy
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.replay import submit_scripts_to_runtime

MODEL = LlamaModel(tiny_config(), seed=0)
VOCAB = MODEL.config.vocab_size


def make_runtime(*, disaggregate=False, capacity=None, preemption="recompute",
                 faults=None, swap_capacity=None):
    engine = ContextParallelEngine(MODEL, world_size=2, capacity_tokens=capacity)
    kwargs = dict(
        policy=ChunkedPrefillPolicy(
            chunk_tokens=16, max_tokens_per_round=32, max_seqs_per_round=4
        ),
        preemption=preemption,
        swap_capacity_tokens=swap_capacity,
        faults=faults,
    )
    if disaggregate:
        decode_engine = ContextParallelEngine(
            MODEL, world_size=2, capacity_tokens=capacity
        )
        return ContinuousBatchingRuntime(engine, decode_engine=decode_engine, **kwargs)
    return ContinuousBatchingRuntime(engine, **kwargs)


def make_scripts(n=3, turns=2, first_prompt=40, seed=3):
    gen = WorkloadGenerator(VOCAB, seed=seed)
    return [
        gen.conversation(sid, turns=turns, first_prompt=first_prompt)
        for sid in range(n)
    ]


class TestFaultPlan:
    def test_defaults_inactive(self):
        plan = FaultPlan()
        assert not plan.active
        assert plan.describe() == "inactive"

    @pytest.mark.parametrize("field, value", [
        ("transfer_fail_rate", 0.01),
        ("swap_loss_rate", 1.0),
        ("pool_resets", 1),
        ("deadline_s", 30.0),
        ("max_queue_depth", 4),
    ])
    def test_any_fault_knob_activates(self, field, value):
        assert FaultPlan(**{field: value}).active

    def test_retry_knobs_alone_do_not_activate(self):
        assert not FaultPlan(max_transfer_retries=5, backoff_base_s=2.0).active

    @pytest.mark.parametrize("kwargs", [
        dict(transfer_fail_rate=-0.1),
        dict(transfer_fail_rate=1.5),
        dict(swap_loss_rate=2.0),
        dict(pool_resets=-1),
        dict(pool_reset_window=0),
        dict(max_transfer_retries=-1),
        dict(backoff_base_s=-0.5),
        dict(backoff_cap_s=-1.0),
        dict(deadline_s=0.0),
        dict(deadline_s=-5.0),
        dict(max_queue_depth=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_backoff_doubles_then_caps(self):
        plan = FaultPlan(backoff_base_s=0.5, backoff_cap_s=8.0)
        assert [plan.backoff(a) for a in range(1, 7)] == [
            0.5, 1.0, 2.0, 4.0, 8.0, 8.0
        ]
        with pytest.raises(ValueError):
            plan.backoff(0)

    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "transfer=0.2, swap=0.3, pool_reset=2, window=10, retries=1, "
            "backoff=0.25, backoff_cap=4, deadline=30, queue=16",
            seed=7,
        )
        assert plan == FaultPlan(
            seed=7, transfer_fail_rate=0.2, swap_loss_rate=0.3, pool_resets=2,
            pool_reset_window=10, max_transfer_retries=1, backoff_base_s=0.25,
            backoff_cap_s=4.0, deadline_s=30.0, max_queue_depth=16,
        )

    def test_parse_empty_and_partial(self):
        assert FaultPlan.parse("") == FaultPlan()
        assert FaultPlan.parse("transfer=0.5").transfer_fail_rate == 0.5

    @pytest.mark.parametrize("spec", ["bogus=1", "transfer", "transfer=lots"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_describe_lists_non_defaults_only(self):
        desc = FaultPlan(seed=9, transfer_fail_rate=0.2, deadline_s=30.0).describe()
        assert "transfer_fail_rate=0.2" in desc
        assert "deadline_s=30.0" in desc
        assert "swap_loss_rate" not in desc and "seed" not in desc


class TestFaultInjector:
    def test_requires_pools(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(), pools=())

    def test_verdicts_are_counter_determined(self):
        """Re-examining the same (request, attempt) re-derives the same
        verdict — the schedule is independent of event interleaving."""
        plan = FaultPlan(seed=3, transfer_fail_rate=0.5, swap_loss_rate=0.5)
        a, b = FaultInjector(plan), FaultInjector(plan)
        for _ in range(6):
            assert a.transfer_fails(0, 10) == b.transfer_fails(0, 10)
            assert a.swap_lost(0, 10) == b.swap_lost(0, 10)

    def test_different_seeds_differ_somewhere(self):
        def verdicts(seed):
            inj = FaultInjector(FaultPlan(seed=seed, transfer_fail_rate=0.5))
            return [inj.transfer_fails(s, r) for s in range(4) for r in range(8)]

        assert any(verdicts(1) != verdicts(s) for s in range(2, 12))

    def test_transfer_fault_budget(self):
        """rate=1.0 injects exactly retries+1 faults, then goes exempt."""
        plan = FaultPlan(seed=0, transfer_fail_rate=1.0, max_transfer_retries=2)
        inj = FaultInjector(plan)
        fired = [inj.transfer_fails(0, 5) for _ in range(10)]
        assert fired == [True] * 3 + [False] * 7
        assert inj.transfer_faults_injected(5) == 3
        # budgets are per request
        assert inj.transfer_fails(0, 6)

    def test_swap_loss_budget(self):
        plan = FaultPlan(seed=0, swap_loss_rate=1.0)
        inj = FaultInjector(plan)
        fired = [inj.swap_lost(1, 7) for _ in range(5)]
        assert fired == [True] * _MAX_SWAP_LOSSES + [False] * (5 - _MAX_SWAP_LOSSES)

    def test_zero_rates_never_fire(self):
        inj = FaultInjector(FaultPlan(seed=0))
        assert not any(inj.transfer_fails(s, s) or inj.swap_lost(s, s)
                       for s in range(20))

    def test_reset_schedule_pre_drawn_and_fires_once(self):
        plan = FaultPlan(seed=5, pool_resets=3, pool_reset_window=10)
        pools = ("prefill", "decode")
        inj = FaultInjector(plan, pools=pools)
        schedule = inj.reset_schedule()
        assert len(schedule) == 3
        assert schedule == sorted(schedule)
        assert all(1 <= rnd <= 10 and pool in pools for rnd, pool in schedule)
        # identical plan -> identical schedule
        assert FaultInjector(plan, pools=pools).reset_schedule() == schedule
        # walking the rounds fires each reset exactly once, in order
        fired = []
        for rounds in range(12):
            fired.extend(inj.pool_resets_due(rounds))
        assert fired == [pool for _, pool in schedule]
        assert inj.pool_resets_due(100) == []


class TestDegradationLadder:
    def test_retries_backoff_then_fallback(self):
        """rate=1.0 transfers: each request burns its retries (metered
        with capped-exponential backoff), then one degraded re-prefill —
        and every request still finishes."""
        plan = FaultPlan(seed=1, transfer_fail_rate=1.0, max_transfer_retries=2,
                         backoff_base_s=0.5, backoff_cap_s=8.0)
        runtime = make_runtime(disaggregate=True, faults=plan)
        scripts = make_scripts(n=2, turns=1)
        submit_scripts_to_runtime(runtime, scripts)
        report = runtime.run(max_steps=200_000)
        assert report.statuses() == {"finished": 2}
        m = report.metrics
        # per turn: 2 retried faults + 1 fault that degrades
        assert m.transfer_faults == 3 * m.degraded_fallbacks
        assert m.fault_retries == 2 * m.degraded_fallbacks
        assert m.degraded_fallbacks >= 1
        # backoff seconds follow the capped-exponential schedule
        assert m.fault_backoff_s == pytest.approx(
            m.degraded_fallbacks * (plan.backoff(1) + plan.backoff(2))
        )
        for rec in report.records.values():
            assert rec.transfer_faults == 3

    def test_injected_faults_are_counted_with_no_recorder(self, monkeypatch):
        """`fault_inject` is a counted event, so the injector emits it
        unguarded; the mutant that leaves it behind `if tracer.enabled:`
        reads zero on this (untraced) run and dies here."""
        plan = FaultPlan(seed=1, transfer_fail_rate=1.0, max_transfer_retries=1)

        def check(runtime):
            submit_scripts_to_runtime(runtime, make_scripts(n=2, turns=1))
            report = runtime.run(max_steps=200_000)
            per_request = sum(rec.transfer_faults for rec in report.records.values())
            assert per_request == 4
            assert report.metrics.transfer_faults == per_request

        check(make_runtime(disaggregate=True, faults=plan))

        class Guarded:  # the mutant: the injector's emit behind an `enabled` guard
            def __init__(self, stream):
                self.stream, self.enabled = stream, stream.enabled

            def instant(self, *args, **fields):
                if self.enabled:
                    self.stream.instant(*args, **fields)

        mutant = make_runtime(disaggregate=True, faults=plan)
        mutant._injector.tracer = Guarded(mutant._injector.tracer)
        with pytest.raises(AssertionError):
            check(mutant)

    def test_deadline_sheds_and_cascades(self):
        """A request past its deadline dies as ``timed_out`` and every
        later turn of its conversation cascades to ``shed``."""
        plan = FaultPlan(seed=1, deadline_s=0.5)
        runtime = make_runtime(faults=plan)
        scripts = make_scripts(n=2, turns=3)
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=0.0)
        report = runtime.run(max_steps=200_000)
        statuses = report.statuses()
        assert statuses.get("timed_out", 0) >= 1
        for turn_rids in rids.values():
            states = [report.records[rid].state for rid in turn_rids]
            if RequestState.TIMED_OUT in states:
                first = states.index(RequestState.TIMED_OUT)
                assert all(s is RequestState.SHED for s in states[first + 1:])
        assert report.metrics.timeouts == statuses.get("timed_out", 0)
        assert not runtime.engine.kv_leak_report()

    def test_queue_backpressure_sheds_at_admission(self):
        """With the prefill queue at its cap, new arrivals are rejected
        before touching any engine state."""
        plan = FaultPlan(seed=1, max_queue_depth=1)
        runtime = make_runtime(faults=plan)
        scripts = make_scripts(n=6, turns=1, first_prompt=60)
        rids = submit_scripts_to_runtime(runtime, scripts, start_offset_s=0.0)
        report = runtime.run(max_steps=200_000)
        statuses = report.statuses()
        assert statuses.get("shed", 0) >= 1
        assert statuses.get("finished", 0) >= 1
        assert report.metrics.sheds == statuses["shed"]
        for turn_rids in rids.values():
            rec = report.records[turn_rids[0]]
            if rec.state is RequestState.SHED:
                assert rec.generated == []
                assert rec.admitted_at is None
        assert not runtime.engine.kv_leak_report()

    def test_pool_reset_requeues_and_finishes(self):
        plan = FaultPlan(seed=2, pool_resets=2, pool_reset_window=8)
        runtime = make_runtime(faults=plan, capacity=144)
        scripts = make_scripts(n=3, turns=2)
        submit_scripts_to_runtime(runtime, scripts)
        report = runtime.run(max_steps=200_000)
        assert report.statuses() == {"finished": 6}
        assert report.metrics.pool_resets == 2
        assert not runtime.engine.kv_leak_report()

    def test_decode_reset_with_retained_prefill_donor_still_drains(self):
        """Regression: a decode-pool reset preempting a request whose
        prefill-pool copy was retained *in full* as a prefix-cache donor
        used to wedge the run — the resident prefix covered the entire
        re-prefill input, so the zero-token FIFO entry never got a chunk
        and the runtime misreported "prefill-pool KV capacity exhausted"
        on an unbounded pool. The resume path must trim the donor copy to
        leave one finishing token and complete exactly."""
        from repro.workloads.generator import ConversationScript
        from repro.workloads.replay import replay_scripts_sequential

        scripts = [
            ConversationScript(
                seq_id=0,
                prompts=[
                    np.array([70, 55, 58, 42, 7, 65, 29, 12, 97, 21, 23, 68,
                              16, 3, 67, 70, 70, 11, 85, 69, 46, 81, 56, 37]),
                    np.array([96, 9, 6, 83]),
                ],
                response_budgets=[5, 2],
            ),
            ConversationScript(
                seq_id=1,
                prompts=[
                    np.array([78, 60, 52, 42, 100, 88, 23, 65, 65, 3, 7, 33,
                              42, 100, 95, 0, 84, 3, 92, 62, 70, 90, 18, 15,
                              88, 54, 98, 54, 81, 56, 85, 59, 52, 50, 6, 68,
                              38, 68, 71, 90, 100, 68, 61, 82]),
                    np.array([92, 21, 49, 85]),
                ],
                response_budgets=[3, 4],
            ),
        ]
        plan = FaultPlan(seed=5614, pool_resets=1, pool_reset_window=24,
                         backoff_base_s=0.5)
        runtime = ContinuousBatchingRuntime(
            ContextParallelEngine(MODEL, world_size=2),
            decode_engine=ContextParallelEngine(MODEL, world_size=2),
            policy=ChunkedPrefillPolicy(
                chunk_tokens=16, max_tokens_per_round=32, max_seqs_per_round=4
            ),
            preemption="recompute",
            prefix_cache=True,
            faults=plan,
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=0.0)
        report = runtime.run(max_steps=200_000)
        assert report.statuses() == {"finished": 4}
        assert report.metrics.pool_resets == 1
        reference = replay_scripts_sequential(
            lambda: ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2),
            scripts,
        )
        for seq_id, turn_rids in rids.items():
            for i, rid in enumerate(turn_rids):
                assert list(report.generated(rid)) == list(reference[seq_id][i])
        assert not runtime.kv_leak_report()

    def test_inactive_plan_changes_nothing(self):
        """faults=FaultPlan() (all knobs off) is byte-for-byte the
        unfaulted runtime: same tokens, same timings, same metrics."""
        scripts = make_scripts()

        def run(faults):
            runtime = make_runtime(faults=faults)
            rids = submit_scripts_to_runtime(runtime, scripts)
            report = runtime.run(max_steps=200_000)
            return (
                {rid: report.generated(rid) for rr in rids.values() for rid in rr},
                report.makespan,
                report.metrics.summary(),
            )

        assert run(None) == run(FaultPlan())


class TestReportAndStatus:
    def test_record_status_values(self):
        for state in TERMINAL_STATES:
            req_state = RequestState(state.value)
            assert req_state.value in ("finished", "timed_out", "shed")
        rec_states = {s: s.value for s in TERMINAL_STATES}
        assert rec_states[RequestState.FINISHED] == "finished"

    def test_report_completed_statuses_goodput(self):
        plan = FaultPlan(seed=1, deadline_s=0.5)
        runtime = make_runtime(faults=plan)
        scripts = make_scripts(n=2, turns=2)
        submit_scripts_to_runtime(runtime, scripts, think_time_s=0.0)
        report = runtime.run(max_steps=200_000)
        statuses = report.statuses()
        assert sum(statuses.values()) == len(report.records)
        assert len(report.completed) == statuses.get("finished", 0)
        assert all(
            rec.state is RequestState.FINISHED for rec in report.completed.values()
        )
        want = (
            len(report.completed) / report.makespan if report.makespan > 0 else 0.0
        )
        assert report.goodput() == pytest.approx(want)
        assert report.metrics.goodput(report.makespan) == pytest.approx(want)

    def test_status_none_while_in_flight(self):
        runtime = make_runtime()
        scripts = make_scripts(n=1, turns=1)
        submit_scripts_to_runtime(runtime, scripts)
        runtime.step()
        (rec,) = runtime.report().records.values()
        assert rec.status is None
        runtime.run(max_steps=200_000)
        assert rec.status == "finished"


class TestFaultMetrics:
    def test_record_methods(self):
        m = ServingMetrics()
        # a retried transfer death, then one past the retry budget
        m.fold("fault_inject", 0.0, {"kind": "transfer", "attempt": 1})
        m.fold("fault_retry", 0.0, {"attempt": 1, "backoff": 0.5})
        m.fold("fault_inject", 0.0, {"kind": "transfer", "attempt": 2})
        m.fold("fault_fallback", 0.0, {"reason": "transfer"})
        assert (m.transfer_faults, m.degraded_fallbacks) == (2, 1)
        # a lost swap payload: the loss, then its recompute fallback
        m.fold("fault_inject", 0.0, {"kind": "swap", "attempt": 1})
        m.fold("fault_fallback", 0.0, {"reason": "swap_loss", "tokens": 32})
        m.fold("fault_inject", 0.0, {"kind": "pool_reset", "tokens": 100, "holders": 3})
        m.fold("shed", 0.0, {"status": "timed_out"})
        m.fold("shed", 0.0, {"status": "shed"})
        assert m.transfer_faults == 2
        assert m.fault_retries == 1
        assert m.fault_backoff_s == 0.5
        assert (m.swap_losses, m.swap_lost_tokens) == (1, 32)
        assert (m.pool_resets, m.pool_reset_evicted_tokens) == (1, 100)
        assert m.degraded_fallbacks == 2
        assert (m.timeouts, m.sheds) == (1, 1)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValueError):
            ServingMetrics().fold("fault_retry", 0.0, {"attempt": 1, "backoff": -1.0})

    def test_goodput_empty_safe(self):
        m = ServingMetrics()
        assert m.goodput(0.0) == 0.0
        assert m.goodput(-1.0) == 0.0
        for _ in range(4):
            m.fold("finish", 0.0, {"status": "finished"})
        assert m.goodput(2.0) == 2.0

    def test_summary_lines_only_when_faults_happened(self):
        clean = ServingMetrics().summary()
        assert "injected faults" not in clean
        assert "shed:" not in clean
        m = ServingMetrics()
        m.fold("fault_inject", 0.0, {"kind": "transfer", "attempt": 1})
        m.fold("fault_retry", 0.0, {"attempt": 1, "backoff": 1.0})
        m.fold("shed", 0.0, {"status": "timed_out"})
        text = m.summary()
        assert "injected faults: 1 transfer" in text
        assert "shed: 1 timed out" in text
