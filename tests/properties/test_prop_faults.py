"""Property test: serving exactness holds over randomized fault schedules.

The fault-injection layer (:mod:`repro.runtime.faults`) rescopes the
runtime's serving-exactness contract: under any deterministic schedule
of mid-stream KV-transfer deaths (retried with capped backoff, then
degraded to full re-prefill), lost swap payloads (recomputed), whole
pool KV resets (every holder requeued), per-request deadlines and
queue-depth backpressure, three things must hold for every deployment
shape (colocated and disaggregated) and every preemption remedy
(recompute / trim / swap):

- **every run drains** — each request reaches a terminal state
  (``finished`` / ``timed_out`` / ``shed``); fault budgets guarantee
  recovery terminates;
- **completed requests are exact** — every request that reaches
  ``FINISHED`` streamed tokens bit-identical to replaying its
  conversation alone, uninterrupted, fault-free; shed and timed-out
  requests claim nothing;
- **nothing leaks** — after the drain, the engines' KV bookkeeping
  audits clean (:meth:`kv_leak_report`): no orphaned KV, no leaked
  paged-allocator blocks or refcounts, no dangling radix anchors or
  stale donor pins — even after pool resets tore down every resident.

A determinism property pins the CLI contract on top: the same fault
seed over the same workload reproduces the identical outcome map,
token streams, and fault counts.
"""

from dataclasses import replace

import pytest
from helpers import assert_exact_vs_sequential, assert_leak_free
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.runtime import FaultPlan, ServeConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.replay import (
    replay_scripts_sequential,
    submit_scripts_to_runtime,
)

MODEL = LlamaModel(tiny_config(), seed=0)
VOCAB = MODEL.config.vocab_size
SETTINGS = dict(max_examples=10, deadline=None)

MODES = ("recompute", "trim", "swap")


def fresh_engine(world):
    return ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=world)


@st.composite
def fault_case(draw):
    """A workload plus a fault plan plus a remedy choice, as
    ``(scripts, config, think)``; each test picks the pool sizes."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_sessions = draw(st.integers(1, 4))
    turns = draw(st.integers(1, 3))
    chunk = draw(st.sampled_from([5, 16]))
    # None = no pressure; small pools force organic preemptions that
    # interleave with the injected faults
    capacity = draw(st.sampled_from([None, 96, 144]))
    think = draw(st.sampled_from([0.0, 2.5]))
    mode = draw(st.sampled_from(MODES))
    prefix_cache = draw(st.booleans())
    plan = FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        transfer_fail_rate=draw(st.sampled_from([0.0, 0.3, 0.8])),
        swap_loss_rate=draw(st.sampled_from([0.0, 0.5])),
        pool_resets=draw(st.integers(0, 2)),
        pool_reset_window=draw(st.sampled_from([8, 24])),
        backoff_base_s=0.5,
        deadline_s=draw(st.sampled_from([None, 20.0])),
        max_queue_depth=draw(st.sampled_from([None, 2])),
    )
    gen = WorkloadGenerator(VOCAB, seed=seed)
    scripts = [
        gen.conversation(
            sid,
            turns=turns,
            first_prompt=int(gen.rng.integers(10, 50)),
            followup_range=(4, 12),
            response_range=(2, 5),
        )
        for sid in range(n_sessions)
    ]
    config = ServeConfig(
        capacity=capacity,
        chunk=chunk,
        round_budget=2 * chunk,
        preemption=mode,
        swap_capacity=4096 if mode == "swap" else None,
        prefix_cache=prefix_cache,
        faults=plan,
    )
    return scripts, config, think


def _check_run(runtime, scripts, think, replay_world):
    """Drain + exactness-of-completed + leak audit for one faulted run."""
    rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
    report = runtime.run(max_steps=200_000)

    # 1. the run drained: every request reached a terminal state
    for rec in report.records.values():
        assert rec.status is not None, (
            f"request {rec.request_id} wedged in {rec.state} "
            f"(faults={runtime.faults.describe()})"
        )

    # 2. completed requests streamed bit-identical tokens (and a shed
    # chain shed its whole tail)
    reference = replay_scripts_sequential(lambda: fresh_engine(replay_world), scripts)
    assert_exact_vs_sequential(
        report, rids, reference, completed_only=True,
        context=f"faults={runtime.faults.describe()}, "
                f"transfer faults={report.metrics.transfer_faults}, "
                f"swap losses={report.metrics.swap_losses}, "
                f"resets={report.metrics.pool_resets}",
    )

    # 3. nothing leaked: KV, allocator blocks, radix anchors, pins, and
    # the host-side swap store drained with the requests
    assert_leak_free(runtime, context=f"faults={runtime.faults.describe()}")
    return report


class TestFaultScheduleExactness:
    @given(fault_case(), st.sampled_from([1, 2, 3]))
    @settings(**SETTINGS)
    def test_colocated_faulted_runs_stay_exact(self, case, world):
        """Any fault schedule over a colocated runtime: drains, completed
        requests bit-identical to sequential replay, leak-free."""
        scripts, config, think = case
        runtime = replace(config, world=world).build(MODEL)
        _check_run(runtime, scripts, think, world)

    @given(fault_case(), st.sampled_from([(1, 2), (2, 1), (2, 2)]))
    @settings(**SETTINGS)
    def test_disaggregated_faulted_runs_stay_exact(self, case, split):
        """Any fault schedule over any prefill/decode split — transfer
        deaths mid-wire, resets of either pool — same three guarantees."""
        scripts, config, think = case
        runtime = replace(config, world=split[0], decode_world=split[1]).build(MODEL)
        _check_run(runtime, scripts, think, split[0])

    @given(fault_case())
    @settings(**SETTINGS)
    def test_same_fault_seed_reproduces_the_run(self, case):
        """One seed pins the whole faulted run: outcome map, token
        streams, fault counts, and makespan all replay identically."""
        scripts, config, think = case

        def signature():
            runtime = replace(config, decode_world=2).build(MODEL)
            rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
            report = runtime.run(max_steps=200_000)
            streams = {
                rid: report.record(rid).generated
                for turn_rids in rids.values()
                for rid in turn_rids
            }
            m = report.metrics
            return (
                report.statuses(),
                streams,
                m.transfer_faults,
                m.swap_losses,
                m.pool_resets,
                m.timeouts,
                m.sheds,
                report.makespan,
            )

        assert signature() == signature()


class TestFaultBudgetsDrain:
    def test_max_rate_transfer_faults_still_drain(self):
        """transfer_fail_rate=1.0: every landing dies until the budget is
        spent, then the re-prefill fallback completes every request."""
        gen = WorkloadGenerator(VOCAB, seed=3)
        scripts = [gen.conversation(sid, turns=2, first_prompt=30) for sid in range(2)]
        plan = FaultPlan(seed=1, transfer_fail_rate=1.0, max_transfer_retries=2,
                         backoff_base_s=0.25)
        runtime = ServeConfig(decode_world=2, faults=plan).build(MODEL)
        report = _check_run(runtime, scripts, 0.0, 2)
        assert report.statuses() == {"finished": 4}
        m = report.metrics
        # per request: `retries` retried faults + 1 fault that degrades
        assert m.transfer_faults > m.fault_retries
        assert m.degraded_fallbacks >= 1

    def test_max_rate_swap_losses_still_drain(self):
        """swap_loss_rate=1.0 under heavy swap pressure: every swap-in is
        lost until the per-request budget caps it, then recompute wins."""
        gen = WorkloadGenerator(VOCAB, seed=5)
        scripts = [gen.conversation(sid, turns=2, first_prompt=40) for sid in range(4)]
        plan = FaultPlan(seed=2, swap_loss_rate=1.0)
        runtime = ServeConfig(
            capacity=96, preemption="swap", swap_capacity=4096, faults=plan
        ).build(MODEL)
        report = _check_run(runtime, scripts, 0.0, 2)
        assert report.statuses() == {"finished": 8}
        if report.metrics.swaps_out:
            assert report.metrics.swap_losses >= 1
            assert report.metrics.degraded_fallbacks >= report.metrics.swap_losses

    @pytest.mark.parametrize("pool_resets", [1, 3])
    def test_pool_reset_storms_still_drain(self, pool_resets):
        """Every scheduled whole-pool reset fires, every holder requeues,
        and the run still completes every request bit-exactly."""
        gen = WorkloadGenerator(VOCAB, seed=9)
        scripts = [gen.conversation(sid, turns=2, first_prompt=30) for sid in range(3)]
        plan = FaultPlan(seed=4, pool_resets=pool_resets, pool_reset_window=10)
        runtime = ServeConfig(decode_world=2, prefix_cache=True, faults=plan).build(MODEL)
        report = _check_run(runtime, scripts, 0.0, 2)
        assert report.statuses() == {"finished": 6}
        assert report.metrics.pool_resets == pool_resets
