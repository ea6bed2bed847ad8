"""Property test: the cluster tier preserves serving exactness.

The fleet (:mod:`repro.cluster`) rescopes the runtime's
serving-exactness contract over *placement*: for any traffic mix, any
replica count, any routing policy, and any injected fault plan, routing
changes which replica serves a conversation — and therefore timing,
placement, and (under faults) completion — but never the value of a
single decoded token:

- **every fleet run drains** — each request reaches a terminal state on
  whichever replica owns it;
- **completed requests are exact** — every ``FINISHED`` turn streamed
  tokens bit-identical to replaying its conversation alone through a
  single sequential session, regardless of which replica ran it;
- **nothing leaks anywhere** — after the drain, *every* replica's KV
  bookkeeping audits clean;
- **stickiness is absolute** — all turns of a conversation execute on
  the replica that served its first turn;
- **a fleet of one is the runtime** — ``build_fleet`` at one replica is
  byte-for-byte the bare runtime: same streams, statuses, makespan
  (the metamorphic anchor tying the cluster tier to the single-runtime
  property suite).
"""

from dataclasses import replace

import pytest
from helpers import assert_exact_vs_sequential, assert_leak_free
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import ROUTING_POLICIES
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


def fresh_engine(world):
    return ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=world)


@st.composite
def cluster_case(draw, *, with_faults=False):
    """Traffic x replica count x routing policy (x fault schedule), as
    ``(scripts, config, think)``."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_replicas = draw(st.integers(1, 3))
    policy = draw(st.sampled_from(ROUTING_POLICIES))
    world = draw(st.sampled_from([1, 2]))
    disaggregate = draw(st.booleans())
    chunk = draw(st.sampled_from([5, 16]))
    capacity = draw(st.sampled_from([None, 144]))
    think = draw(st.sampled_from([0.0, 2.5]))
    prefix_cache = draw(st.booleans())
    plan = None
    if with_faults:
        plan = FaultPlan(
            seed=draw(st.integers(0, 2**16)),
            transfer_fail_rate=draw(st.sampled_from([0.0, 0.3])),
            swap_loss_rate=0.0,
            pool_resets=draw(st.integers(0, 1)),
            pool_reset_window=24,
            backoff_base_s=0.5,
            deadline_s=draw(st.sampled_from([None, 20.0])),
        )
    gen = WorkloadGenerator(VOCAB, seed=seed)
    shared = draw(st.booleans())
    if shared:
        scripts = gen.shared_prefix_traffic(
            n_system_prompts=draw(st.integers(1, 2)),
            n_fewshot_variants=2,
            conversations=draw(st.integers(2, 5)),
            system_tokens=24,
            fewshot_tokens=8,
            unique_range=(4, 12),
            turns=draw(st.integers(1, 2)),
            response_range=(2, 5),
        )
    else:
        scripts = [
            gen.conversation(
                sid,
                turns=draw(st.integers(1, 2)),
                first_prompt=int(gen.rng.integers(10, 40)),
                followup_range=(4, 12),
                response_range=(2, 5),
            )
            for sid in range(draw(st.integers(1, 4)))
        ]
    config = ServeConfig(
        world=world,
        decode_world=world if disaggregate else None,
        capacity=capacity,
        chunk=chunk,
        round_budget=2 * chunk,
        prefix_cache=prefix_cache,
        faults=plan,
        replicas=n_replicas,
        routing=policy,
    )
    return scripts, config, think


def _assert_sticky(report):
    """Every turn of a conversation ran on its placement replica."""
    for rid, rec in report.records.items():
        owner = report.owners[rid]
        assert owner == report.placements[rec.seq_id], (
            f"request {rid} (seq {rec.seq_id}) ran on replica {owner}, "
            f"but the conversation was placed on "
            f"{report.placements[rec.seq_id]}"
        )


class TestFleetExactness:
    @given(cluster_case())
    @settings(**SETTINGS)
    def test_any_routing_schedule_is_exact(self, case):
        """Fault-free: every request finishes, every stream matches
        sequential replay, every replica audits leak-free, stickiness
        holds — for any (traffic, replicas, policy) draw."""
        scripts, config, think = case
        policy, n_replicas = config.routing, config.replicas
        fleet = config.build_fleet(MODEL)
        rids = submit_scripts_to_runtime(fleet, scripts, think_time_s=think)
        report = fleet.run(max_steps=200_000)

        assert report.statuses() == {
            "finished": sum(s.turns for s in scripts)
        }, f"policy={policy}, replicas={n_replicas}"
        reference = replay_scripts_sequential(lambda: fresh_engine(config.world), scripts)
        assert_exact_vs_sequential(
            report, rids, reference,
            context=f"policy={policy}, replicas={n_replicas}",
        )
        assert_leak_free(fleet, context=f"policy={policy}, replicas={n_replicas}")
        _assert_sticky(report)

    @given(cluster_case(with_faults=True))
    @settings(**SETTINGS)
    def test_faulted_fleet_completed_requests_stay_exact(self, case):
        """Under any injected fault schedule (independently replayed on
        each replica): the fleet drains, completed turns stay
        bit-identical, nothing leaks on any replica."""
        scripts, config, think = case
        policy, n_replicas = config.routing, config.replicas
        fleet = config.build_fleet(MODEL)
        rids = submit_scripts_to_runtime(fleet, scripts, think_time_s=think)
        report = fleet.run(max_steps=200_000)

        for rec in report.records.values():
            assert rec.status is not None, (
                f"request {rec.request_id} wedged in {rec.state} "
                f"(policy={policy}, replicas={n_replicas})"
            )
        reference = replay_scripts_sequential(lambda: fresh_engine(config.world), scripts)
        assert_exact_vs_sequential(
            report, rids, reference, completed_only=True,
            context=f"policy={policy}, replicas={n_replicas}",
        )
        assert_leak_free(fleet, context=f"policy={policy}, replicas={n_replicas}")
        _assert_sticky(report)

    @given(cluster_case())
    @settings(**SETTINGS)
    def test_routing_policy_never_changes_token_values(self, case):
        """Metamorphic over policy: the same traffic through each of the
        three routers decodes identical token streams — placement and
        timing may differ, values may not."""
        scripts, config, think = case

        def streams(policy):
            fleet = replace(config, routing=policy).build_fleet(MODEL)
            rids = submit_scripts_to_runtime(fleet, scripts, think_time_s=think)
            report = fleet.run(max_steps=200_000)
            return {
                (seq_id, i): report.record(rid).generated
                for seq_id, turn_rids in rids.items()
                for i, rid in enumerate(turn_rids)
            }

        base = streams(ROUTING_POLICIES[0])
        for policy in ROUTING_POLICIES[1:]:
            assert streams(policy) == base, (
                f"policy {policy} changed token values vs "
                f"{ROUTING_POLICIES[0]} ({config.replicas} replicas)"
            )


class TestFleetOfOneIsTheRuntime:
    @given(cluster_case())
    @settings(**SETTINGS)
    def test_single_replica_fleet_matches_bare_runtime(self, case):
        """Metamorphic anchor: a 1-replica fleet is byte-for-byte the
        bare runtime (streams, statuses, makespan), for every policy —
        the router has one choice and the step loop degenerates."""
        scripts, config, think = case
        config = replace(config, replicas=1)

        def signature(target):
            rids = submit_scripts_to_runtime(target, scripts, think_time_s=think)
            report = target.run(max_steps=200_000)
            return (
                {
                    (seq_id, i): list(report.record(rid).generated)
                    for seq_id, turn_rids in rids.items()
                    for i, rid in enumerate(turn_rids)
                },
                report.statuses(),
                report.makespan,
            )

        bare = signature(config.build(MODEL))
        fleet = signature(config.build_fleet(MODEL))
        assert fleet == bare
