"""Unit tests for the replica fleet: topology, id assignment, report
merging, metrics rollups, and the duck-typed workload glue."""

import heapq

import numpy as np
import pytest

from repro.cluster import FleetReport, ReplicaFleet, make_router
from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.runtime import ContinuousBatchingRuntime, TurnRequest
from repro.serving.metrics import FleetMetrics, ServingMetrics
from repro.serving.scheduler import ChunkedPrefillPolicy
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.replay import collect_generated, submit_scripts_to_runtime

MODEL = LlamaModel(tiny_config(), seed=0)
VOCAB = MODEL.config.vocab_size


def make_runtime(_replica_id=0, *, prefix_cache=False):
    return ContinuousBatchingRuntime(
        ContextParallelEngine(MODEL, world_size=1),
        policy=ChunkedPrefillPolicy(
            chunk_tokens=16, max_tokens_per_round=32, max_seqs_per_round=4
        ),
        prefix_cache=prefix_cache,
    )


def make_scripts(n=3, turns=2, seed=3):
    gen = WorkloadGenerator(VOCAB, seed=seed)
    return [gen.conversation(sid, turns=turns, first_prompt=20) for sid in range(n)]


class TestConstruction:
    def test_empty_runtime_list_rejected(self):
        with pytest.raises(ValueError, match="at least one runtime"):
            ReplicaFleet([])

    def test_build_rejects_non_positive_counts(self):
        with pytest.raises(ValueError, match="replica count"):
            ReplicaFleet.build(make_runtime, 0)

    def test_build_calls_factory_with_sequential_ids(self):
        seen = []

        def factory(replica_id):
            seen.append(replica_id)
            return make_runtime()

        fleet = ReplicaFleet.build(factory, 3)
        assert seen == [0, 1, 2]
        assert [r.id for r in fleet.replicas] == [0, 1, 2]

    def test_default_router_is_prefix_affinity(self):
        assert ReplicaFleet([make_runtime()]).router.name == "prefix"

    def test_unknown_replica_id_raises(self):
        with pytest.raises(KeyError, match="unknown replica"):
            ReplicaFleet([make_runtime()]).replica(7)


class TestIdsAndStickiness:
    def test_fleet_assigns_globally_unique_request_ids(self):
        fleet = ReplicaFleet.build(make_runtime, 3, router=make_router("round-robin"))
        scripts = make_scripts(n=4, turns=2)
        rids = [rid for s in scripts for rid in fleet.submit_script(s)]
        assert rids == list(range(8))

    def test_explicit_request_id_honoured_and_advances_counter(self):
        fleet = ReplicaFleet([make_runtime()])
        gen = WorkloadGenerator(VOCAB, seed=0)
        req = TurnRequest(
            request_id=10, seq_id=0, prompt=gen.prompt(8),
            max_new_tokens=2, last_turn=False,
        )
        assert fleet.submit(req) == 10
        follow = TurnRequest(
            request_id=-1, seq_id=0, prompt=gen.prompt(4),
            max_new_tokens=2, last_turn=True,
        )
        assert fleet.submit(follow) == 11

    def test_duplicate_request_id_rejected(self):
        fleet = ReplicaFleet([make_runtime()])
        gen = WorkloadGenerator(VOCAB, seed=0)

        def req(rid, seq, last):
            return TurnRequest(
                request_id=rid, seq_id=seq, prompt=gen.prompt(4),
                max_new_tokens=1, last_turn=last,
            )

        fleet.submit(req(0, 0, False))
        with pytest.raises(ValueError, match="already submitted"):
            fleet.submit(req(0, 1, True))

    def test_follow_up_turns_stick_to_placement(self):
        fleet = ReplicaFleet.build(make_runtime, 3, router=make_router("round-robin"))
        scripts = make_scripts(n=3, turns=3)
        for s in scripts:
            fleet.submit_script(s)
        report = fleet.run(max_steps=200_000)
        assert report.placements == {0: 0, 1: 1, 2: 2}
        for rid, rec in report.records.items():
            assert report.owners[rid] == report.placements[rec.seq_id]

    def test_negative_think_time_rejected(self):
        with pytest.raises(ValueError, match="think_time"):
            ReplicaFleet([make_runtime()]).submit_script(
                make_scripts(n=1)[0], think_time=-1.0
            )


class TestTopologyChanges:
    def test_add_replica_assigns_next_id_and_routes(self):
        fleet = ReplicaFleet.build(make_runtime, 2, router=make_router("round-robin"))
        assert fleet.add_replica(make_runtime()) == 2
        scripts = make_scripts(n=3, turns=1)
        for s in scripts:
            fleet.submit_script(s)
        assert sorted(fleet.placements().values()) == [0, 1, 2]

    def test_join_readmits_a_drained_replica(self):
        fleet = ReplicaFleet.build(make_runtime, 2, router=make_router("round-robin"))
        fleet.drain(0)
        scripts = make_scripts(n=3, turns=1)
        fleet.submit_script(scripts[0])
        assert fleet.placements()[0] == 1
        fleet.join(0)
        fleet.submit_script(scripts[1])
        fleet.submit_script(scripts[2])
        assert 0 in set(fleet.placements().values())


class TestFleetReport:
    @pytest.fixture(scope="class")
    def run(self):
        fleet = ReplicaFleet.build(
            lambda i: make_runtime(i, prefix_cache=True),
            2,
            router=make_router("round-robin"),
        )
        scripts = make_scripts(n=4, turns=2)
        rids = submit_scripts_to_runtime(fleet, scripts)
        report = fleet.run(max_steps=200_000)
        return fleet, scripts, rids, report

    def test_records_merge_every_replica(self, run):
        _fleet, scripts, _rids, report = run
        total = sum(s.turns for s in scripts)
        assert len(report.records) == total
        assert len(report.completed) == total
        assert report.statuses() == {"finished": total}
        per_replica = sum(
            len(r.records) for r in report.replica_reports.values()
        )
        assert per_replica == total

    def test_rollup_counters_sum_replicas(self, run):
        _fleet, _scripts, _rids, report = run
        assert report.prefill_rounds == sum(
            r.prefill_rounds for r in report.replica_reports.values()
        )
        assert report.decode_rounds == sum(
            r.decode_rounds for r in report.replica_reports.values()
        )
        assert report.generated_tokens == sum(
            len(rec.generated) for rec in report.records.values()
        )

    def test_makespan_is_latest_replica_clock(self, run):
        fleet, _scripts, _rids, report = run
        assert report.makespan == max(r.now for r in fleet.replicas)
        assert report.goodput() == pytest.approx(
            len(report.completed) / report.makespan
        )
        assert report.tokens_per_second() == pytest.approx(
            report.generated_tokens / report.makespan
        )

    def test_duck_typed_glue_collects_fleet_streams(self, run):
        """collect_generated written against RuntimeReport works on a
        FleetReport unchanged — the interface lift the workloads glue
        relies on."""
        _fleet, _scripts, rids, report = run
        streams = collect_generated(report, rids)
        assert set(streams) == set(rids)
        for seq_id, turn_rids in rids.items():
            assert streams[seq_id] == [report.generated(r) for r in turn_rids]

    def test_collect_generated_builds_no_merged_dict(self, run, monkeypatch):
        """`records` merges every replica's dict per access; reading one
        request through it made a fleet verify quadratic in requests.
        `record` / `generated` go through `owners` to the owning replica."""
        _fleet, _scripts, rids, report = run
        merged = report.records
        want = {
            seq_id: [list(merged[rid].generated) for rid in turn_rids]
            for seq_id, turn_rids in rids.items()
        }
        monkeypatch.setattr(
            FleetReport, "records", property(lambda self: pytest.fail("merged dict built"))
        )
        assert collect_generated(report, rids) == want
        for rid, owner in report.owners.items():
            assert report.record(rid) is merged[rid]
            # the runtime report answers the same accessor: the glue duck-types
            assert report.replica_reports[owner].record(rid) is merged[rid]

    def test_kv_leak_reports_cover_every_replica(self, run):
        fleet, _scripts, _rids, report = run
        audits = fleet.kv_leak_reports()
        assert sorted(audits) == [r.id for r in fleet.replicas]
        assert all(not leaks for leaks in audits.values())


class TestFleetMetrics:
    def test_duplicate_replica_rejected(self):
        fm = FleetMetrics()
        fm.add_replica(0, ServingMetrics(), 1.0)
        with pytest.raises(ValueError, match="already added"):
            fm.add_replica(0, ServingMetrics(), 2.0)

    def test_rollups_sum_over_replicas(self):
        fm = FleetMetrics()
        a, b = ServingMetrics(), ServingMetrics()
        for _ in range(3):
            a.fold("finish", 0.0, {})
        a.fold("prefix_hit", 0.0, {"reused": 10})
        b.fold("finish", 0.0, {})
        b.fold("prefix_miss", 0.0, {})
        fm.add_replica(0, a, 2.0)
        fm.add_replica(1, b, 4.0)
        assert fm.completed_requests == 4
        assert (fm.prefix_hits, fm.prefix_misses) == (1, 1)
        assert fm.prefix_hit_rate == pytest.approx(0.5)
        assert fm.replica_goodput(0) == pytest.approx(1.5)
        assert fm.fleet_goodput(4.0) == pytest.approx(1.0)
        assert fm.fleet_goodput(0.0) == 0.0

    def test_ttft_percentiles_pool_replica_samples(self):
        fm = FleetMetrics()
        a, b = ServingMetrics(), ServingMetrics()
        a.fold("finish", 0.0, {"ttft": 1.0, "warm": True})
        b.fold("finish", 0.0, {"ttft": 3.0, "warm": False})
        fm.add_replica(0, a, 1.0)
        fm.add_replica(1, b, 1.0)
        assert fm.percentile_ttft(50) == pytest.approx(2.0)
        assert fm.percentile_ttft_split(50, warm=True) == pytest.approx(1.0)
        assert fm.percentile_ttft_split(50, warm=False) == pytest.approx(3.0)
        empty = FleetMetrics()
        assert np.isnan(empty.percentile_ttft(50))

    def test_summary_mentions_every_replica(self):
        fm = FleetMetrics()
        fm.add_replica(0, ServingMetrics(), 1.0)
        fm.add_replica(1, ServingMetrics(), 1.0)
        text = fm.summary()
        assert "replicas: 2" in text
        assert "replica 0:" in text and "replica 1:" in text


class TestStepInterleaving:
    def test_step_advances_furthest_behind_replica(self):
        fleet = ReplicaFleet.build(make_runtime, 2, router=make_router("round-robin"))
        scripts = make_scripts(n=2, turns=1)
        for s in scripts:
            fleet.submit_script(s)
        while fleet.step():
            clocks = sorted(r.now for r in fleet.replicas if r.live())
            live = [r for r in fleet.replicas if r.live()]
            if len(live) == 2:
                # the lagging replica is never more than one round ahead
                # of where the leader was when it was chosen
                assert clocks[0] <= fleet.now
        assert fleet.run().statuses() == {"finished": 2}


class StubRuntime:
    """The four things `ReplicaFleet` asks of a runtime while stepping —
    `now`, `live_requests()`, `step()`, `submit()` — with clock reads
    counted and the cost of each step scripted."""

    def __init__(self, costs=()):
        self.t = 0.0
        self.pending = 0
        self.costs = list(costs)
        self.clock_reads = 0
        self.steps = 0

    @property
    def now(self):
        self.clock_reads += 1
        return self.t

    def live_requests(self):
        return self.pending

    def submit(self, request):
        self.pending += 1
        return request.request_id

    def step(self):
        self.steps += 1
        self.t += self.costs.pop(0) if self.costs else 1.0
        self.pending -= 1
        return self.pending > 0


def stub_request(seq_id):
    return TurnRequest(
        request_id=-1, seq_id=seq_id, prompt=np.arange(3, dtype=np.int64), max_new_tokens=1
    )


def checked_step(fleet):
    """`fleet.step()` with the old scan as oracle: the runtime that stepped
    is the live `(now, id)` minimum, and the return value says whether any
    replica is still live."""
    live = [(r.runtime.t, r.id) for r in fleet.replicas if r.live()]
    before = {r.id: r.runtime.steps for r in fleet.replicas}
    more = fleet.step()
    stepped = [r.id for r in fleet.replicas if r.runtime.steps != before[r.id]]
    if live:
        assert stepped == [min(live)[1]], f"stepped {stepped}, the minimum is replica {min(live)[1]}"
    else:
        assert stepped == []
    assert more == any(r.live() for r in fleet.replicas)
    return more


def stub_fleet(costs_per_replica, requests_per_replica):
    fleet = ReplicaFleet(
        [StubRuntime(costs) for costs in costs_per_replica], router=make_router("round-robin")
    )
    seq_id = 0
    for _ in range(requests_per_replica):
        for _replica in fleet.replicas:
            fleet.submit(stub_request(seq_id))
            seq_id += 1
    return fleet


class TestClockOrderedStepping:
    def test_tied_clocks_go_to_the_lowest_id(self):
        fleet = stub_fleet([[1.0, 1.0], [1.0, 1.0], [0.5, 1.5]], 2)
        while checked_step(fleet):
            pass
        assert [r.runtime.steps for r in fleet.replicas] == [2, 2, 2]

    def test_uneven_rounds_interleave_by_clock(self):
        fleet = stub_fleet([[3.0, 0.25, 0.25], [0.5, 0.5, 4.0], [1.0, 1.0, 1.0]], 3)
        while checked_step(fleet):
            pass

    def test_drained_then_resubmitted_replica_is_stepped_again(self):
        fleet = stub_fleet([[2.0], [1.0, 1.0, 1.0]], 1)
        fleet.submit(stub_request(1))  # sticky: replica 1 has two more steps
        assert checked_step(fleet) and checked_step(fleet)  # 0 drains at t=2, 1 at t=1
        assert not fleet.replica(0).live()
        fleet.submit(stub_request(0))  # sticky to the drained replica
        fleet.submit(stub_request(1))
        while checked_step(fleet):
            pass
        assert [r.runtime.steps for r in fleet.replicas] == [2, 3]

    def test_directly_stepped_runtime_is_rekeyed_not_trusted(self):
        """A caller may step a replica's runtime behind the fleet's back:
        its clock moved on, so its queued key is stale (too early)."""
        fleet = stub_fleet([[1.0] * 4, [1.5] * 4], 4)
        fleet.replica(0).runtime.step()
        fleet.replica(0).runtime.step()  # replica 0 now at t=2 with key 0
        while checked_step(fleet):
            pass

    def test_directly_drained_runtime_is_dropped(self):
        fleet = stub_fleet([[1.0], [1.0]], 1)
        fleet.replica(0).runtime.step()  # drained without the fleet seeing it
        assert not checked_step(fleet)  # steps replica 1, nothing live after
        assert not checked_step(fleet)

    def test_direct_submit_is_found_when_the_heap_runs_dry(self):
        fleet = stub_fleet([[1.0], [1.0]], 0)
        assert not fleet.step()
        fleet.replica(1).runtime.submit(stub_request(0))
        assert not checked_step(fleet)
        assert fleet.replica(1).runtime.steps == 1

    def test_mutant_stale_key_stepped_without_revalidation_dies(self, monkeypatch):
        def trusting(self):
            while self._clocks and not self._replicas[self._clocks[0][1]].live():
                heapq.heappop(self._clocks)
            return self._replicas[self._clocks[0][1]] if self._clocks else None

        monkeypatch.setattr(ReplicaFleet, "_lagging", trusting)
        with pytest.raises(AssertionError, match="the minimum is replica 1"):
            self.test_directly_stepped_runtime_is_rekeyed_not_trusted()

    def test_clock_reads_per_step_do_not_grow_with_replicas(self):
        """Scaling guard: the scan read every live replica's clock on every
        step; the heap reads the stepped replica's and the new top's."""

        def reads_per_step(n):
            fleet = stub_fleet([[1.0 + 0.01 * i] * 6 for i in range(n)], 6)
            for r in fleet.replicas:
                r.runtime.clock_reads = 0
            steps = 0
            while fleet.step():
                steps += 1
            assert steps + 1 == 6 * n
            return sum(r.runtime.clock_reads for r in fleet.replicas) / steps

        small, large = reads_per_step(4), reads_per_step(32)
        assert large <= small + 0.5 and large <= 5
