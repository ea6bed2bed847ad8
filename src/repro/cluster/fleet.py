"""Multi-replica fleet: N independent runtimes behind a router.

The cluster tier the ROADMAP's "millions of users" north star needs,
built Mooncake/SGLang-shaped: each :class:`Replica` wraps one
:class:`repro.runtime.runtime.ContinuousBatchingRuntime` (colocated or
disaggregated, its own simulated clocks), and a
:class:`repro.cluster.router.Router` decides which replica serves each
*new* conversation. Three fleet-level rules keep the whole thing exactly
replayable:

- **Globally unique request ids.** The fleet assigns every turn's id
  from one counter before handing it to a replica, so the merged
  :class:`FleetReport` keyspace is collision-free and a fleet rid means
  the same thing everywhere.
- **Session stickiness.** A conversation's first turn is routed; every
  follow-up turn goes to the same replica — its KV lives there.
  Stickiness overrides :meth:`ReplicaFleet.drain`: draining only stops
  *new* conversations, resident ones finish where they are.
- **Causal interleaving.** :meth:`ReplicaFleet.step` always advances the
  replica that is furthest behind in simulated time (ties to the lowest
  id), so cross-replica event order is deterministic and independent of
  submission thread/order accidents.

Exactness rescope: because replicas share nothing at execution time
(routing only picks a placement before any engine round runs), every
completed request's greedy token stream is bit-identical to sequential
:class:`repro.serving.session.ChatSession` replay *regardless of routing
policy, replica count, drain schedule, or injected faults* — the
property ``tests/properties/test_prop_cluster.py`` pins. Routing changes
placement, timing, and completion; never values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.router import PrefixAffinityRouter, Router
from repro.obs.trace import NULL_TRACER
from repro.runtime.runtime import ContinuousBatchingRuntime, RuntimeReport
from repro.runtime.state import RequestRecord, RequestState, TurnRequest
from repro.serving.metrics import FleetMetrics
from repro.workloads.generator import ConversationScript


class Replica:
    """One runtime slot in the fleet: identity, drain flag, and the
    read-only views routers score (delegating to the runtime's
    scheduler-facing interface)."""

    def __init__(self, replica_id: int, runtime: ContinuousBatchingRuntime):
        self.id = replica_id
        self.runtime = runtime
        self.draining = False

    @property
    def now(self) -> float:
        return self.runtime.now

    def live(self) -> bool:
        return self.runtime.live_requests() > 0

    def queue_depth(self) -> int:
        return self.runtime.queue_depth()

    def queued_tokens(self) -> int:
        return self.runtime.queued_tokens()

    def busy_time(self) -> float:
        return self.runtime.busy_time()

    def match_len(self, tokens) -> int:
        return self.runtime.prefix_match_len(tokens)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Replica(id={self.id}, draining={self.draining}, "
            f"live={self.runtime.live_requests()}, now={self.now:.3f})"
        )


@dataclass
class FleetReport:
    """Merged outcome of a fleet run.

    Like :class:`repro.runtime.runtime.RuntimeReport` this is a *live
    view* over the replicas' mutable state (take it after the fleet
    drains for a stable read), and it deliberately mirrors the runtime
    report's query surface — ``records`` / ``generated`` / ``completed``
    / ``statuses`` / ``goodput`` — so workload glue and verification
    harnesses written against one runtime work against a fleet unchanged.

    Attributes:
        replica_reports: each replica's own :class:`RuntimeReport`.
        owners: fleet request id -> replica id that executed it.
        placements: conversation seq_id -> replica id (routing outcome).
        metrics: per-replica + aggregate :class:`FleetMetrics`.
        makespan: the latest replica clock (fleet wall time).
    """

    replica_reports: dict[int, RuntimeReport] = field(default_factory=dict)
    owners: dict[int, int] = field(default_factory=dict)
    placements: dict[int, int] = field(default_factory=dict)
    metrics: FleetMetrics = field(default_factory=FleetMetrics)
    makespan: float = 0.0

    @property
    def records(self) -> dict[int, RequestRecord]:
        """Every request record across the fleet (ids globally unique)."""
        merged: dict[int, RequestRecord] = {}
        for report in self.replica_reports.values():
            merged.update(report.records)
        return merged

    def record(self, request_id: int) -> RequestRecord:
        """One request's record, read from its owning replica (no merge)."""
        return self.replica_reports[self.owners[request_id]].record(request_id)

    def generated(self, request_id: int) -> list[int]:
        return list(self.record(request_id).generated)

    @property
    def completed(self) -> dict[int, RequestRecord]:
        """FINISHED records — the serving-exactness population."""
        return {
            rid: rec
            for rid, rec in self.records.items()
            if rec.state is RequestState.FINISHED
        }

    @property
    def generated_tokens(self) -> int:
        return sum(len(r.generated) for r in self.records.values())

    def tokens_per_second(self) -> float:
        """Fleet-decoded tokens per simulated second of fleet time."""
        return self.generated_tokens / self.makespan if self.makespan > 0 else 0.0

    @property
    def prefill_rounds(self) -> int:
        return sum(r.prefill_rounds for r in self.replica_reports.values())

    @property
    def decode_rounds(self) -> int:
        return sum(r.decode_rounds for r in self.replica_reports.values())

    def statuses(self) -> dict[str, int]:
        """Terminal-status histogram across every replica."""
        counts: dict[str, int] = {}
        for rec in self.records.values():
            key = rec.status or "running"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def goodput(self) -> float:
        """Fleet-completed requests per simulated second of fleet time."""
        return len(self.completed) / self.makespan if self.makespan > 0 else 0.0


class ReplicaFleet:
    """N runtimes behind a routing policy, with drain/join elasticity.

    Args:
        runtimes: the replica runtimes, assigned ids 0..N-1 in order.
            Disaggregated and colocated replicas mix freely — a replica
            is opaque to the router beyond its scheduler-facing views.
        router: routing policy for *new* conversations (default: a fresh
            :class:`repro.cluster.router.PrefixAffinityRouter`).
        tracer: optional :class:`repro.obs.trace.Tracer` receiving one
            ``route`` instant per placement decision (policy, stickiness,
            chosen replica, and — for score-based policies — the
            candidate scores). Replica-internal events are emitted by
            each runtime's own tracer, which the factory should scope
            with ``tracer.scoped(replica=i)`` so fleet traces stay
            attributable per replica.
    """

    def __init__(
        self,
        runtimes: list[ContinuousBatchingRuntime],
        *,
        router: Router | None = None,
        tracer=None,
    ):
        if not runtimes:
            raise ValueError("a fleet needs at least one runtime")
        self.router = router if router is not None else PrefixAffinityRouter()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._replicas: dict[int, Replica] = {
            i: Replica(i, rt) for i, rt in enumerate(runtimes)
        }
        self._next_replica_id = len(runtimes)
        self._next_rid = 0
        self._sticky: dict[int, int] = {}  # seq_id -> replica id
        self._owners: dict[int, int] = {}  # request id -> replica id
        # (now, id) min-heap over live replicas. Clocks only move forward, so a
        # stale key is early, never late: re-key the top until it is current.
        self._clocks: list[tuple[float, int]] = []

    @classmethod
    def build(
        cls, make_runtime, n: int, *, router: Router | None = None, tracer=None
    ) -> "ReplicaFleet":
        """Construct a fleet of ``n`` replicas from a factory.

        ``make_runtime(replica_id)`` must return a *fresh* runtime per
        call — replicas share model weights (cheap, read-only) but never
        engines, clocks, policies, or metrics.
        """
        if n < 1:
            raise ValueError(f"replica count must be >= 1, got {n}")
        return cls([make_runtime(i) for i in range(n)], router=router, tracer=tracer)

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #

    @property
    def replicas(self) -> list[Replica]:
        """Replicas in id order (ids only grow, so insertion order)."""
        return list(self._replicas.values())

    def replica(self, replica_id: int) -> Replica:
        if replica_id not in self._replicas:
            raise KeyError(f"unknown replica {replica_id}")
        return self._replicas[replica_id]

    def add_replica(self, runtime: ContinuousBatchingRuntime) -> int:
        """Join a fresh runtime into the fleet; returns its replica id."""
        rid = self._next_replica_id
        self._next_replica_id += 1
        self._replicas[rid] = Replica(rid, runtime)
        return rid

    def drain(self, replica_id: int) -> None:
        """Stop routing *new* conversations to a replica.

        Resident conversations keep running to completion there
        (stickiness overrides drain — their KV cannot move), so a drain
        followed by :meth:`run` leaves the replica empty and auditable.
        """
        self.replica(replica_id).draining = True

    def join(self, replica_id: int) -> None:
        """Readmit a drained replica to routing."""
        self.replica(replica_id).draining = False

    # ------------------------------------------------------------------ #
    # submission / routing
    # ------------------------------------------------------------------ #

    def submit(self, request: TurnRequest) -> int:
        """Route and enqueue one turn; returns its fleet request id.

        First turns of a conversation are placed by the router over the
        non-draining replicas (in id order); follow-up turns stick to
        the conversation's replica. Ids are fleet-assigned and globally
        unique (an explicit non-negative id is honoured, like
        :meth:`ContinuousBatchingRuntime.submit`).
        """
        if request.request_id < 0:
            request.request_id = self._next_rid
        if request.request_id in self._owners:
            raise ValueError(f"request {request.request_id} already submitted")
        self._next_rid = max(self._next_rid, request.request_id) + 1

        seq_id = request.seq_id
        if seq_id in self._sticky:
            replica = self._replicas[self._sticky[seq_id]]
            if self.tracer.enabled:
                self.tracer.instant(
                    "route",
                    request.arrival,
                    request_id=request.request_id,
                    seq_id=seq_id,
                    replica=replica.id,
                    policy=self.router.name,
                    sticky=True,
                )
        else:
            eligible = [r for r in self._replicas.values() if not r.draining]
            if not eligible:
                raise RuntimeError(
                    "every replica is draining: no placement target for a "
                    "new conversation"
                )
            tokens = np.asarray(request.prompt, dtype=np.int64)
            replica = self.router.place(tokens, eligible)
            if self.tracer.enabled:
                # scores are read *before* placed() updates the shadow
                # index, so they are the ones place() actually compared
                scores = {
                    str(rid): score
                    for rid, score in self.router.scores(tokens, eligible).items()
                }
                self.tracer.instant(
                    "route",
                    request.arrival,
                    request_id=request.request_id,
                    seq_id=seq_id,
                    replica=replica.id,
                    policy=self.router.name,
                    sticky=False,
                    **({"scores": scores} if scores else {}),
                )
            self.router.placed(replica, tokens)
            self._sticky[seq_id] = replica.id

        self._owners[request.request_id] = replica.id
        if not replica.live():  # live replicas are queued already
            heapq.heappush(self._clocks, (replica.now, replica.id))
        return replica.runtime.submit(request)

    def submit_script(
        self,
        script: ConversationScript,
        *,
        arrival: float = 0.0,
        think_time: float = 0.0,
    ) -> list[int]:
        """Enqueue a scripted conversation; returns its fleet request ids.

        Mirrors :meth:`ContinuousBatchingRuntime.submit_script` exactly
        (turn ``i`` arrives no earlier than ``arrival + i*think_time``),
        which is what lets :func:`repro.workloads.replay
        .submit_scripts_to_runtime` duck-type over runtimes and fleets.
        """
        if think_time < 0:
            raise ValueError("think_time must be >= 0")
        rids = []
        n = script.turns
        for i, (prompt, budget) in enumerate(
            zip(script.prompts, script.response_budgets)
        ):
            rids.append(
                self.submit(
                    TurnRequest(
                        request_id=-1,
                        seq_id=script.seq_id,
                        prompt=prompt,
                        max_new_tokens=int(budget),
                        arrival=arrival + i * think_time,
                        last_turn=(i == n - 1),
                    )
                )
            )
        return rids

    def placements(self) -> dict[int, int]:
        """Routing outcome so far: conversation seq_id -> replica id."""
        return dict(self._sticky)

    # ------------------------------------------------------------------ #
    # event loop
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Fleet time: the latest replica clock."""
        return max((r.now for r in self._replicas.values()), default=0.0)

    def _lagging(self) -> Replica | None:
        """The live replica furthest behind (ties to the lowest id), left on
        top of the clock heap; ``None`` when none is live. Entries are
        revalidated because a caller may step a runtime directly; the rescan
        of a dry heap finds replicas made live by a direct ``runtime.submit``."""
        heap = self._clocks
        while True:
            if not heap:
                heap.extend((r.now, r.id) for r in self._replicas.values() if r.live())
                if not heap:
                    return None
                heapq.heapify(heap)
            key, rid = heap[0]
            replica = self._replicas[rid]
            now = replica.now
            if not replica.live():
                heapq.heappop(heap)
            elif now != key:
                heapq.heapreplace(heap, (now, rid))
            else:
                return replica

    def step(self) -> bool:
        """Advance the live replica furthest behind in simulated time by
        one runtime step (ties to the lowest id). Returns ``True`` while
        any replica has unfinished requests."""
        lagging = self._lagging()
        if lagging is None:
            return False
        lagging.runtime.step()
        return self._lagging() is not None

    def run(self, *, max_steps: int | None = None) -> FleetReport:
        """Drive :meth:`step` until every replica drains."""
        steps = 0
        while self.step():
            steps += 1
            if max_steps is not None and steps >= max_steps:
                raise RuntimeError(f"fleet did not drain within {max_steps} steps")
        return self.report()

    # ------------------------------------------------------------------ #
    # reporting / audit
    # ------------------------------------------------------------------ #

    def kv_leak_reports(self) -> dict[int, list[str]]:
        """Per-replica KV audit (engines + swap stores); all-empty = the
        fleet drained leak-free."""
        return {
            rid: self._replicas[rid].runtime.kv_leak_report()
            for rid in sorted(self._replicas)
        }

    def report(self) -> FleetReport:
        metrics = FleetMetrics()
        reports: dict[int, RuntimeReport] = {}
        for rid in sorted(self._replicas):
            runtime = self._replicas[rid].runtime
            reports[rid] = runtime.report()
            metrics.add_replica(rid, runtime.metrics, runtime.now)
        return FleetReport(
            replica_reports=reports,
            owners=dict(self._owners),
            placements=self.placements(),
            metrics=metrics,
            makespan=self.now,
        )
