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
- **Causal interleaving.** :meth:`ReplicaFleet.step` always advances the
  replica that is furthest behind in simulated time (ties to the lowest
  id), so cross-replica event order is deterministic and independent of
  submission thread/order accidents.

Exactness rescope: because replicas share nothing at execution time
(routing only picks a placement before any engine round runs), every
completed request's greedy token stream is bit-identical to sequential
:class:`repro.serving.session.ChatSession` replay *regardless of routing
policy, replica count, or injected faults* — the
property ``tests/properties/test_prop_cluster.py`` pins. Routing changes
placement, timing, and completion; never values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.router import PrefixAffinityRouter, Router
from repro.obs.trace import NULL_TRACER
from repro.runtime.runtime import ContinuousBatchingRuntime, RuntimeReport, ServingReport
from repro.runtime.state import RequestRecord, TurnRequest, script_turns
from repro.serving.metrics import FleetMetrics
from repro.workloads.generator import ConversationScript


class Replica:
    """One runtime slot in the fleet: identity and the read-only views
    routers score (delegating to the runtime's scheduler-facing
    interface)."""

    def __init__(self, replica_id: int, runtime: ContinuousBatchingRuntime):
        self.id = replica_id
        self.runtime = runtime

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


@dataclass
class FleetReport(ServingReport):
    """Merged outcome of a fleet run: the runtime report's request queries
    (``record`` / ``generated`` / ``completed`` / ``statuses`` /
    ``goodput``) over every replica's records, merged once by
    :meth:`ReplicaFleet.report` — ids are fleet-unique — so workload glue
    and verification harnesses written against one runtime work against a
    fleet unchanged. ``makespan`` is the latest replica clock.

    Attributes:
        metrics: per-replica + aggregate :class:`FleetMetrics`.
        replica_reports: each replica's own :class:`RuntimeReport`.
        owners: fleet request id -> replica id that executed it.
        placements: conversation seq_id -> replica id (routing outcome).
    """

    metrics: FleetMetrics = field(default_factory=FleetMetrics)
    replica_reports: dict[int, RuntimeReport] = field(default_factory=dict)
    owners: dict[int, int] = field(default_factory=dict)
    placements: dict[int, int] = field(default_factory=dict)

    @property
    def prefill_rounds(self) -> int:
        return sum(r.prefill_rounds for r in self.replica_reports.values())

    @property
    def decode_rounds(self) -> int:
        return sum(r.decode_rounds for r in self.replica_reports.values())


class ReplicaFleet:
    """N runtimes behind a routing policy.

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
    # submission / routing
    # ------------------------------------------------------------------ #

    def submit(self, request: TurnRequest) -> int:
        """Route and enqueue one turn; returns its fleet request id.

        First turns of a conversation are placed by the router over the
        replicas (in id order); follow-up turns stick to
        the conversation's replica. Ids are fleet-assigned and globally
        unique (an explicit non-negative id is honoured, like
        :meth:`ContinuousBatchingRuntime.submit`). A prompt id outside the
        vocabulary raises ``ValueError`` before anything moves: no id is
        spent, and placements, owners and the router stay as they were.
        """
        seq_id = request.seq_id
        sticky = seq_id in self._sticky
        if sticky:
            targets = [self._replicas[self._sticky[seq_id]]]
        else:
            targets = list(self._replicas.values())
        # checked before an id is spent or the router's cursor or shadow index moves
        request.check_vocab(min(r.runtime.vocab_size for r in targets))
        if request.request_id < 0:
            request.request_id = self._next_rid
        if request.request_id in self._owners:
            raise ValueError(f"request {request.request_id} already submitted")
        self._next_rid = max(self._next_rid, request.request_id) + 1

        if sticky:
            replica = targets[0]
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
            tokens = np.asarray(request.prompt, dtype=np.int64)
            replica = self.router.place(tokens, targets)
            if self.tracer.enabled:
                # scores are read *before* placed() updates the shadow
                # index, so they are the ones place() actually compared
                scores = {
                    str(rid): score
                    for rid, score in self.router.scores(tokens, targets).items()
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
        return [
            self.submit(turn)
            for turn in script_turns(script, arrival=arrival, think_time=think_time)
        ]

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

    def kv_leak_report(self) -> list[str]:
        """The runtime's audit surface: every replica's problems, each
        prefixed with its replica; empty = the fleet drained leak-free."""
        return [
            f"replica {rid}: {leak}"
            for rid, leaks in self.kv_leak_reports().items()
            for leak in leaks
        ]

    def report(self) -> FleetReport:
        metrics = FleetMetrics()
        reports: dict[int, RuntimeReport] = {}
        records: dict[int, RequestRecord] = {}
        for rid in sorted(self._replicas):
            runtime = self._replicas[rid].runtime
            reports[rid] = runtime.report()
            records.update(reports[rid].records)
            metrics.add_replica(rid, runtime.metrics, runtime.now)
        return FleetReport(
            records=records,
            replica_reports=reports,
            owners=dict(self._owners),
            placements=self.placements(),
            metrics=metrics,
            makespan=self.now,
        )
