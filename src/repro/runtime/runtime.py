"""Continuous-batching serving runtime over the CP engine(s).

:class:`ContinuousBatchingRuntime` is the subsystem where every layer of
the reproduction executes together under live traffic: the
:class:`repro.core.engine.ContextParallelEngine` produces numerically exact
logits (or, at the paper's context lengths,
:class:`repro.core.shape_engine.ShapeEngine` the same KV bookkeeping with
tokens from a token source), the
:class:`repro.serving.scheduler.ChunkedPrefillPolicy` packs
budget-bounded prefill chunks, the paged KV allocator enforces per-rank
capacity, the planner's pass-KV/pass-Q heuristic fires per chunk, and the
:mod:`repro.runtime.clock` prices every engine round in simulated seconds
for streaming TTFT/TTIT metrics.

Each role (``"prefill"``, ``"decode"``) maps to a
:class:`repro.runtime.pool.Pool` (engine, simulated clock, holder set,
host swap store); the deployment shape is how many distinct pools:

- **Colocated** (default): both roles bind to *one* pool — the paper's
  standalone deployment. Rounds of both kinds share its clock and
  capacity, so every decoded token pays prefill interference, and there
  is no wire.
- **Disaggregated** (``decode_engine`` given; §4.3, citing DistServe and
  Mooncake): two pools joined by a serialized, bandwidth-priced
  :class:`repro.runtime.transfer.KVTransferStream`. Each pool advances
  its own clock, so decode TTIT is interference-free — what the
  "Disaggregation" and "Serving under load" experiments measure.

One ``step`` serves both (apply faults, land transfers, admit, swap in,
wake idle pools, pick a round, run it, handle dead ends); only the wake
and pick rules ask whether the roles share a pool.

Scheduling model (event-driven, deterministic):

- **Chunked prefill**: pending prompts commit in FIFO order, at most
  ``chunk_tokens`` per request per round, fused across requests up to the
  round token budget. Each chunk is a partial prefill over the KV the
  previous chunks committed, so a long prompt never monopolizes the
  engine and the heuristic can flip to pass-Q as the chunk-local
  cache-hit rate climbs.
- **Decode interleaving** (colocated): when requests are decoding, one
  prefill round runs between batched decode rounds. Disaggregated pools
  do not interleave — they run concurrently, and the event loop simply
  advances whichever pool's clock is behind.
- **KV transfer** (disaggregated): when a turn's last prefill chunk
  commits, its first token streams immediately from the prefill pool's
  logits (TTFT does not wait for the wire); the request then sits in
  ``KV_TRANSFER`` until the channel delivers its KV delta and the decode
  pool admits it. Conversations *reside* in the decode pool between
  turns; follow-up turns re-prefill their full committed history on the
  prefill pool (exact recompute) and ship only the positions the decode
  pool does not already hold.
- **Admission & preemption**: before any round, its exact per-rank KV
  token demand (from the engine's load-balanced sharding) is checked
  against that pool's paged allocator. Under pressure a pool evicts, in
  order: idle conversations (between turns), then the *youngest* active
  request — never one older than any beneficiary of the round, so
  admission stays FCFS, and never the oldest live request. One victim
  loop (``_make_room``) serves all four admission points (prefill fit,
  decode fit, transfer landing, swap-in); a landing that cannot make
  room is *refused* (left on the wire, retried). A request evicted
  mid-transfer has its transfer
  cancelled (only wire time already streamed is sunk; a still-queued
  payload refunds its reservation and successors re-pack). Because the
  algorithms are exact for any sharding and chunking, the resumed
  request's tokens are identical to an uninterrupted run (pinned by
  property tests).
- **Preemption remedies** (``preemption=``): what eviction does to the
  victim's KV. ``"recompute"`` (default, vLLM-style) drops the whole
  conversation and re-prefills the full committed history on resume.
  ``"trim"`` drops only the victim's *newest* KV blocks — roughly one
  allocator block per rank per application, repeatedly under sustained
  pressure, down to full eviction — so resume re-prefills just the
  trimmed suffix over the resident prefix.
  ``"swap"`` exports the victim's KV whole into a per-pool host-side
  store (bounded by ``swap_capacity_tokens``) at
  ``clock.price_swap(tokens)`` PCIe cost, and imports it back — same
  price again — once the pool readmits it, with *no* recompute in either
  direction: a decode victim resumes decoding its pending token
  directly. The remedy is one ladder: the configured rung, then full
  eviction, which always applies — so trim and swap fall back to it when
  they cannot (mid-transfer victims, a full host store, a prefix already
  trimmed to nothing, a payload larger than the empty pool).
  DistServe/Mooncake-class systems trade HBM this way; the discrete
  clocks price each remedy honestly, and none of them may change tokens.
- **Shared-prefix reuse** (``prefix_cache=True``): admission matches
  each fresh stream's input against a radix index of resident committed
  prefixes and adopts the longest hit through refcounted copy-on-write
  paged blocks — capacity and prefill compute are charged only for the
  uncached suffix, matched donors are pinned for the borrower's
  lifetime (tail-trim never cuts into an adopted span), and finished
  conversations stay resident as LRU-evictable cached prefixes instead
  of releasing. Disaggregated, the prefill pool retains its copy after
  each transfer, so follow-up turns skip the history recompute and ship
  only deltas (Mooncake's KVCache-centric architecture).

- **Fault injection & graceful degradation** (``faults=``): a seeded
  :class:`repro.runtime.faults.FaultPlan` makes the failure surface
  explicit — in-flight KV transfers die mid-stream (retried with capped
  exponential backoff, then degraded to full re-prefill of the committed
  history), host-stored swap payloads vanish at swap-in time (recompute
  fallback), and whole pools reset, requeueing every holder with
  consistent prefix-index/allocator invalidation. Per-request deadlines
  shed late requests (``timed_out``) and a queue-depth cap rejects
  admissions under overload (``shed``), so saturation degrades
  completion rate instead of wedging the run. Every recovery path lands
  on machinery preemption already exercises, so faults change *which*
  requests complete and *when* — never the tokens a completed request
  streams.

Exactness contract: for greedy decoding, the per-request token streams are
identical to replaying each conversation sequentially through
:class:`repro.serving.session.ChatSession` on a dedicated engine —
continuous batching, chunking, preemption, pool splits, transfer and
fault/retry/shed schedules change *placement, timing and completion*,
never values. Under faults the contract is scoped to requests that reach
``FINISHED`` (:attr:`RuntimeReport.completed`): a shed request's partial
stream carries no exactness claim.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import ContextParallelEngine
from repro.core.sharding import SequenceSpec
from repro.model.sampling import sample_greedy
from repro.obs.trace import EventStream
from repro.runtime.clock import UnitStepClock
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.pool import Pool
from repro.runtime.state import RequestRecord, RequestState, TurnRequest, script_turns
from repro.runtime.transfer import KVTransferStream
from repro.serving.metrics import ServingMetrics
from repro.serving.scheduler import ChunkAssignment, ChunkedPrefillPolicy
from repro.workloads.generator import ConversationScript

#: States in which a request occupies (or is about to occupy) engine KV.
_ACTIVE_STATES = (RequestState.PREFILL, RequestState.KV_TRANSFER, RequestState.DECODE)
#: ... plus PREEMPTED: a tail-trimmed residue queued for re-prefill still
#: holds KV as a request (see :meth:`ContinuousBatchingRuntime._active_in`).
_HOLDING_STATES = _ACTIVE_STATES + (RequestState.PREEMPTED,)

#: FCFS order of a request: ``(arrival, request_id)``.
_Key = tuple[float, int]

#: Pool roles: metrics keys, trace labels, and the keys of the runtime's
#: role -> :class:`Pool` map.
POOL_PREFILL = "prefill"
POOL_DECODE = "decode"


class RuntimeWedged(RuntimeError):
    """A run that cannot make progress: its KV capacity cannot hold the
    traffic it was given, even after evicting every eligible victim."""


@dataclass
class ServingReport:
    """The request queries a runtime's and a fleet's report share.

    Attributes:
        records: every submitted request's record, by request id. The
            keyspace is fixed when the report is taken; the records are the
            runtime's own, so one taken mid-run keeps updating as further
            steps execute (take the report after ``run`` drains for a stable
            read).
        makespan: simulated seconds from 0 to the last round's end (the
            latest pool clock, or the latest replica's in a fleet).
    """

    records: dict[int, RequestRecord] = field(default_factory=dict)
    makespan: float = 0.0

    @property
    def generated_tokens(self) -> int:
        return sum(len(r.generated) for r in self.records.values())

    def tokens_per_second(self) -> float:
        """Decoded tokens per simulated second over the makespan."""
        return self.generated_tokens / self.makespan if self.makespan > 0 else 0.0

    def record(self, request_id: int) -> RequestRecord:
        """One request's record."""
        return self.records[request_id]

    @property
    def completed(self) -> dict[int, RequestRecord]:
        """Records that reached ``FINISHED`` — the population the
        serving-exactness contract covers under fault schedules (a
        ``timed_out``/``shed`` request's partial stream claims nothing).
        Callers should use this instead of inferring outcomes from token
        counts."""
        return {
            rid: rec
            for rid, rec in self.records.items()
            if rec.state is RequestState.FINISHED
        }

    def statuses(self) -> dict[str, int]:
        """Terminal-status histogram (``finished``/``timed_out``/``shed``;
        in-flight requests under ``None``'s key ``"running"``)."""
        counts: dict[str, int] = {}
        for rec in self.records.values():
            key = rec.status or "running"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def goodput(self) -> float:
        """Completed requests per simulated host-second over the makespan
        (DistServe's serving-quality axis; 0 before any time elapses)."""
        return len(self.completed) / self.makespan if self.makespan > 0 else 0.0


@dataclass
class RuntimeReport(ServingReport):
    """Aggregate outcome of a runtime run.

    Attributes:
        metrics: the runtime's own rolled-up serving metrics (turns,
            TTFT/TTIT percentiles, preemption/eviction and KV-transfer
            counters), live like the records.
    """

    metrics: ServingMetrics = field(default_factory=ServingMetrics)

    @property
    def prefill_rounds(self) -> int:
        """Executed prefill rounds (the fold's ``pool_rounds``)."""
        return self.metrics.pool_rounds.get(POOL_PREFILL, 0)

    @property
    def decode_rounds(self) -> int:
        """Executed decode rounds (the fold's ``pool_rounds``)."""
        return self.metrics.pool_rounds.get(POOL_DECODE, 0)

    def pool_utilization(self) -> dict[str, float]:
        """Busy fraction per pool over the makespan."""
        return {
            pool: self.metrics.pool_utilization(pool, self.makespan)
            for pool in sorted(self.metrics.pool_busy_s)
        }


class ContinuousBatchingRuntime:
    """Event-driven continuous batching over one or two CP engine pools.

    Deployments are built through :meth:`repro.runtime.ServeConfig.build`,
    which wires engines, policy, clock and (for ``replicas > 1``) a fleet
    from plain values; call this constructor directly only for a piece
    ``ServeConfig`` does not make, such as a hand-priced clock.

    Args:
        engine: the numeric engine running prefill rounds (and, when no
            ``decode_engine`` is given, decode rounds too — the colocated
            deployment). Its ``capacity_tokens`` is the prefill pool's KV
            pressure source; unbounded engines never preempt.
        decode_engine: optional second engine (any world size) that turns
            the runtime into a disaggregated prefill/decode deployment:
            decode rounds run here against this pool's own paged-KV
            capacity, fed by a KV-transfer stream. Must share the prefill
            engine's model weights.
        policy: chunked-prefill round packing (default 512-token chunks,
            test scale).
        clock: round pricer (default :class:`UnitStepClock`); also prices
            the :class:`KVTransferStream` when disaggregated.
        preemption: eviction remedy — ``"recompute"`` (full evict +
            exact re-prefill, the default), ``"trim"`` (tail-trim: drop
            newest KV only, re-prefill just the suffix), or ``"swap"``
            (export to a host-side store at PCIe cost, import back
            before resume, no recompute).
        swap_capacity_tokens: per-pool host-store budget in KV tokens
            for ``preemption="swap"`` (``None`` = unbounded host DRAM).
            A victim that does not fit the store falls back to full
            eviction.
        prefix_cache: enable shared-prefix KV reuse (a radix index over
            committed token ids on the prefill engine). Admission
            matches each fresh stream's input against resident prefixes
            and adopts the longest hit through refcounted paged blocks —
            capacity and prefill compute are charged only for the
            uncached suffix. Finished conversations stay resident as
            LRU-evictable cached prefixes instead of releasing
            (disaggregated: the prefill-pool copy; the decode pool never
            donates), and matched donors are pinned for the borrowing
            request's lifetime.
        faults: optional :class:`repro.runtime.faults.FaultPlan` turning
            on deterministic fault injection — seeded transfer failures
            (retry with capped backoff, then re-prefill fallback), swap
            losses (recompute fallback), whole-pool KV resets, per-request
            deadlines (timeout shedding) and queue-depth backpressure.
            ``None`` (default) or an inactive plan injects nothing.
        sanitize: attach the KV shadow-state sanitizer
            (:mod:`repro.analysis.sanitizer`) to every pool engine.
            Each allocator op and engine lifecycle op is then validated
            against an independent shadow model, raising
            :class:`~repro.analysis.sanitizer.SanitizerError` at the
            first double-free / use-after-free / refcount underflow /
            COW violation, and :meth:`run` checks for undrained leaks
            after the queue empties.
        tracer: a :class:`repro.obs.trace.Tracer` recording structured
            scheduling events (admissions, rounds, transfers, swaps,
            preemptions, faults, completions) at simulated timestamps.
            Defaults to the null tracer; a fleet passes each replica a
            ``tracer.scoped(replica=i)`` view. The runtime emits through
            an :class:`~repro.obs.trace.EventStream` over it, whose fold
            is where ``metrics``' counters come from — recorded or not.
    """

    def __init__(
        self,
        engine: ContextParallelEngine,
        *,
        decode_engine: ContextParallelEngine | None = None,
        policy: ChunkedPrefillPolicy | None = None,
        clock=None,
        preemption: str = "recompute",
        swap_capacity_tokens: int | None = None,
        prefix_cache: bool = False,
        faults: FaultPlan | None = None,
        sanitize: bool = False,
        tracer=None,
    ):
        # the remedy ladder: the configured rung (a method returning whether
        # it applied), then full eviction — _evict's tail, which always applies
        rungs = {"recompute": (), "trim": (self._trim,), "swap": (self._swap_out,)}
        if preemption not in rungs:
            raise ValueError(
                f"preemption must be one of 'recompute', 'trim', 'swap', got {preemption!r}"
            )
        if swap_capacity_tokens is not None:
            if preemption != "swap":
                raise ValueError("a swap capacity only applies to swap preemption")
            if swap_capacity_tokens < 0:
                raise ValueError(
                    f"a swap capacity must be >= 0 tokens, got {swap_capacity_tokens}"
                )
        if decode_engine is not None and decode_engine.model is not engine.model:
            raise ValueError(
                "disaggregated pools must share model weights: pass the same "
                "LlamaModel instance to both engines"
            )
        self.engine = engine
        self.vocab_size = engine.model.config.vocab_size
        self.decode_engine = decode_engine if decode_engine is not None else engine
        self.disaggregated = self.decode_engine is not engine
        prefill = Pool(engine)
        decode = Pool(self.decode_engine) if self.disaggregated else prefill
        # role -> Pool. A colocated deployment binds both roles to ONE
        # pool, so whatever looks a pool up by role is shape-agnostic and
        # a test like ``pool is self._pools[POOL_PREFILL]`` is true
        # colocated by construction
        self._pools: dict[str, Pool] = {POOL_PREFILL: prefill, POOL_DECODE: decode}
        # each distinct pool once, under the first role that names it
        # (fault resets, sanitizers, audits, failure diagnostics)
        self._distinct_pools = dict(self._pools) if self.disaggregated else {POOL_PREFILL: prefill}
        self.policy = policy if policy is not None else ChunkedPrefillPolicy(
            chunk_tokens=512, max_tokens_per_round=2048, max_seqs_per_round=8
        )
        self.clock = clock if clock is not None else UnitStepClock()
        # the one event stream: every hook emits through it, ``metrics``
        # folds what it emits, and ``tracer`` (if any) records it
        self.metrics = ServingMetrics()
        self.tracer = EventStream(self.metrics.fold, tracer)
        self.transfer_stream = (
            KVTransferStream(self.clock, tracer=self.tracer.scoped(pool="wire"))
            if self.disaggregated
            else None
        )
        self.preemption = preemption
        self._rungs = rungs[preemption]
        self.swap_capacity_tokens = swap_capacity_tokens
        self.faults = faults
        self._injector = (
            FaultInjector(faults, pools=tuple(self._distinct_pools), tracer=self.tracer)
            if faults is not None and faults.active
            else None
        )
        # radix prefix cache lives on the prefill engine: that is where
        # fresh streams are admitted and where shared blocks save both
        # capacity and prefill compute
        self.prefix_index = self.engine.enable_prefix_cache() if prefix_cache else None
        # requests whose KV sits in a pool's host store (swap remedy), FCFS
        # by (arrival, rid), with the role they were evicted under
        self._swap_wait: list[tuple[_Key, int, str]] = []

        self._records: dict[int, RequestRecord] = {}
        self._chains: dict[int, list[int]] = {}  # seq_id -> unfinished turn rids, in order
        self._turn_history: dict[int, list[int]] = {}  # seq_id -> tokens of finished turns
        self._prefill_queue: list[tuple[_Key, int]] = []  # (sort key, rid)
        self._prefill_since_decode = False  # the pick rule's ration
        self._next_rid = 0
        # incremental indices so per-step bookkeeping is O(active), not
        # O(all requests ever submitted); _records itself retains finished
        # requests deliberately — it is the report() API surface
        self._live: set[int] = set()  # rids not yet FINISHED
        self._decoding: set[int] = set()  # rids in DECODE state
        self._waiting: set[int] = set()  # seq_ids whose chain head is QUEUED
        # (head arrival, seq_id) min-heap, pushed with every add to _waiting
        self._arrivals: list[tuple[float, int]] = []
        # queued_tokens() memo; submit / step / preempt reset it to None
        self._queued_tokens: int | None = None

        # shadow-state sanitizer (opt-in): validates every allocator and
        # engine lifecycle op against an independent model, then checks
        # for undrained leaks when run() finishes
        self.sanitizers: list = []
        if sanitize:
            from repro.analysis.sanitizer import attach_sanitizer

            for pool in self._distinct_pools.values():
                self.sanitizers.append(attach_sanitizer(pool.engine))

    @property
    def now(self) -> float:
        """Simulated time: the latest pool clock."""
        return max(self._pools[POOL_PREFILL].t, self._pools[POOL_DECODE].t)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit(self, request: TurnRequest) -> int:
        """Enqueue one turn; returns its request id.

        Turns sharing a ``seq_id`` form a conversation: they run in submit
        order over one persistent KV stream, each waiting for its
        predecessor to finish. A prompt id outside the model's vocabulary
        raises ``ValueError`` here and changes nothing.
        """
        request.check_vocab(self.vocab_size)
        self._queued_tokens = None
        if request.request_id < 0:
            request.request_id = self._next_rid
        if request.request_id in self._records:
            raise ValueError(f"request {request.request_id} already submitted")
        self._next_rid = max(self._next_rid, request.request_id) + 1
        self._records[request.request_id] = RequestRecord(request=request)
        chain = self._chains.setdefault(request.seq_id, [])
        chain.append(request.request_id)
        self._turn_history.setdefault(request.seq_id, [])
        self._live.add(request.request_id)
        if len(chain) == 1:
            self._waiting.add(request.seq_id)
            heapq.heappush(self._arrivals, (request.arrival, request.seq_id))
        return request.request_id

    def submit_script(
        self,
        script: ConversationScript,
        *,
        arrival: float = 0.0,
        think_time: float = 0.0,
    ) -> list[int]:
        """Enqueue a whole scripted conversation; returns its request ids.

        Turn ``i`` arrives no earlier than ``arrival + i * think_time``
        (and never before its predecessor finishes).
        """
        return [
            self.submit(turn)
            for turn in script_turns(script, arrival=arrival, think_time=think_time)
        ]

    # ------------------------------------------------------------------ #
    # event loop
    # ------------------------------------------------------------------ #

    def run(self, *, max_steps: int | None = None) -> RuntimeReport:
        """Drive :meth:`step` until every submitted request finishes."""
        steps = 0
        while self.step():
            steps += 1
            if max_steps is not None and steps >= max_steps:
                raise RuntimeError(f"runtime did not drain within {max_steps} steps")
        for sanitizer in self.sanitizers:
            sanitizer.check_drained()
        return self.report()

    def step(self) -> bool:
        """Execute one engine round (or advance a clock to the next
        event). Returns ``True`` while unfinished requests remain.

        One scheduling decision, in shared stages: apply due faults, land
        due transfers, admit arrivals, swap host-stored KV back in, wake
        idle pools up to their next enabling event, pick which role runs,
        run its round, and handle the dead ends.
        """
        self._queued_tokens = None
        if not self._any_live():
            return False
        if self._injector is not None:
            self._apply_faults()
            if not self._any_live():
                return False
        progressed = self._land_transfers()
        self._admit()
        if self._swap_in_ready():
            progressed = True
        if self._wake_idle_pools():
            progressed = True
        ready = self._ready_prefill_entries()
        if not (progressed or ready or self._decoding):
            # every live request is swap-blocked waiting on capacity held
            # by older work that no longer exists; fall back to chunked
            # recompute so the run drains. (The other dead end — a payload
            # too large for even an emptied pool — already spilled inside
            # _swap_in_ready.)
            if not self._spill_oldest_swapped():
                raise self._wedged(
                    "runtime stalled: live requests but no runnable rounds, "
                    "arrivals, or admissible KV transfers (decode pool too "
                    "small for an in-flight context?)"
                )
            ready = self._ready_prefill_entries()

        decoders = self._decoders()
        if ready and self._prefill_goes_first(decoders):
            if self._prefill_round(ready):
                self._prefill_since_decode = True
                return self._any_live()
            decoders = self._decoders()  # fit loop may have preempted some
            if not decoders:
                # only landings can free the prefill pool now: walk the
                # wire finish by finish (a refused payload must not mask a
                # later one whose landing releases prefill-side blocks)
                while True:
                    if self._land_transfers():
                        return self._any_live()
                    if not self._advance_decode_to_wire():
                        break
                raise self._wedged(
                    f"KV capacity exhausted: request {ready[0][1]} cannot "
                    "prefill even one token after evicting every eligible victim"
                )
        if decoders:
            self._decode_round(decoders)
            self._prefill_since_decode = False
        return self._any_live()

    def _wake_idle_pools(self) -> bool:
        """Advance idle pool clocks to their next enabling event.

        Shape-dependent rule 1 of 2. A shared pool is idle only when
        *nothing* is runnable, and then the next arrival is the only
        event left to wait for. Separate pools idle independently: the
        prefill pool wakes to its next runnable entry, the decode pool to
        the next payload on the wire (that wait is transfer stall).
        """
        prefill, decode = self._pools[POOL_PREFILL], self._pools[POOL_DECODE]
        if prefill is decode:
            if self._prefill_queue or self._decoding:
                return False
            nxt = self._next_prefill_event()
            if nxt is None:
                return False
            prefill.t = max(prefill.t, nxt)
            self._admit()
            self._swap_in_ready()
            return True
        woke = False
        if not self._ready_prefill_entries():
            nxt = self._next_prefill_event()
            if nxt is not None:
                # running decodes / in-flight transfers / pending swap-ins
                # may still create *earlier* prefill work (follow-up
                # turns, evictions), so an idle prefill clock may only
                # catch up to the decode clock — never jump past it —
                # until the decode pool drains too
                if self._decoding or self._swap_wait or self.transfer_stream.in_flight():
                    nxt = min(nxt, decode.t)
                if nxt > prefill.t:
                    prefill.t = nxt
                    self._admit()
                    woke = True
        if not self._decoding and self._advance_decode_to_wire():
            woke = True
        return woke

    def _prefill_goes_first(self, decoders: list[RequestRecord]) -> bool:
        """Whether ready prefill work runs before the waiting decoders.

        Shape-dependent rule 2 of 2. On a shared pool the two contend, so
        prefill is rationed: one round between decode rounds. Separate
        pools run concurrently; the event loop just advances whichever
        clock is behind (ties go to prefill).
        """
        if not decoders:
            return True
        prefill, decode = self._pools[POOL_PREFILL], self._pools[POOL_DECODE]
        if prefill is decode:
            return not self._prefill_since_decode
        return prefill.t <= decode.t

    def _wedged(self, message: str) -> RuntimeWedged:
        """The error for a run that cannot make progress, carrying the
        evidence: requests per state and each pool's clock, holders and
        KV occupancy."""
        pools = "; ".join(
            f"{role} pool: {pool.describe()}"
            for role, pool in self._distinct_pools.items()
        )
        return RuntimeWedged(f"{message} [states: {self.state_counts()}; {pools}]")

    def _advance_decode_to_wire(self) -> bool:
        """Jump the idle decode clock to the next transfer arrival
        (``False`` when nothing is on the wire — always, colocated).

        Only the wire-bound share of the jump counts as transfer stall:
        idle time that elapsed before the payload even started streaming
        (think time, prefill) is the workload's, not the channel's.
        """
        if self.transfer_stream is None:
            return False
        decode = self._pools[POOL_DECODE]
        pending = [t for t in self.transfer_stream.in_flight() if t.finish > decode.t]
        if not pending:
            return False
        # target the earliest finish still ahead of the clock, so a due
        # payload the pool keeps refusing never blocks reaching later ones
        nxt = min(pending, key=lambda t: (t.finish, t.request_id))
        stall = nxt.finish - max(decode.t, nxt.start)
        if stall > 0:
            self.tracer.span(
                "transfer_stall",
                max(decode.t, nxt.start),
                stall,
                pool=POOL_DECODE,
                request_id=nxt.request_id,
                seq_id=nxt.seq_id,
            )
        decode.t = nxt.finish
        return True

    def report(self) -> RuntimeReport:
        """Current :class:`RuntimeReport` (live records; see
        :class:`ServingReport`)."""
        return RuntimeReport(
            records=dict(self._records),
            metrics=self.metrics,
            makespan=self.now,
        )

    # ------------------------------------------------------------------ #
    # pool routing
    # ------------------------------------------------------------------ #

    def _role_of(self, rec: RequestRecord) -> str:
        """The role under which an active request's KV is held."""
        return POOL_DECODE if rec.state is RequestState.DECODE else POOL_PREFILL

    def _kv_sample(self, role: str) -> dict:
        """The ``kv`` field of an event that samples ``role``'s pool: its
        claimed KV fraction, or no field when the engine is unbounded."""
        frac = self._pools[role].engine.kv_utilization()
        return {} if frac is None else {"kv": {role: frac}}

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def _admit(self) -> None:
        """Move eligible chain-head turns into the prefill FIFO.

        Conversations *reside* where the decode role runs; the prefill
        role (re)computes whatever of the committed history its own pool
        does not hold. Colocated those are the same pool, so a follow-up
        turn simply extends its resident KV.
        """
        prefill, decode = self._pools[POOL_PREFILL], self._pools[POOL_DECODE]
        due = set()
        while self._arrivals and self._arrivals[0][0] <= prefill.t:
            due.add(heapq.heappop(self._arrivals)[1])
        # ascending seq_id, the order the scan of _waiting gave. A popped entry
        # is stale when its conversation was shed (no longer waiting) or its id
        # resubmitted with a later arrival (still queued under that one).
        for seq_id in sorted(due & self._waiting):
            rec = self._records[self._chains[seq_id][0]]
            if rec.request.arrival > prefill.t:
                continue
            if (
                self.faults is not None
                and self.faults.max_queue_depth is not None
                and len(self._prefill_queue) >= self.faults.max_queue_depth
            ):
                # overload backpressure (Mooncake-style early rejection):
                # rejecting at admission costs nothing yet; the rest of
                # the conversation cascades because its turns can never
                # run without this one's tokens
                self._shed_chain(rec, status=RequestState.SHED, at=prefill.t)
                continue
            self._waiting.discard(seq_id)
            rec.state = RequestState.PREFILL
            rec.ready_at = max(rec.ready_at, rec.request.arrival)
            rec.admitted_at = max(prefill.t, rec.ready_at)
            if self.tracer.enabled:
                self.tracer.instant(
                    "admit",
                    rec.admitted_at,
                    request_id=rec.request_id,
                    seq_id=seq_id,
                    pool=POOL_PREFILL,
                    arrival=rec.request.arrival,
                )
            history = self._turn_history[seq_id]
            if history:
                rec.pending_input = np.asarray(
                    history + list(rec.request.prompt), dtype=np.int64
                )
            if seq_id in prefill.store:
                # the idle conversation's resident KV was swapped to the
                # host store between turns: restore it (priced at PCIe
                # cost, no recompute) before this turn's prefill extends it
                rec.cached_at_start = rec.prefill_done = prefill.store[seq_id].tokens
                rec.swapped_from = RequestState.PREFILL
                rec.state = RequestState.SWAPPED
                self._swap_wait.append(
                    ((rec.request.arrival, rec.request_id), rec.request_id, POOL_PREFILL)
                )
                continue
            if self.prefix_index is not None:
                self._drop_stale_resident(rec)
            # resume from whatever prefix of the history the prefill pool
            # still holds: all of it for a colocated follow-up turn, a copy
            # retained as a prefix-cache donor after the last transfer, or
            # what an eviction or tail-trim between turns left behind
            rec.prefill_done = prefill.engine.context_length(seq_id)
            if self.prefix_index is not None and rec.prefill_done == 0:
                self._match_shared_prefix(rec)
            rec.cached_at_start = decode.engine.context_length(seq_id)
            self._enqueue_prefill(rec)

    def _enqueue_prefill(self, rec: RequestRecord) -> None:
        key = (rec.request.arrival, rec.request_id)
        bisect.insort(self._prefill_queue, (key, rec.request_id))

    def _ready_prefill_entries(self) -> list[tuple[_Key, int]]:
        """FIFO entries allowed to occupy a prefill round at the current
        prefill-pool time (``ready_at`` keeps pool clocks causal)."""
        now = self._pools[POOL_PREFILL].t
        return [
            (key, rid)
            for key, rid in self._prefill_queue
            if self._records[rid].ready_at <= now
        ]

    def _next_prefill_event(self) -> float | None:
        """Earliest time the prefill pool gains runnable work."""
        times = []
        for seq_id in sorted(self._waiting):
            head = self._records[self._chains[seq_id][0]]
            times.append(max(head.request.arrival, head.ready_at))
        times.extend(self._records[rid].ready_at for _key, rid in self._prefill_queue)
        return min(times) if times else None

    # ------------------------------------------------------------------ #
    # shared-prefix admission (radix prefix cache)
    # ------------------------------------------------------------------ #

    def _drop_stale_resident(self, rec: RequestRecord) -> None:
        """Evict retained KV colliding with a *new* conversation's seq_id.

        A finished conversation stays resident as a cached prefix under
        its seq_id; if a fresh conversation reuses that id, the resident
        tokens describe the old conversation, not this one — drop them
        (the new conversation can still adopt through the index, under
        its own identity). No-op for follow-up turns, whose residency is
        their own.
        """
        seq_id = rec.seq_id
        if self._turn_history[seq_id]:
            return
        prefill = self._pools[POOL_PREFILL]
        if prefill.engine.context_length(seq_id):
            self._evict_cached_prefix(seq_id, role=POOL_PREFILL, at=prefill.t)

    def _evict_cached_prefix(self, seq_id: int, *, role: str, at: float) -> None:
        """Drop a cached prefix resident whole (no request to remedy)."""
        pool = self._pools[role]
        tokens = pool.engine.context_length(seq_id)
        pool.evict(seq_id)
        self.tracer.instant("prefix_evict", at, pool=role, seq_id=seq_id, tokens=tokens)

    def _match_shared_prefix(self, rec: RequestRecord) -> None:
        """Adopt the longest indexed prefix of ``rec``'s pending input.

        On a hit the matched tokens are shared block-for-block (capacity
        counted once, nothing recomputed), ``prefill_done`` jumps past
        them so admission charges only the uncached suffix, and the donor
        is pinned in the index for this request's lifetime. At least one
        token is always left to prefill — the finishing chunk must
        produce next-token logits to sample from.
        """
        prefill = self._pools[POOL_PREFILL]
        full = rec.pending_input
        matched, donor = prefill.engine.match_prefix(full)
        matched = min(matched, int(full.size) - 1)
        if not self._turn_history[rec.seq_id]:
            # only fresh conversations file warm/cold TTFT samples —
            # follow-up turns are warm by construction
            rec.prefix_eligible = True
        if matched < 1 or donor is None:
            self.tracer.instant(
                "prefix_miss",
                prefill.t,
                pool=POOL_PREFILL,
                request_id=rec.request_id,
                seq_id=rec.seq_id,
            )
            return
        prefill.engine.adopt_prefix(rec.seq_id, donor, matched)
        prefill.holders.add(rec.seq_id)
        rec.prefill_done = matched
        rec.prefix_hit = True
        rec.prefix_shared = matched
        rec.prefix_donor = donor
        self.prefix_index.pin(donor)
        self.tracer.instant(
            "prefix_hit",
            prefill.t,
            pool=POOL_PREFILL,
            request_id=rec.request_id,
            seq_id=rec.seq_id,
            reused=matched,
            donor=donor,
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "prefix_adopt",
                prefill.t,
                pool=POOL_PREFILL,
                request_id=rec.request_id,
                seq_id=rec.seq_id,
                donor=donor,
                tokens=matched,
            )

    # ------------------------------------------------------------------ #
    # prefill rounds
    # ------------------------------------------------------------------ #

    def _prefill_round(self, entries: list[tuple[_Key, int]]) -> bool:
        """Build, fit and execute one chunked prefill round over the
        ready FIFO ``entries``.

        Returns ``False`` when not even a one-token chunk of the FIFO head
        fits after exhausting every eligible victim (the caller decides
        whether decoding can make progress instead).
        """
        pool = self._pools[POOL_PREFILL]
        by_seq = {self._records[rid].seq_id: self._records[rid] for _, rid in entries}
        pending = []
        for _, rid in entries:
            rec = self._records[rid]
            pending.append((rec.seq_id, rec.prefill_remaining))
        round_ = self.policy.build_round(pending)
        round_ = self._fit_prefill_round(round_, by_seq)
        if not round_:
            return False

        prompts: dict[int, np.ndarray] = {}
        chunk_tp: list[tuple[int, int]] = []
        for chunk in round_:
            rec = by_seq[chunk.seq_id]
            lo = rec.prefill_done
            prompts[chunk.seq_id] = rec.pending_input[lo : lo + chunk.tokens]
            chunk_tp.append((chunk.tokens, pool.engine.context_length(chunk.seq_id)))

        out = pool.engine.prefill(prompts)
        price = self.clock.price_prefill(chunk_tp)
        round_start = pool.t
        pool.t += price
        self.tracer.span(
            "prefill_round",
            round_start,
            price,
            pool=POOL_PREFILL,
            algo=out.plan.algo.value,
            tokens=sum(c.tokens for c in round_),
            seqs=len(round_),
            **self._kv_sample(POOL_PREFILL),
        )
        if self.tracer.enabled:
            for chunk in round_:
                self.tracer.span(
                    "prefill_chunk",
                    round_start,
                    price,
                    pool=POOL_PREFILL,
                    request_id=by_seq[chunk.seq_id].request_id,
                    seq_id=chunk.seq_id,
                    tokens=chunk.tokens,
                )
        pool.holders.update(prompts)

        for chunk in round_:
            rec = by_seq[chunk.seq_id]
            rec.state = RequestState.PREFILL
            rec.prefill_done += chunk.tokens
            rec.chunk_algos.append(out.plan.algo.value)
            if rec.prefill_remaining == 0:
                self._dequeue_prefill(rec)
                self._on_prefill_complete(rec, out.last_logits(chunk.seq_id))
        return True

    def _on_prefill_complete(self, rec: RequestRecord, last_logits: np.ndarray) -> None:
        prefill, decode = self._pools[POOL_PREFILL], self._pools[POOL_DECODE]
        t = prefill.t
        if rec.request.max_new_tokens == 0:
            if self.transfer_stream is not None:
                # no decode phase, so nothing ships: the conversation
                # resides across the wire, and the next turn recomputes
                # the history (or resumes from the retained copy)
                self._retire_prefill_copy(rec.seq_id)
            self._finish_turn(rec, at=t)
            return
        if rec.resample_on_prefill:
            token = int(sample_greedy(last_logits))
            rec.generated.append(token)
            rec.token_times.append(t)
            if rec.first_token_at is None:
                rec.first_token_at = t
                if self.tracer.enabled:
                    self.tracer.instant(
                        "first_token",
                        t,
                        request_id=rec.request_id,
                        seq_id=rec.seq_id,
                        ttft=rec.ttft,
                    )
        # post-preemption resume keeps its already-sampled pending token —
        # the re-prefill logits would reproduce it exactly
        rec.resample_on_prefill = True
        if self.transfer_stream is None:
            rec.state = RequestState.DECODE  # no wire: decode in place
            self._decoding.add(rec.request_id)
        else:
            # first token streamed from the prefill pool's logits; the KV
            # delta now crosses the wire before decode can start
            rec.state = RequestState.KV_TRANSFER
            delta = prefill.engine.context_length(rec.seq_id) - decode.engine.context_length(
                rec.seq_id
            )
            self.transfer_stream.schedule(rec.seq_id, rec.request_id, delta, t)

    def _retire_prefill_copy(self, seq_id: int) -> None:
        """The prefill pool's copy of a conversation that resides in
        another pool has served its turn: release it, or — prefix cache
        on — retain it as a donatable cached prefix (KVCache-centric
        retention, Mooncake-style), so follow-up turns skip the history
        recompute and future shared-prefix requests can adopt it;
        capacity pressure evicts it LRU like any cached resident."""
        if self.prefix_index is None:
            self._pools[POOL_PREFILL].evict(seq_id)
        else:
            self.prefix_index.touch(seq_id)

    def _fit_prefill_round(
        self,
        round_: list[ChunkAssignment],
        by_seq: dict[int, RequestRecord],
    ) -> list[ChunkAssignment]:
        """Shrink/evict until the round's exact per-rank KV demand fits.

        Victims must be younger than every beneficiary (FCFS): when none
        qualify, the round drops its own youngest member instead, and the
        last remaining chunk shrinks down to whatever fits.
        """
        engine = self._pools[POOL_PREFILL].engine

        def fits() -> bool:
            specs = [
                SequenceSpec(c.seq_id, c.tokens, engine.context_length(c.seq_id))
                for c in round_
            ]
            return engine.fits(engine.prefill_token_demand(specs))

        while round_:
            tail = by_seq[round_[-1].seq_id]
            tail_key = (tail.request.arrival, tail.request_id)
            if self._make_room(
                POOL_PREFILL,
                fits,
                protected={c.seq_id for c in round_},
                younger_than=tail_key,
                reason="prefill_fit",
            ):
                return round_
            if len(round_) > 1:
                # the round is in FCFS order: its tail is the youngest
                round_.pop()
                continue
            head = round_[0]
            cached = engine.context_length(head.seq_id)
            best = self._max_fitting_chunk(head.seq_id, cached, head.tokens)
            if best == 0:
                return []
            return [ChunkAssignment(seq_id=head.seq_id, tokens=best)]
        return []

    def _max_fitting_chunk(self, seq_id: int, cached: int, want: int) -> int:
        """Largest chunk of ``[1, want]`` tokens whose demand fits (0 = none)."""
        engine = self._pools[POOL_PREFILL].engine
        lo, hi, best = 1, want, 0
        while lo <= hi:
            mid = (lo + hi) // 2
            demand = engine.prefill_token_demand([SequenceSpec(seq_id, mid, cached)])
            if engine.fits(demand):
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    # ------------------------------------------------------------------ #
    # KV transfer landing (disaggregated)
    # ------------------------------------------------------------------ #

    def _land_transfers(self) -> bool:
        """Import every due transfer the decode pool admits.

        A payload the pool cannot admit — even after evicting every
        eligible (younger or idle) victim — is refused: it stays on the
        landed side of the wire and is retried as decode rounds and
        conversation completions free blocks. A colocated runtime has no
        wire, so there is never anything to land.
        """
        if self.transfer_stream is None:
            return False
        prefill, decode = self._pools[POOL_PREFILL], self._pools[POOL_DECODE]
        landed = False
        for transfer in self.transfer_stream.ready(decode.t):
            rec = self._records[transfer.request_id]
            sid = transfer.seq_id
            start_pos = decode.engine.context_length(sid)
            tokens = prefill.engine.context_length(sid) - start_pos
            if tokens > transfer.tokens:
                # the decode pool evicted its resident copy while the delta
                # was on the wire; the extra history re-ships at full
                # bandwidth cost before this payload can land
                self.transfer_stream.extend(transfer, tokens - transfer.tokens, decode.t)
                landed = True  # wire state changed: this step made progress
                continue
            if (
                self._injector is not None
                and transfer.tokens > 0
                and self._injector.transfer_fails(sid, transfer.request_id, now=decode.t)
            ):
                # mid-stream failure: the payload dies at landing time, so
                # every wire second it streamed is sunk (cancel at >= finish
                # refunds nothing). Degradation ladder: retry the full
                # current delta after capped exponential backoff, then —
                # past the retry budget — fall back to a full re-prefill
                # of the committed history (always available).
                self.transfer_stream.cancel(sid, now=decode.t)
                rec.transfer_faults += 1
                attempt = self._injector.transfer_faults_injected(transfer.request_id)
                if attempt <= self.faults.max_transfer_retries:
                    delay = self.faults.backoff(attempt)
                    self.tracer.instant(
                        "fault_retry",
                        decode.t,
                        request_id=rec.request_id,
                        seq_id=sid,
                        attempt=attempt,
                        backoff=delay,
                    )
                    self.transfer_stream.schedule(
                        sid, transfer.request_id, tokens, decode.t + delay
                    )
                else:
                    self.tracer.instant(
                        "fault_fallback",
                        decode.t,
                        request_id=rec.request_id,
                        seq_id=sid,
                        reason="transfer",
                    )
                    self._preempt_record(rec, at=decode.t, reason="fault_fallback")
                landed = True
                continue
            demand = decode.engine.import_token_demand(sid, tokens)
            if not self._make_room(
                POOL_DECODE,
                lambda: decode.engine.fits(demand),
                protected={sid},
                younger_than=(rec.request.arrival, rec.request_id),
                reason="transfer_admission",
            ):
                if not transfer.refused:
                    transfer.refused = True
                    self.tracer.instant(
                        "kv_transfer_refused",
                        decode.t,
                        pool=POOL_DECODE,
                        request_id=rec.request_id,
                        seq_id=sid,
                    )
                continue
            export = prefill.engine.export_kv(sid, start_pos=start_pos)
            decode.engine.import_kv(export)
            self._retire_prefill_copy(sid)
            decode.holders.add(sid)
            self.transfer_stream.complete(transfer)
            self.tracer.span(
                "kv_transfer",
                transfer.start,
                transfer.finish - transfer.start,
                pool="wire",
                request_id=rec.request_id,
                seq_id=sid,
                tokens=tokens,
                landed_at=decode.t,
                **self._kv_sample(POOL_DECODE),
            )
            rec.state = RequestState.DECODE
            self._decoding.add(rec.request_id)
            landed = True
        return landed

    # ------------------------------------------------------------------ #
    # decode rounds
    # ------------------------------------------------------------------ #

    def _decode_round(self, decoders: list[RequestRecord]) -> None:
        """Advance every decoding request one token (with capacity fitting)."""
        pool = self._pools[POOL_DECODE]
        engine = pool.engine
        live = sorted(decoders, key=lambda r: (r.request.arrival, r.request_id))

        def fits() -> bool:
            # a decoder taken as a victim leaves the batch; none left fits
            sids = [r.seq_id for r in live if r.request_id in self._decoding]
            return not sids or engine.fits(engine.decode_token_demand(sids))

        if not self._make_room(
            POOL_DECODE, fits, protected=set(), younger_than=None, reason="decode_fit"
        ):
            raise self._wedged(
                "KV capacity exhausted: a decode step cannot fit even after "
                "evicting every eligible victim (the oldest live request is "
                "never one)"
            )
        live = [r for r in live if r.request_id in self._decoding]
        if not live:
            return

        contexts = [engine.context_length(r.seq_id) + 1 for r in live]
        tokens = {r.seq_id: r.generated[-1] for r in live}
        out = engine.decode(tokens)
        price = self.clock.price_decode(contexts)
        round_start = pool.t
        pool.t += price
        self.tracer.span(
            "decode_round", round_start, price, pool=POOL_DECODE, seqs=len(live),
            **self._kv_sample(POOL_DECODE),
        )

        for rec in live:
            if len(rec.generated) < rec.request.max_new_tokens:
                token = int(sample_greedy(out.logits[rec.seq_id]))
                rec.generated.append(token)
                rec.token_times.append(pool.t)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "decode_token",
                        pool.t,
                        request_id=rec.request_id,
                        seq_id=rec.seq_id,
                    )
            else:
                # the round just committed the final token's KV
                self._finish_turn(rec, at=pool.t)

    # ------------------------------------------------------------------ #
    # preemption
    # ------------------------------------------------------------------ #

    def preempt(self, request_id: int) -> None:
        """Forcibly evict an active request (tests / external policies)."""
        self._queued_tokens = None
        rec = self._records[request_id]
        if rec.state not in _ACTIVE_STATES:
            raise ValueError(f"request {request_id} is {rec.state.value}, not preemptible")
        role = self._role_of(rec)
        self._evict(rec.seq_id, rec, role=role, at=self._pools[role].t, reason="external")

    def _make_room(
        self, role: str, fits, *, protected: set[int], younger_than: _Key | None, reason: str
    ) -> bool:
        """Evict :meth:`_find_victim`'s picks from ``role``'s pool until
        ``fits()`` holds; ``False`` when it still does not and nothing is
        left to evict.

        The one victim loop behind all four admission points (prefill
        fit, decode fit, transfer landing, swap-in). ``fits`` is probed
        once before each eviction and once after the last, never more.
        ``reason`` names the pressure source for the trace.
        """
        pool = self._pools[role]
        while not fits():
            victim = self._find_victim(role=role, protected=protected, younger_than=younger_than)
            if victim is None:
                return False
            self._evict(*victim, role=role, at=pool.t, reason=reason)
        return True

    def _find_victim(
        self, *, role: str, protected: set[int], younger_than: _Key | None
    ) -> tuple[int, RequestRecord | None] | None:
        """Next KV holder of ``role``'s pool to evict, as ``(seq_id, rec)``:
        idle conversations first (``rec`` is ``None``; no pending turn,
        then latest next-arrival), then the youngest active request, only
        if it is younger than ``younger_than``. ``None`` when nothing is
        evictable.

        ``younger_than=None`` bounds by the oldest live request, which is
        never a victim: evicting it could only hand its space to a younger
        request, or send it to re-prefill into the same wall (a livelock)."""
        pool = self._pools[role]
        idle_free, idle_pending = [], []
        for seq_id in sorted(pool.holders):
            if seq_id in protected:
                continue
            chain = self._chains.get(seq_id)
            if not chain:
                idle_free.append(seq_id)
                continue
            head = self._records[chain[0]]
            if head.state is RequestState.QUEUED:  # holder waiting between turns
                idle_pending.append((head.request.arrival, seq_id))
            elif self._pools[self._role_of(head)] is not pool:
                # the head's KV activity is in ANOTHER pool (or host-
                # side); this pool's copy (e.g. a resident conversation
                # whose next turn is re-prefilling) is idle here and
                # safely re-shippable
                idle_pending.append((head.request.arrival, seq_id))
        if idle_free:
            return self._pick_idle_free(idle_free), None
        if idle_pending:
            return max(idle_pending)[1], None

        candidates = [
            rec
            for rec in (self._records[rid] for rid in sorted(self._live))
            if self._active_in(rec, pool)
            and rec.seq_id not in protected
            and pool.engine.context_length(rec.seq_id) > 0
        ]
        if not candidates:
            return None
        rec = max(candidates, key=lambda r: (r.request.arrival, r.request_id))
        if younger_than is None:
            younger_than = min((self._records[rid].request.arrival, rid) for rid in self._live)
        if (rec.request.arrival, rec.request_id) <= younger_than:
            return None
        return rec.seq_id, rec

    def _active_in(self, rec: RequestRecord, pool: Pool) -> bool:
        """Whether ``rec`` holds KV in ``pool`` as a request, not as an
        idle copy: prefilling, in transfer or decoding there, or PREEMPTED
        with a tail-trimmed residue (in the prefill pool) to re-prefill."""
        return rec.state in _HOLDING_STATES and self._pools[self._role_of(rec)] is pool

    def _pick_idle_free(self, idle_free: list[int]) -> int:
        """Order the no-pending-turn eviction bucket.

        Without a prefix cache this bucket only holds open sessions
        (lowest seq id first, the historical order). With one it also
        holds finished conversations retained as cached prefixes:
        unpinned cached residents go first, least-recently-used first
        (the index's LRU), then open sessions, and pinned residents —
        donors of in-flight requests — only as a last resort.
        """
        if self.prefix_index is None:
            return min(idle_free)
        unpinned = [
            s
            for s in idle_free
            if s not in self._chains and not self.prefix_index.pinned(s)
        ]
        if unpinned:
            return min(unpinned, key=lambda s: (self.prefix_index.last_used(s), s))
        sessions = [s for s in idle_free if s in self._chains]
        if sessions:
            return min(sessions)
        return min(idle_free, key=lambda s: (self.prefix_index.last_used(s), s))

    def _evict(
        self, seq_id: int, rec: RequestRecord | None, *, role: str, at: float, reason: str
    ) -> None:
        """Free ``seq_id``'s KV in ``role``'s pool down the remedy ladder:
        the configured rung, then full eviction, which always applies.
        ``rec`` is the active request holding the KV, ``None`` for an idle
        conversation. ``reason`` names the pressure source for the trace
        (``prefill_fit``, ``decode_fit``, ``transfer_admission``,
        ``swap_in_admission``, ``external``)."""
        if rec is None and seq_id not in self._chains:
            # a finished conversation's cached prefix resident: there is
            # no request to remedy, so LRU-drop it whole — the allocator's
            # refcounts keep any blocks still shared with live adopters
            # claimed, and the index stops matching it
            self._evict_cached_prefix(seq_id, role=role, at=at)
            return
        # a mid-transfer victim skips the rungs: the payload on the wire
        # references its prefill-pool KV
        if rec is None or rec.state is not RequestState.KV_TRANSFER:
            for rung in self._rungs:
                if rung(seq_id, rec, role=role, at=at, reason=reason):
                    return
        if rec is not None:
            self._preempt_record(rec, at=at, reason=reason)
            return
        freed = self._pools[role].evict(seq_id)
        self._note_preempt(
            seq_id, None, role=role, at=at, remedy="recompute", reason=reason, evicted=freed
        )

    def _note_preempt(
        self, seq_id: int, rec: RequestRecord | None, *, role: str, at: float, **fields
    ) -> None:
        """The ``preempt`` event every rung files. ``fields`` are the
        remedy, the reason and the KV count under the key the remedy's
        fold row reads: ``evicted=`` for full eviction, ``tokens=`` for
        trim and swap (``remedy="swap"`` feeds no counter: ``swap_out``
        counted it)."""
        self.tracer.instant(
            "preempt",
            at,
            pool=role,
            request_id=None if rec is None else rec.request_id,
            seq_id=seq_id,
            victim="idle" if rec is None else "active",
            **fields,
        )

    def _preempt_record(self, rec: RequestRecord, *, at: float, reason: str) -> None:
        """Full eviction of an active request (recompute on resume)."""
        role = self._role_of(rec)
        pool = self._pools[role]
        if rec.state is RequestState.KV_TRANSFER:
            # the payload never arrives; only wire time already streamed
            # by ``at`` is sunk — a still-queued reservation is refunded
            # and transfers behind it re-pack
            self._cancel_transfer(rec, at=at)
        freed = pool.evict(rec.seq_id)
        if pool is self._pools[POOL_PREFILL]:
            # the adopted shared span lives in the prefill pool; only an
            # eviction there actually drops it (evicting a separate
            # decode pool leaves the retained prefill copy — and the
            # trim guard protecting it — intact)
            rec.prefix_shared = 0
            if rec.prefix_hit and rec.first_token_at is None:
                # the adopted prefix is gone before it bought a first
                # token: the eventual TTFT is a cold (recomputed)
                # sample, and the turn record must not report the lost
                # span as cached
                rec.prefix_hit = False
                if pool is self._pools[POOL_DECODE]:
                    rec.cached_at_start = 0
        self._note_preempt(
            rec.seq_id, rec, role=role, at=at, remedy="recompute", reason=reason, evicted=freed
        )
        self._reschedule_preempted(rec, at=at)

    def _cancel_transfer(self, rec: RequestRecord, *, at: float) -> None:
        """Take ``rec``'s payload off the wire (it will never land)."""
        cancelled = self.transfer_stream.cancel(rec.seq_id, now=at)
        if cancelled is not None:
            self.tracer.instant(
                "kv_transfer_cancel",
                at,
                pool="wire",
                request_id=rec.request_id,
                seq_id=rec.seq_id,
                refunded=cancelled.sunk_s <= 0.0,  # no wire time wasted
            )

    def _reschedule_preempted(self, rec: RequestRecord, *, at: float) -> None:
        """Send a (fully or partially) evicted request back to the
        prefill FIFO, resuming from whatever prefix the prefill pool
        still holds.

        Tokens whose KV was committed by decode rounds (all generated but
        the in-flight last one) fold into the re-prefill input; the
        pending sampled token survives and is NOT resampled on resume.
        ``prefill_done`` picks up at the prefill pool's resident prefix —
        0 after a full eviction (recompute), the kept prefix after a
        tail-trim.
        """
        rec.preemptions += 1
        committed_generated = rec.generated[:-1] if rec.generated else []
        rec.resample_on_prefill = not rec.generated
        rec.pending_input = np.asarray(
            self._turn_history[rec.seq_id]
            + list(rec.request.prompt)
            + [int(t) for t in committed_generated],
            dtype=np.int64,
        )
        resident = self.engine.context_length(rec.seq_id)
        if resident >= rec.pending_input.size:
            # a decode-side loss can preempt a request whose prefill-pool
            # copy was retained in full as a prefix-cache donor: the
            # resident prefix then covers the whole re-prefill input, and
            # a zero-token entry would starve in the FIFO (no chunk ever
            # schedules it). Trim the copy to leave one token so the
            # resume round runs a real finishing chunk and produces the
            # logits the completion path expects.
            resident = int(rec.pending_input.size) - 1
            self.engine.evict_tail(rec.seq_id, resident)
        rec.prefill_done = resident
        requeue = (
            rec.state in (RequestState.DECODE, RequestState.KV_TRANSFER, RequestState.SWAPPED)
            or not self._in_prefill_queue(rec)
        )
        rec.state = RequestState.PREEMPTED
        rec.ready_at = max(rec.ready_at, at)
        self._decoding.discard(rec.request_id)
        if requeue:
            self._enqueue_prefill(rec)

    # ------------------------------------------------------------------ #
    # remedy rungs: tail-trim and CPU-side KV swap. Each takes the
    # resolved victim and returns whether it applied; _evict falls
    # through to full eviction when it did not.
    # ------------------------------------------------------------------ #

    def _trim(
        self, seq_id: int, rec: RequestRecord | None, *, role: str, at: float, reason: str
    ) -> bool:
        """Tail-trim rung: drop the newest KV blocks of the victim.

        The resident prefix survives, so resume re-prefills only the
        trimmed suffix. Each call drops roughly one allocator block per
        rank (the granularity at which trimming actually frees pool
        capacity); under sustained pressure the victim loop calls this
        repeatedly — the victim shrinks block by block until a single
        token would remain, at which point the rung declines and full
        eviction takes over.
        """
        pool = self._pools[role]
        engine = pool.engine
        length = engine.context_length(seq_id)
        step = max(1, engine.kv_block_tokens() * engine.world_size)
        keep = length - step
        if keep < 1:
            return False
        if (
            rec is not None
            and keep < rec.prefix_shared
            and pool is self._pools[POOL_PREFILL]
        ):
            # the adopted shared prefix is pinned for the request's
            # lifetime: trimming into it would drop this request's
            # references to blocks the donor still backs (freeing little
            # to nothing) and force a recompute of reused tokens — let
            # the ladder fall through instead
            return False
        freed = engine.evict_tail(seq_id, keep)
        self._note_preempt(
            seq_id, rec, role=role, at=at, remedy="trim", reason=reason, tokens=freed,
            **self._kv_sample(role),
        )
        if rec is not None:
            self._reschedule_preempted(rec, at=at)
        return True

    def _swap_out(
        self, seq_id: int, rec: RequestRecord | None, *, role: str, at: float, reason: str
    ) -> bool:
        """Swap rung: export the victim's KV whole to the host store.

        The evicting pool stalls for ``price_swap(tokens)`` (PCIe DMA);
        the request resumes — decode victims directly, prefill victims
        via the FIFO — once :meth:`_swap_in_ready` imports the payload
        back. Declines for a full host store, or *idle* residents the
        wire can re-ship, which the transfer machinery already restores
        more cheaply than a PCIe round-trip would.
        """
        if rec is None and self.transfer_stream is not None:
            return False
        pool = self._pools[role]
        tokens = pool.engine.context_length(seq_id)
        if tokens == 0:
            return False
        if seq_id in pool.store:
            return False
        if self.swap_capacity_tokens is not None and (
            pool.store_tokens + tokens > self.swap_capacity_tokens
        ):
            return False
        pool.swap_out(seq_id)
        cost = self.clock.price_swap(tokens)
        swap_start = pool.t
        pool.t += cost
        self.tracer.span(
            "swap_out",
            swap_start,
            cost,
            pool=role,
            request_id=rec.request_id if rec is not None else None,
            seq_id=seq_id,
            tokens=tokens,
        )
        self._note_preempt(
            seq_id, rec, role=role, at=at, remedy="swap", reason=reason, tokens=tokens
        )
        if rec is not None:
            rec.preemptions += 1
            rec.swapped_from = (
                RequestState.DECODE
                if rec.state is RequestState.DECODE
                else RequestState.PREFILL
            )
            self._dequeue_prefill(rec)
            self._decoding.discard(rec.request_id)
            rec.state = RequestState.SWAPPED
            rec.ready_at = max(rec.ready_at, at + cost)
            self._swap_wait.append(
                ((rec.request.arrival, rec.request_id), rec.request_id, role)
            )
        return True

    def _swap_in_ready(self) -> bool:
        """Import host-stored KV back, FCFS, wherever the pool admits it.

        A blocked swap-in may evict (per the configured remedy) victims
        younger than the returning request — the same FCFS rule as any
        admission. A payload too large for even an *emptied* pool spills
        to the recompute path so the run can still drain.
        """
        progressed = False
        for entry in sorted(self._swap_wait):
            _key, rid, role = entry
            rec = self._records[rid]
            pool = self._pools[role]
            if rec.ready_at > pool.t:
                continue
            tokens = pool.store[rec.seq_id].tokens
            if self._injector is not None and self._injector.swap_lost(
                rec.seq_id, rid, now=pool.t
            ):
                # the host-store payload is gone at swap-in time: degrade
                # to the recompute path a capacity-blocked swap-in already
                # takes (drop the store entry, re-prefill committed history)
                self.tracer.instant(
                    "fault_fallback",
                    pool.t,
                    pool=role,
                    request_id=rid,
                    seq_id=rec.seq_id,
                    reason="swap_loss",
                    tokens=tokens,
                )
                self._spill_swapped(entry)
                progressed = True
                continue
            engine = pool.engine
            if not self._make_room(
                role,
                lambda: engine.fits(engine.import_token_demand(rec.seq_id, tokens)),
                protected={rec.seq_id},
                younger_than=(rec.request.arrival, rec.request_id),
                reason="swap_in_admission",
            ):
                if not pool.holders:
                    self._spill_swapped(entry)
                    progressed = True
                continue
            pool.swap_in(rec.seq_id)
            self._swap_wait.remove(entry)
            cost = self.clock.price_swap(tokens)
            swap_start = pool.t
            pool.t += cost
            self.tracer.span(
                "swap_in",
                swap_start,
                cost,
                pool=role,
                request_id=rid,
                seq_id=rec.seq_id,
                tokens=tokens,
                **self._kv_sample(role),
            )
            rec.ready_at = max(rec.ready_at, pool.t)
            resume, rec.swapped_from = rec.swapped_from, None
            if resume is RequestState.DECODE:
                rec.state = RequestState.DECODE
                self._decoding.add(rid)
            else:
                rec.state = RequestState.PREEMPTED
                self._enqueue_prefill(rec)
            progressed = True
        return progressed

    def _spill_swapped(self, entry) -> None:
        """Abandon a blocked swap-in: drop the host copy and resume via
        chunked recompute (the remedy of last resort)."""
        _key, rid, role = entry
        rec = self._records[rid]
        pool = self._pools[role]
        pool.discard_stored(rec.seq_id)
        self._swap_wait.remove(entry)
        rec.swapped_from = None
        self._reschedule_preempted(rec, at=pool.t)

    def _spill_oldest_swapped(self) -> bool:
        if not self._swap_wait:
            return False
        self._spill_swapped(min(self._swap_wait))
        return True

    def _in_prefill_queue(self, rec: RequestRecord) -> bool:
        return any(rid == rec.request_id for _, rid in self._prefill_queue)

    def _dequeue_prefill(self, rec: RequestRecord) -> None:
        self._prefill_queue = [
            (key, rid) for key, rid in self._prefill_queue if rid != rec.request_id
        ]

    # ------------------------------------------------------------------ #
    # fault injection & shedding (deterministic chaos layer)
    # ------------------------------------------------------------------ #

    def _apply_faults(self) -> None:
        """Fire due scheduled faults before the step picks a round:
        deadline timeouts first (a request a reset would requeue may
        already be dead), then whole-pool resets."""
        plan = self.faults
        if plan.deadline_s is not None:
            now = self.now
            for seq_id in sorted(self._chains):
                chain = self._chains.get(seq_id)
                if not chain:
                    continue
                rec = self._records[chain[0]]
                if rec.request.arrival + plan.deadline_s < now:
                    self._shed_chain(rec, status=RequestState.TIMED_OUT, at=now)
        rounds = sum(self.metrics.pool_rounds.values())
        for role in self._injector.pool_resets_due(rounds):
            self._reset_pool(role, at=self._pools[role].t)

    def _reset_pool(self, role: str, *, at: float) -> None:
        """Whole-pool KV reset: every resident block of ``role``'s pool
        is gone.

        Holders whose *active* KV lived here are requeued through the
        ordinary full-eviction path (transfer cancels, prefix-field
        resets, FIFO re-entry — all of :meth:`_preempt_record`); idle
        residents (between-turns conversations, cached prefixes, copies
        whose activity is in the other pool) are simply dropped. The
        engine's evict keeps prefix-index anchors and allocator
        refcounts consistent — shared blocks survive for their
        borrowers, and an in-flight transfer whose *decode-side* copy
        vanished re-ships the history at landing time. Host-store
        (swapped) payloads live off-pool and survive a reset.
        """
        pool = self._pools[role]
        engine = pool.engine
        holders = sorted(pool.holders)
        resident_tokens = sum(engine.context_length(sid) for sid in holders)
        self.tracer.instant(
            "fault_inject",
            at,
            pool=role,
            kind="pool_reset",
            tokens=resident_tokens,
            holders=len(holders),
        )
        for seq_id in holders:
            chain = self._chains.get(seq_id)
            head = self._records[chain[0]] if chain else None
            if head is not None and self._active_in(head, pool):
                self._preempt_record(head, at=at, reason="pool_reset")
                continue
            tokens = engine.context_length(seq_id)
            if tokens:
                engine.evict(seq_id)
                if head is None and self.prefix_index is not None:
                    self.tracer.instant(
                        "prefix_evict", at, pool=role, seq_id=seq_id, tokens=tokens
                    )
            pool.holders.discard(seq_id)

    def _shed_chain(self, rec: RequestRecord, *, status: RequestState, at: float) -> None:
        """Terminally shed ``rec`` (the head turn of its conversation)
        and cascade every later turn — they can never run without this
        one's tokens. The direct victim takes ``status`` (``TIMED_OUT``
        or ``SHED``); cascaded turns are always ``SHED``. Releases every
        copy of the conversation's KV (both pools and the host store)
        and unpins any adopted donor, so shedding is leak-free."""
        seq_id = rec.seq_id
        chain = self._chains.get(seq_id)
        if not chain or chain[0] != rec.request_id:
            raise RuntimeError(
                f"only chain heads are shed: request {rec.request_id} is not the head of "
                f"conversation {seq_id}'s chain {chain}"
            )
        self._waiting.discard(seq_id)
        for i, rid in enumerate(list(chain)):
            self._shed_one(
                self._records[rid],
                status=status if i == 0 else RequestState.SHED,
                at=at,
            )
        for pool in self._distinct_pools.values():
            if pool.engine.context_length(seq_id):
                pool.engine.evict(seq_id)
            pool.holders.discard(seq_id)
            pool.discard_stored(seq_id)
        del self._chains[seq_id]
        del self._turn_history[seq_id]

    def _shed_one(self, rec: RequestRecord, *, status: RequestState, at: float) -> None:
        """Move one request to a shed terminal state, detaching it from
        every scheduler structure (FIFO, decode set, swap queue, wire)."""
        if rec.state is RequestState.KV_TRANSFER:
            self._cancel_transfer(rec, at=at)
        if rec.state is RequestState.SWAPPED:
            self._swap_wait = [e for e in self._swap_wait if e[1] != rec.request_id]
        self._dequeue_prefill(rec)
        self._decoding.discard(rec.request_id)
        self._live.discard(rec.request_id)
        if rec.prefix_donor is not None:
            self.prefix_index.unpin(rec.prefix_donor)
            rec.prefix_donor = None
        rec.state = status
        rec.finished_at = at
        self.tracer.instant(
            "shed", at, request_id=rec.request_id, seq_id=rec.seq_id, status=status.value
        )

    # ------------------------------------------------------------------ #
    # completion
    # ------------------------------------------------------------------ #

    def _finish_turn(self, rec: RequestRecord, *, at: float) -> None:
        rec.state = RequestState.FINISHED
        rec.finished_at = at
        self._live.discard(rec.request_id)
        self._decoding.discard(rec.request_id)
        seq_id = rec.seq_id
        chain = self._chains[seq_id]
        if not chain or chain[0] != rec.request_id:
            raise RuntimeError(
                f"turns finish in chain order: request {rec.request_id} finished before "
                f"the head of conversation {seq_id}'s chain {chain}"
            )
        chain.pop(0)
        over = rec.request.last_turn and not chain
        if not over:
            # the next turn re-prefills this one's tokens as history; an
            # ended conversation's history is deleted below instead
            self._turn_history[seq_id].extend(int(t) for t in rec.request.prompt)
            self._turn_history[seq_id].extend(rec.generated)
        if chain:
            # next turn's head is now eligible — but its prefill consumes
            # this turn's tokens, so it can never run before this finish
            # time (the decode-pool clock may be ahead of the prefill one)
            nxt = self._records[chain[0]]
            nxt.ready_at = max(nxt.ready_at, at)
            self._waiting.add(seq_id)
            heapq.heappush(self._arrivals, (nxt.request.arrival, seq_id))
        if rec.prefix_donor is not None:
            self.prefix_index.unpin(rec.prefix_donor)
            rec.prefix_donor = None
        fields: dict = {
            "status": "finished",
            "arrival": rec.request.arrival,
            "tokens": len(rec.generated),
            "ttit": rec.ttit_samples(),
            "prompt": int(rec.request.prompt.size),
            "cached": int(rec.cached_at_start),
            "algo": rec.chunk_algos[-1] if rec.chunk_algos else "none",
            "generated": list(rec.generated),
        }
        if rec.first_token_at is not None:
            fields["ttft"] = rec.ttft
            if rec.prefix_eligible:
                fields["warm"] = rec.prefix_hit
        self.tracer.instant("finish", at, request_id=rec.request_id, seq_id=seq_id, **fields)
        if over:
            # conversation over: prune per-seq state (a later submit for
            # the same seq_id starts a fresh conversation)
            prefill, decode = self._pools[POOL_PREFILL], self._pools[POOL_DECODE]
            if decode is not prefill:
                decode.evict(seq_id)  # a separate decode pool never donates
            if self.prefix_index is None:
                prefill.evict(seq_id)
            elif prefill.engine.context_length(seq_id):
                # prefix cache on: the prefill pool's copy stays resident
                # as an LRU-evictable cached prefix (the engine keeps its
                # committed tokens indexed)
                self.prefix_index.touch(seq_id)
            del self._chains[seq_id]
            del self._turn_history[seq_id]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def _decoders(self) -> list[RequestRecord]:
        return [self._records[rid] for rid in sorted(self._decoding)]

    def _any_live(self) -> bool:
        return bool(self._live)

    def state_counts(self) -> dict[str, int]:
        """Requests per lifecycle state (diagnostics)."""
        counts: dict[str, int] = {}
        for rec in self._records.values():
            counts[rec.state.value] = counts.get(rec.state.value, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # scheduler-facing interface (cluster tier)
    # ------------------------------------------------------------------ #
    # A fleet router places conversations by comparing replicas through
    # exactly these read-only views — they must stay cheap (O(1) between
    # steps) and side-effect free so routing never perturbs the run.

    def live_requests(self) -> int:
        """Submitted requests not yet terminal."""
        return len(self._live)

    def queue_depth(self) -> int:
        """Requests waiting for an engine round: conversations queued
        ahead of their arrival/predecessor plus the prefill FIFO."""
        return len(self._prefill_queue) + len(self._waiting)

    def queued_tokens(self) -> int:
        """Prefill tokens committed to but not yet executed.

        Counts the uncommitted remainder of every request in the prefill
        FIFO plus the first-turn prompts of conversations still waiting
        to be admitted — a deliberate *approximation* of pending work
        (later turns and decode budgets are invisible until they queue),
        matching what a production router can actually observe. Memoised:
        a router probes every replica on every placement.
        """
        if self._queued_tokens is None:
            tokens = sum(
                self._records[rid].prefill_remaining for _, rid in self._prefill_queue
            )
            tokens += sum(
                int(self._records[self._chains[seq_id][0]].request.prompt.size)
                for seq_id in self._waiting
            )
            self._queued_tokens = tokens
        return self._queued_tokens

    def busy_time(self) -> float:
        """Cumulative simulated busy seconds across this runtime's pools."""
        return self.metrics.busy_s

    def prefix_match_len(self, tokens) -> int:
        """Longest resident cached prefix of ``tokens`` on the prefill
        engine (0 when the prefix cache is disabled). Read-only — a
        routing probe neither touches LRU order nor pins donors."""
        if self.prefix_index is None:
            return 0
        return int(self.engine.match_prefix(tokens)[0])

    def kv_leak_report(self) -> list[str]:
        """Audit every pool's KV bookkeeping plus the swap store.

        Concatenates every distinct pool's engine :meth:`~repro.core
        .engine.ContextParallelEngine.kv_leak_report` and flags host-store
        payloads that outlived the drain. Empty list = clean — the
        per-replica audit the fleet's drain contract requires.
        """
        leaks: list[str] = []
        for pool in self._distinct_pools.values():
            leaks += pool.engine.kv_leak_report()
        for role, pool in self._distinct_pools.items():
            for seq_id in sorted(pool.store):
                leaks.append(
                    f"swap store[{role}]: seq {seq_id} still holds a host payload"
                )
        return leaks
