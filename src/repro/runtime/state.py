"""Per-request state machine records for the serving runtime.

Each conversation turn moves through::

    QUEUED --admit--> PREFILL --last chunk--> [KV_TRANSFER] --> DECODE --budget spent--> FINISHED
                         ^                         |              |
                         |________ PREEMPTED <-----+--------------/  (capacity pressure)

- **QUEUED**: submitted, waiting for arrival time and (for follow-up
  turns) the previous turn of the same conversation to finish.
- **PREFILL**: the turn's pending input is being committed chunk by chunk
  (each chunk a budget-bounded partial prefill). In a disaggregated
  runtime this always runs on the *prefill pool*.
- **KV_TRANSFER** (disaggregated runtimes only): prefill is complete and
  the turn's first token has streamed, but its committed KV is still in
  flight from the prefill pool to the decode pool over the
  :class:`repro.runtime.transfer.KVTransferStream`. Colocated runtimes
  skip this state entirely.
- **DECODE**: one token per decode round until ``max_new_tokens`` are
  generated *and committed* — like :class:`repro.serving.session
  .ChatSession`, the final token's KV is decoded into the cache so
  follow-up turns see an identical persistent state. Runs on the
  *decode pool* when disaggregated.
- **PREEMPTED**: evicted under KV capacity pressure (from either pool —
  a transfer in flight is cancelled); the request rejoins the prefill
  FIFO. Under the default *recompute* remedy all of the conversation's
  cache is dropped and the full committed history re-prefills exactly;
  under the *tail-trim* remedy only the newest KV is dropped, the
  resident prefix survives, and only the trimmed suffix re-prefills.
- **SWAPPED** (``--preemption swap`` runtimes only): the victim's KV was
  exported whole to a host-side store (priced at PCIe bandwidth by
  ``StepClock.price_swap``) instead of being dropped. The request waits
  off-engine; once the pool readmits it the KV is imported back and the
  request resumes exactly where it was — a decode victim re-enters
  DECODE with its pending sampled token, a prefill victim rejoins the
  prefill FIFO mid-chunk. No recompute happens in either direction.
- **FINISHED**: terminal — the turn completed its full decode budget.
- **TIMED_OUT** (fault-injection runtimes only): terminal — the request
  blew past its per-request deadline (``FaultPlan.deadline_s``) and was
  shed, along with every later turn of its conversation.
- **SHED** (fault-injection runtimes only): terminal — rejected by
  queue-depth backpressure at admission, or cascaded from an earlier
  turn of the same conversation being shed/timed out. Shed requests
  release all of the conversation's KV; their partial token streams are
  not part of the serving-exactness contract (only ``FINISHED``
  requests are compared against sequential replay).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.workloads.generator import ConversationScript


class RequestState(enum.Enum):
    """Lifecycle states of a turn inside the runtime."""

    QUEUED = "queued"
    PREFILL = "prefill"
    KV_TRANSFER = "kv_transfer"
    DECODE = "decode"
    PREEMPTED = "preempted"
    SWAPPED = "swapped"
    FINISHED = "finished"
    TIMED_OUT = "timed_out"
    SHED = "shed"


#: Terminal states a request can end in. Only FINISHED counts as
#: *completed* — the population the serving-exactness property compares
#: against sequential replay and the goodput metric counts.
TERMINAL_STATES = (RequestState.FINISHED, RequestState.TIMED_OUT, RequestState.SHED)


@dataclass(eq=False)
class TurnRequest:
    """One conversation turn submitted to the runtime.

    Attributes:
        request_id: unique id across the runtime (assigned at submit when
            negative).
        seq_id: conversation id; turns with the same seq_id run in submit
            order over one persistent KV stream.
        prompt: the turn's new prompt tokens.
        max_new_tokens: decode budget for the response.
        arrival: earliest start time in simulated seconds (follow-up turns
            additionally wait for their predecessor to finish).
        last_turn: release the conversation's KV when this turn finishes.
    """

    request_id: int
    seq_id: int
    prompt: np.ndarray
    max_new_tokens: int
    arrival: float = 0.0
    last_turn: bool = True

    def __post_init__(self) -> None:
        self.prompt = np.asarray(self.prompt, dtype=np.int64)
        if self.prompt.ndim != 1 or self.prompt.size == 0:
            raise ValueError(f"request {self.request_id}: prompt must be non-empty 1-D")
        if self.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        if not (math.isfinite(self.arrival) and self.arrival >= 0):
            raise ValueError(f"arrival must be a finite number >= 0, got {self.arrival}")

    def check_vocab(self, vocab_size: int) -> None:
        """Raise ``ValueError`` unless every prompt id lies in ``[0,
        vocab_size)`` — run at submit, so a bad id fails there and not in
        the middle of a round it shares with other requests."""
        lo, hi = int(self.prompt.min()), int(self.prompt.max())
        if lo < 0 or hi >= vocab_size:
            raise ValueError(
                f"seq {self.seq_id}: prompt token ids must lie in [0, {vocab_size}), "
                f"got {lo}..{hi}"
            )


def script_turns(
    script: ConversationScript, *, arrival: float = 0.0, think_time: float = 0.0
) -> Iterator[TurnRequest]:
    """A scripted conversation's turns, in submit order, for any
    ``submit_script``: turn ``i`` arrives no earlier than ``arrival + i *
    think_time`` (and the runtime never starts it before its predecessor
    finishes); only the last turn releases the conversation's KV."""
    if not (math.isfinite(think_time) and think_time >= 0):
        raise ValueError(f"think_time must be a finite number >= 0, got {think_time}")
    n = script.turns
    for i, (prompt, budget) in enumerate(zip(script.prompts, script.response_budgets)):
        yield TurnRequest(
            request_id=-1,
            seq_id=script.seq_id,
            prompt=prompt,
            max_new_tokens=int(budget),
            arrival=arrival + i * think_time,
            last_turn=(i == n - 1),
        )


@dataclass(eq=False)
class RequestRecord:
    """Runtime bookkeeping and streaming metrics for one turn.

    Attributes:
        request: the submitted turn.
        state: current lifecycle state.
        pending_input: tokens still to be prefilled before decode can
            (re)start. Initially the turn's prompt; after a preemption it
            is rebuilt as the conversation's full committed history.
        prefill_done: how many tokens of ``pending_input`` are committed.
        generated: decoded token ids (the last one may not yet have its KV
            committed — it is the next decode round's input).
        resample_on_prefill: whether finishing the prefill should sample a
            fresh first token (normal path) or resume with the already
            sampled ``generated[-1]`` (post-preemption path).
        cached_at_start: persistent KV length when the turn started
            (the ``P`` of its first prefill chunk; in a disaggregated
            runtime, the decode pool's resident KV the transfer machinery
            preserved), for miss-rate records.
        ready_at: earliest simulated time the request may occupy a
            prefill round — its arrival, or the (decode-pool) time of the
            eviction that sent it back to the prefill FIFO. Keeps the two
            pool clocks causally consistent.
        swapped_from: while ``state`` is SWAPPED, the state to resume
            into once the KV swaps back in (DECODE resumes decoding with
            the pending token; anything else rejoins the prefill FIFO).
        prefix_eligible: this admission consulted the radix prefix cache
            (a fresh stream on a prefix-cache-enabled runtime), so its
            TTFT files into the warm or cold bucket.
        prefix_hit: the admission adopted a cached shared prefix.
        prefix_shared: tokens of the adopted shared prefix still counted
            resident — the floor the tail-trim remedy must respect (a
            pinned shared prefix is never trimmed; full eviction resets
            this to 0 along with the residency it describes).
        prefix_donor: the donor sequence pinned in the index for this
            request's lifetime (unpinned at finish).
        preemptions: times this turn was evicted (any remedy: recompute,
            tail-trim, or swap).
        transfer_faults: injected mid-stream KV-transfer failures this
            turn absorbed (retries plus a possible re-prefill fallback).
        chunk_algos: planner decision per executed prefill chunk.
        admitted_at / first_token_at / finished_at: simulated timestamps.
        token_times: simulated emission time of every generated token
            (``token_times[0]`` is the TTFT sample point).
    """

    request: TurnRequest
    state: RequestState = RequestState.QUEUED
    pending_input: np.ndarray | None = None
    prefill_done: int = 0
    generated: list[int] = field(default_factory=list)
    resample_on_prefill: bool = True
    cached_at_start: int = 0
    ready_at: float = 0.0
    swapped_from: "RequestState | None" = None
    prefix_eligible: bool = False
    prefix_hit: bool = False
    prefix_shared: int = 0
    prefix_donor: int | None = None
    preemptions: int = 0
    transfer_faults: int = 0
    chunk_algos: list[str] = field(default_factory=list)
    admitted_at: float | None = None
    first_token_at: float | None = None
    finished_at: float | None = None
    token_times: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.pending_input is None:
            self.pending_input = np.asarray(self.request.prompt, dtype=np.int64)

    # ------------------------------- views ------------------------------ #

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def seq_id(self) -> int:
        return self.request.seq_id

    @property
    def prefill_remaining(self) -> int:
        return int(self.pending_input.size) - self.prefill_done

    @property
    def status(self) -> str | None:
        """Terminal outcome: ``"finished"`` / ``"timed_out"`` /
        ``"shed"``, or ``None`` while the request is still in flight.
        Callers should branch on this, not on token counts — a shed
        request may have streamed a partial response before dying."""
        if self.state in TERMINAL_STATES:
            return self.state.value
        return None

    @property
    def ttft(self) -> float:
        """Arrival to first decoded token (nan until it happens)."""
        if self.first_token_at is None:
            return float("nan")
        return self.first_token_at - self.request.arrival

    def ttit_samples(self) -> list[float]:
        """Inter-token gaps of the streamed response."""
        return [b - a for a, b in zip(self.token_times, self.token_times[1:])]
