"""Deterministic fault injection for the serving runtime (chaos layer).

Production disaggregated serving treats failure and overload as schedule
inputs, not exceptions: DistServe measures *goodput* (requests completed
within SLO per second), and Mooncake's overload-oriented scheduler
rejects work early rather than wedging the cluster. The runtime grown
here spans the same failure surface — a bandwidth-priced KV wire, a
host-side swap store, and two paged KV pools — so this module makes each
of those components fallible on purpose, deterministically:

- **Transfer failures**: an in-flight prefill->decode KV payload dies
  mid-stream at landing time. The wire seconds already streamed are
  sunk; the runtime retries with capped exponential backoff and, past
  ``max_transfer_retries``, degrades to a full re-prefill of the
  committed history (the remedy of last resort always available).
- **Swap losses**: a host-store payload is gone when its swap-in comes
  due. The runtime falls back to recomputation — the same spill path a
  capacity-blocked swap-in already takes.
- **Pool resets**: a whole pool loses every resident KV block (node
  crash / cache flush). Every holder is requeued through the ordinary
  preemption machinery, with prefix-index anchors and allocator
  refcounts invalidated consistently.
- **Deadlines & backpressure**: per-request deadlines shed requests
  that can no longer finish in time (``timed_out``), and a queue-depth
  cap rejects admissions under overload (``shed``), so saturation
  degrades completion rate instead of latency-for-everyone.

Determinism is the point: every stochastic decision is a pure function
of ``(plan seed, fault kind, seq_id, request_id, attempt index)`` via a
counter-based RNG, so the same :class:`FaultPlan` produces the same
fault schedule regardless of event interleaving — which is what lets
the serving-exactness property replay a faulted run and what makes
``--fault-seed`` reproducible from the CLI. Per-request fault *budgets*
(retries per transfer, losses per swap, a finite reset count) guarantee
every run still drains: past its budget a request is exempt and its
recovery path completes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

#: RNG stream discriminators (never reuse across fault kinds).
_KIND_TRANSFER = 1
_KIND_SWAP = 2
_KIND_RESET = 3

#: Lost-swap budget per request: after this many injected losses the
#: request's swap-ins always succeed, so recovery terminates.
_MAX_SWAP_LOSSES = 2

#: CLI spec keys -> (FaultPlan field, parser).
_SPEC_KEYS = {
    "transfer": ("transfer_fail_rate", float),
    "swap": ("swap_loss_rate", float),
    "pool_reset": ("pool_resets", int),
    "window": ("pool_reset_window", int),
    "retries": ("max_transfer_retries", int),
    "backoff": ("backoff_base_s", float),
    "backoff_cap": ("backoff_cap_s", float),
    "deadline": ("deadline_s", float),
    "queue": ("max_queue_depth", int),
}


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of which faults a runtime run injects.

    Attributes:
        seed: root of every per-event RNG draw. One seed fully
            determines the fault schedule (given the same workload).
        transfer_fail_rate: probability an in-flight KV transfer dies at
            landing time (per landing attempt, disaggregated runtimes).
        swap_loss_rate: probability a host-stored swap payload is gone
            when its swap-in comes due (``preemption="swap"`` runtimes).
        pool_resets: how many whole-pool KV resets to inject.
        pool_reset_window: resets land within the first this-many engine
            rounds (prefill + decode combined).
        max_transfer_retries: failed-transfer retries before the
            degradation ladder falls back to full re-prefill.
        backoff_base_s: first retry delay; doubles per retry.
        backoff_cap_s: ceiling on any single retry delay.
        deadline_s: per-request completion deadline measured from
            arrival (``None`` = no deadline). A request past its
            deadline is shed as ``timed_out`` along with the rest of
            its conversation.
        max_queue_depth: prefill-queue depth above which *new*
            admissions are rejected (``shed``) instead of enqueued
            (``None`` = no backpressure).
    """

    seed: int = 0
    transfer_fail_rate: float = 0.0
    swap_loss_rate: float = 0.0
    pool_resets: int = 0
    pool_reset_window: int = 24
    max_transfer_retries: int = 3
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 8.0
    deadline_s: float | None = None
    max_queue_depth: int | None = None

    def __post_init__(self) -> None:
        for name in ("transfer_fail_rate", "swap_loss_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.pool_resets < 0:
            raise ValueError(f"pool_resets must be >= 0, got {self.pool_resets}")
        if self.pool_reset_window < 1:
            raise ValueError(
                f"pool_reset_window must be >= 1, got {self.pool_reset_window}"
            )
        if self.max_transfer_retries < 0:
            raise ValueError(
                f"max_transfer_retries must be >= 0, got {self.max_transfer_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )

    @property
    def active(self) -> bool:
        """Whether this plan injects or sheds anything at all."""
        return bool(
            self.transfer_fail_rate
            or self.swap_loss_rate
            or self.pool_resets
            or self.deadline_s is not None
            or self.max_queue_depth is not None
        )

    def backoff(self, attempt: int) -> float:
        """Capped exponential delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** (attempt - 1)))

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Build a plan from a CLI spec like
        ``"transfer=0.2,swap=0.2,pool_reset=1,deadline=30,queue=16"``.

        Keys: ``transfer`` (fail rate), ``swap`` (loss rate),
        ``pool_reset`` (count), ``window`` (reset round window),
        ``retries``, ``backoff``, ``backoff_cap``, ``deadline``
        (seconds), ``queue`` (max depth). Unknown keys raise.
        """
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in _SPEC_KEYS:
                known = ", ".join(sorted(_SPEC_KEYS))
                raise ValueError(
                    f"bad fault spec item {part!r}: want key=value with key in {{{known}}}"
                )
            field_name, cast = _SPEC_KEYS[key]
            try:
                kwargs[field_name] = cast(value)
            except ValueError as exc:
                raise ValueError(f"bad fault spec value in {part!r}: {exc}") from exc
        return cls(seed=seed, **kwargs)

    def describe(self) -> str:
        """Compact non-default-fields summary (CLI banner / logs)."""
        parts = []
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name != "seed" and val != f.default:
                parts.append(f"{f.name}={val}")
        return ", ".join(parts) if parts else "inactive"


class FaultInjector:
    """Stateful fault oracle for one runtime run.

    Each query is answered by a counter-based RNG keyed on
    ``(seed, kind, seq_id, request_id, attempt)`` — the attempt index is
    the per-request count of faults already injected for that kind, so a
    payload re-examined on several steps (e.g. a refused transfer
    retried every landing pass) re-derives the *same* verdict until a
    fault actually fires and advances the counter. That makes the
    schedule independent of how the event loop happens to interleave,
    which is what the determinism acceptance criterion requires.

    Args:
        plan: the fault plan to execute.
        pools: pool names eligible for resets (the runtime passes
            ``("prefill", "decode")`` when disaggregated, ``("prefill",)``
            colocated — the single aliased pool).
        tracer: optional :class:`repro.obs.trace.Tracer`; every injected
            verdict (a ``True`` from :meth:`transfer_fails` /
            :meth:`swap_lost`) emits a ``fault_inject`` instant at the
            simulated time the caller passes via ``now`` — unguarded,
            because the runtime's stream folds it into the fault
            counters whether or not anything records. Pool resets are
            emitted by the runtime, which knows the evicted tokens.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        pools: tuple[str, ...] = ("prefill",),
        tracer=None,
    ):
        from repro.obs.trace import NULL_TRACER

        if not pools:
            raise ValueError("at least one pool name is required")
        self.plan = plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._transfer_faults: dict[int, int] = {}
        self._swap_losses: dict[int, int] = {}
        # the reset schedule is pre-drawn so it never depends on which
        # requests happen to exist when a reset comes due
        rng = np.random.default_rng([plan.seed, _KIND_RESET])
        schedule = [
            (
                int(rng.integers(1, plan.pool_reset_window + 1)),
                str(pools[int(rng.integers(0, len(pools)))]),
            )
            for _ in range(plan.pool_resets)
        ]
        self._reset_schedule = sorted(schedule)
        self._resets_fired = 0

    def _draw(self, kind: int, seq_id: int, request_id: int, attempt: int) -> float:
        rng = np.random.default_rng([self.plan.seed, kind, seq_id, request_id, attempt])
        return float(rng.random())

    # ------------------------------------------------------------------ #

    def transfer_fails(self, seq_id: int, request_id: int, *, now: float = 0.0) -> bool:
        """Whether this landing attempt of ``request_id``'s transfer dies.

        Budgeted: at most ``max_transfer_retries + 1`` faults per request
        (the retries plus the one that triggers re-prefill fallback);
        past that the request's transfers always land, so the run drains.
        A ``True`` advances the request's fault counter (and emits a
        ``fault_inject`` trace instant at simulated time ``now``).
        """
        used = self._transfer_faults.get(request_id, 0)
        if used > self.plan.max_transfer_retries:
            return False
        if self._draw(_KIND_TRANSFER, seq_id, request_id, used) >= self.plan.transfer_fail_rate:
            return False
        self._transfer_faults[request_id] = used + 1
        self.tracer.instant(
            "fault_inject",
            now,
            request_id=request_id,
            seq_id=seq_id,
            kind="transfer",
            attempt=used + 1,
        )
        return True

    def transfer_faults_injected(self, request_id: int) -> int:
        """Faults injected so far for ``request_id`` (the attempt index)."""
        return self._transfer_faults.get(request_id, 0)

    def swap_lost(self, seq_id: int, request_id: int, *, now: float = 0.0) -> bool:
        """Whether ``request_id``'s host-stored payload is gone at
        swap-in time. Budgeted at ``_MAX_SWAP_LOSSES`` per request."""
        used = self._swap_losses.get(request_id, 0)
        if used >= _MAX_SWAP_LOSSES:
            return False
        if self._draw(_KIND_SWAP, seq_id, request_id, used) >= self.plan.swap_loss_rate:
            return False
        self._swap_losses[request_id] = used + 1
        self.tracer.instant(
            "fault_inject",
            now,
            request_id=request_id,
            seq_id=seq_id,
            kind="swap",
            attempt=used + 1,
        )
        return True

    def pool_resets_due(self, completed_rounds: int) -> list[str]:
        """Pool names whose scheduled reset round has been reached.

        Each scheduled reset fires exactly once, in schedule order.
        """
        due = []
        while (
            self._resets_fired < len(self._reset_schedule)
            and self._reset_schedule[self._resets_fired][0] <= completed_rounds
        ):
            due.append(self._reset_schedule[self._resets_fired][1])
            self._resets_fired += 1
        return due

    def reset_schedule(self) -> list[tuple[int, str]]:
        """The pre-drawn ``(round, pool)`` reset schedule (diagnostics)."""
        return list(self._reset_schedule)
