"""Serving metrics aggregation (TTFT / TTIT / cache hit rates).

Since the observability layer (PR 10) these aggregates are *re-based* on
:class:`repro.obs.registry.MetricsRegistry`: every scalar counter, pool
label, and latency population is a registered instrument, so a runtime's
whole metric surface exposes as Prometheus text
(:meth:`ServingMetrics.prometheus_text` /
:meth:`FleetMetrics.prometheus_text`, the latter adding a ``replica``
label per series). The attributes below are read-only properties over
the registry, and list-valued attributes (``ttft_samples``...) alias the
backing histograms' own sample lists, so readers see exactly the values
the exposition reports.

Counters are a **fold over the runtime's event stream**: :data:`FOLD` maps
each event name to the counters it feeds, :meth:`ServingMetrics.fold`
applies it, and nothing else writes them — so a recorded trace replays to
the same counters (``repro.obs.timeline.reconcile`` checks exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.registry import MetricsRegistry, prometheus_text_multi
from repro.serving.request import TurnRecord

#: Integer event counters: attribute -> (metric name, help).
_INT_COUNTERS = {
    "preemptions": ("repro_preemptions_total", "Full KV evictions under capacity pressure"),
    "evicted_tokens": ("repro_preempt_evicted_kv_tokens_total", "KV tokens dropped by full evictions"),
    "trims": ("repro_trims_total", "Tail-trim preemption remedies applied"),
    "trimmed_kv_tokens": ("repro_trimmed_kv_tokens_total", "KV tokens dropped by tail-trims"),
    "swaps_out": ("repro_swaps_out_total", "Device-to-host KV swap-outs"),
    "swaps_in": ("repro_swaps_in_total", "Host-to-device KV swap-ins"),
    "swapped_out_tokens": ("repro_swapped_out_kv_tokens_total", "KV tokens swapped out to the host store"),
    "swapped_in_tokens": ("repro_swapped_in_kv_tokens_total", "KV tokens swapped back from the host store"),
    "transfers": ("repro_kv_transfers_total", "Landed prefill-to-decode KV transfers"),
    "transferred_kv_tokens": ("repro_transferred_kv_tokens_total", "KV tokens landed over the transfer wire"),
    "transfer_refusals": ("repro_kv_transfer_refusals_total", "Transfers the decode pool's admission refused"),
    "transfers_cancelled": ("repro_kv_transfers_cancelled_total", "In-flight transfers cancelled by eviction/shed"),
    "transfers_refunded": ("repro_kv_transfers_refunded_total", "Cancelled transfers that wasted no wire time"),
    "prefix_hits": ("repro_prefix_hits_total", "Prefix-cache lookups that adopted a cached prefix"),
    "prefix_misses": ("repro_prefix_misses_total", "Prefix-cache lookups that matched nothing"),
    "prefix_reused_tokens": ("repro_prefix_reused_kv_tokens_total", "KV tokens adopted from cached prefixes"),
    "prefix_evictions": ("repro_prefix_evictions_total", "LRU evictions of cached prefix residents"),
    "prefix_evicted_tokens": ("repro_prefix_evicted_kv_tokens_total", "KV tokens dropped by prefix evictions"),
    "transfer_faults": ("repro_transfer_faults_total", "Injected mid-stream KV-transfer failures"),
    "fault_retries": ("repro_fault_retries_total", "Failed transfers rescheduled after backoff"),
    "swap_losses": ("repro_swap_losses_total", "Host-store payloads lost at swap-in time"),
    "swap_lost_tokens": ("repro_swap_lost_kv_tokens_total", "KV tokens in lost swap payloads"),
    "pool_resets": ("repro_pool_resets_total", "Whole-pool KV resets injected"),
    "pool_reset_evicted_tokens": ("repro_pool_reset_evicted_kv_tokens_total", "Resident KV tokens dropped by pool resets"),
    "degraded_fallbacks": ("repro_degraded_fallbacks_total", "Fault recoveries that bottomed out in recompute"),
    "timeouts": ("repro_timeouts_total", "Requests shed for blowing their deadline"),
    "sheds": ("repro_sheds_total", "Requests shed by backpressure or cascade"),
    "completed_requests": ("repro_completed_requests_total", "Requests that reached FINISHED"),
}

#: Simulated-seconds counters (monotonic, float-valued).
_FLOAT_COUNTERS = {
    "swap_stall_s": ("repro_swap_stall_seconds_total", "Pool stall seconds spent on swap DMA"),
    "transfer_stall_s": ("repro_transfer_stall_seconds_total", "Decode idle seconds waiting on the KV wire"),
    "fault_backoff_s": ("repro_fault_backoff_seconds_total", "Retry backoff seconds charged to the wire schedule"),
}

#: Latency populations: attribute holding the raw samples -> metric.
_HISTOGRAMS = {
    "ttft_samples": ("repro_ttft_seconds", "Time to first token per completed request"),
    "ttit_samples": ("repro_ttit_seconds", "Inter-token gaps of streamed responses"),
    "ttft_cold_samples": ("repro_ttft_cold_seconds", "TTFT of prefix-cache-eligible requests that missed"),
    "ttft_warm_samples": ("repro_ttft_warm_seconds", "TTFT of prefix-cache-eligible requests that hit"),
}


# ------------------------------- the fold -------------------------------- #
# One row per counted event: ``row(metrics, dur, fields)`` adds the event to
# the counters it feeds. Amounts are checked before anything is added, so a
# rejected event changes nothing; sums run in event order, so float totals
# keep their bits between a live run and a replay of its trace.


def _adds(*feeds: tuple[str, object], floor: int = 0):
    """A row adding to scalar counters: each feed is ``(counter, amount)``
    with amount ``1`` (count the event), ``"dur"`` (the span's duration)
    or the name of the event field that carries it; no amount may be
    below ``floor``."""
    attrs = [attr for attr, _ in feeds]
    casts = [float if attr in _FLOAT_COUNTERS else int for attr in attrs]

    def row(m: "ServingMetrics", dur: float, fields: dict) -> None:
        amounts = [
            cast(1 if src == 1 else dur if src == "dur" else fields[src])
            for cast, (_, src) in zip(casts, feeds)
        ]
        if min(amounts) < floor:
            raise ValueError(f"each of {dict(zip(attrs, amounts))} must be >= {floor}")
        for attr, amount in zip(attrs, amounts):
            m._counters[attr].inc(amount)

    return row


def _by(field: str, default=None, **rows):
    """A row dispatching on ``fields[field]``; unlisted values take
    ``default`` (none: they feed nothing)."""

    def row(m: "ServingMetrics", dur: float, fields: dict) -> None:
        chosen = rows.get(fields.get(field), default)
        if chosen is not None:
            chosen(m, dur, fields)

    return row


def _round(pool: str):
    def row(m: "ServingMetrics", dur: float, fields: dict) -> None:
        m._pool_busy.inc(float(dur), pool=pool)
        m._pool_rounds.inc(1, pool=pool)

    return row


def _fold_finish(m: "ServingMetrics", dur: float, fields: dict) -> None:
    m._counters["completed_requests"].inc()
    m._ttit_announced += fields.get("gaps", 0)
    ttft = fields.get("ttft")
    if ttft is not None:
        m._histograms["ttft_samples"].observe(ttft)
        warm = fields.get("warm")  # only prefix-cache-eligible requests carry it
        if warm is not None:
            m._histograms["ttft_warm_samples" if warm else "ttft_cold_samples"].observe(ttft)


#: Event name -> row. THE event -> counter mapping: the runtime emits, this
#: folds, ``obs/trace.py``'s taxonomy table mirrors it in its ``feeds`` column.
FOLD = {
    "prefill_round": _round("prefill"),
    "decode_round": _round("decode"),
    "preempt": _by(
        "remedy",
        recompute=_adds(("preemptions", 1), ("evicted_tokens", "evicted")),
        trim=_adds(("trims", 1), ("trimmed_kv_tokens", "tokens")),
    ),
    "swap_out": _adds(("swaps_out", 1), ("swapped_out_tokens", "tokens"), ("swap_stall_s", "dur")),
    "swap_in": _adds(("swaps_in", 1), ("swapped_in_tokens", "tokens"), ("swap_stall_s", "dur")),
    "kv_transfer": _adds(("transfers", 1), ("transferred_kv_tokens", "tokens")),
    "kv_transfer_refused": _adds(("transfer_refusals", 1)),
    # a refunded cancel wasted no wire time; refunded is a subset of cancelled
    "kv_transfer_cancel": _adds(("transfers_cancelled", 1), ("transfers_refunded", "refunded")),
    "transfer_stall": _adds(("transfer_stall_s", "dur")),
    # a hit adopted a cached prefix, so it reused at least one token
    "prefix_hit": _adds(("prefix_hits", 1), ("prefix_reused_tokens", "reused"), floor=1),
    "prefix_miss": _adds(("prefix_misses", 1)),
    "prefix_evict": _adds(("prefix_evictions", 1), ("prefix_evicted_tokens", "tokens")),
    "fault_inject": _by(
        "kind",
        transfer=_adds(("transfer_faults", 1)),
        swap=_adds(("swap_losses", 1)),
        pool_reset=_adds(("pool_resets", 1), ("pool_reset_evicted_tokens", "tokens")),
    ),
    "fault_retry": _adds(("fault_retries", 1), ("fault_backoff_s", "backoff")),
    "fault_fallback": _by(
        "reason",
        default=_adds(("degraded_fallbacks", 1)),
        swap_loss=_adds(("degraded_fallbacks", 1), ("swap_lost_tokens", "tokens")),
    ),
    "shed": _by("status", timed_out=_adds(("timeouts", 1)), shed=_adds(("sheds", 1))),
    "finish": _fold_finish,
}


class ServingMetrics:
    """Rolling aggregate over completed turns, backed by a registry.

    Every counter, stall-second total, per-pool busy time and TTFT
    population is fed by :meth:`fold` from the events the
    continuous-batching runtime emits (capacity-pressure remedies, swaps,
    KV transfers, prefix-cache consults, the chaos layer's injections and
    recoveries, sheds, completions, engine rounds); per-pool utilization
    is ``pool_busy_s[pool] / makespan`` and ``goodput`` is completed
    requests per simulated host-second.

    Three **direct writers** stay, because no event carries their payload:
    :meth:`record_turn` (the turn ledger — a whole :class:`TurnRecord`,
    also what a ``ChatSession`` loop files), :meth:`record_ttit` (the
    inter-token gap *values*; ``finish`` carries only their count, which
    :meth:`writer_drift` holds them to) and :meth:`record_kv_occupancy`
    (the peak-KV gauge: a sampled state, not an event).

    Args:
        registry: the :class:`~repro.obs.registry.MetricsRegistry` to
            register instruments on (default: a fresh private one, so
            every instance — one per fleet replica — owns its state).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.turns: list[TurnRecord] = []
        self._ttit_announced = 0  # TTIT gaps the ``finish`` events said were streamed
        self._counters = {
            attr: r.counter(name, help)
            for attr, (name, help) in {**_INT_COUNTERS, **_FLOAT_COUNTERS}.items()
        }
        self._histograms = {
            attr: r.histogram(name, help) for attr, (name, help) in _HISTOGRAMS.items()
        }
        self._pool_busy = r.counter(
            "repro_pool_busy_seconds_total", "Engine busy seconds per pool", labels=("pool",)
        )
        self._pool_rounds = r.counter(
            "repro_pool_rounds_total", "Engine rounds executed per pool", labels=("pool",)
        )
        self._peak_kv = r.gauge(
            "repro_kv_peak_utilization", "Peak claimed KV-block fraction per pool", labels=("pool",)
        )

    # ---------------------- registry-backed attributes ------------------- #
    # Scalar counters and sample lists are generated as properties after
    # the class body (one per _INT_COUNTERS/_FLOAT_COUNTERS/_HISTOGRAMS
    # entry); only the pool-labeled dict views need hand-written ones.

    @property
    def pool_busy_s(self) -> dict[str, float]:
        return {labels[0]: v for labels, v in self._pool_busy.items()}

    @property
    def busy_s(self) -> float:
        """Busy seconds over every pool: at most two roles record rounds and a
        two-term float sum commutes, so this is the label-ordered sum's bits."""
        return float(self._pool_busy.total())

    @property
    def pool_rounds(self) -> dict[str, int]:
        return {labels[0]: int(v) for labels, v in self._pool_rounds.items()}

    @property
    def peak_kv_utilization(self) -> dict[str, float]:
        return {labels[0]: v for labels, v in self._peak_kv.items()}

    def prometheus_text(self) -> str:
        """Prometheus text exposition of every registered instrument."""
        return self.registry.prometheus_text()

    # ------------------------------- the fold ---------------------------- #

    def fold(self, name: str, dur: float, fields: dict) -> None:
        """Add one event to the counters :data:`FOLD` says it feeds.

        The runtime's :class:`~repro.obs.trace.EventStream` calls this for
        every event it emits, recorded or not; ``reconcile`` calls it to
        replay a recorded trace. Events no counter reads are ignored.
        """
        row = FOLD.get(name)
        if row is not None:
            row(self, dur, fields)

    def folded_state(self) -> dict[str, object]:
        """Every value the fold owns, by label — what ``reconcile``
        compares between a replayed trace and the live instance."""
        state: dict[str, object] = {attr: c.value() for attr, c in self._counters.items()}
        for attr in ("ttft_samples", "ttft_warm_samples", "ttft_cold_samples"):
            state[attr] = list(getattr(self, attr))
        state.update(
            pool_rounds=self.pool_rounds,
            pool_busy_s=self.pool_busy_s,
            ttit_gaps_announced=self._ttit_announced,
        )
        return state

    # --------------------------- direct writers -------------------------- #

    def record_turn(self, turn: TurnRecord) -> None:
        """Ledger one completed turn (its ``finish`` event counts it)."""
        self.turns.append(turn)

    def record_ttit(self, ttit: float) -> None:
        """Record one inter-token gap (runtime decode streaming)."""
        self._histograms["ttit_samples"].observe(ttit)

    def record_kv_occupancy(self, pool: str, fraction: float) -> None:
        """Sample a pool's claimed KV-block fraction (peak is kept)."""
        self._peak_kv.set_max(float(fraction), pool=pool)

    def writer_drift(self) -> list[str]:
        """The one direct writer the stream can cross-check: every
        ``finish`` announces how many TTIT gaps its turn streamed."""
        filed = len(self.ttit_samples)
        if filed == self._ttit_announced:
            return []
        return [f"ttit_sample_count: trace-derived {self._ttit_announced!r} != metrics {filed!r}"]

    # ------------------------------- views ------------------------------ #

    @property
    def total_prompt_tokens(self) -> int:
        return sum(t.prompt_tokens for t in self.turns)

    @property
    def total_generated_tokens(self) -> int:
        return sum(t.response_tokens for t in self.turns)

    @property
    def mean_cache_hit_rate(self) -> float:
        """Average of ``P / (T + P)`` over turns (1 - miss rate)."""
        if not self.turns:
            return 0.0
        return float(np.mean([1.0 - t.miss_rate for t in self.turns]))

    def algo_counts(self) -> dict[str, int]:
        """Prefill algorithm selection frequencies."""
        counts: dict[str, int] = {}
        for t in self.turns:
            counts[t.algo] = counts.get(t.algo, 0) + 1
        return counts

    def percentile_ttft(self, q: float) -> float:
        """TTFT percentile in seconds; ``nan`` when no samples exist."""
        if not self.ttft_samples:
            return float("nan")
        return float(np.percentile(self.ttft_samples, q))

    def percentile_ttit(self, q: float) -> float:
        """TTIT percentile in seconds; ``nan`` when no samples exist."""
        if not self.ttit_samples:
            return float("nan")
        return float(np.percentile(self.ttit_samples, q))

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-cache lookups that reused cached KV.

        Every admission-time index lookup counts — fresh conversations
        and re-matches of evicted follow-up turns alike — so hits and
        misses are recorded symmetrically.
        """
        total = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / total if total else 0.0

    def percentile_ttft_split(self, q: float, *, warm: bool) -> float:
        """Warm- or cold-bucket TTFT percentile; ``nan`` without samples."""
        samples = self.ttft_warm_samples if warm else self.ttft_cold_samples
        if not samples:
            return float("nan")
        return float(np.percentile(samples, q))

    def pool_utilization(self, pool: str, makespan: float) -> float:
        """Busy fraction of ``pool`` over ``makespan`` (nan when unknown)."""
        busy = self.pool_busy_s
        if makespan <= 0 or pool not in busy:
            return float("nan")
        return busy[pool] / makespan

    def goodput(self, makespan: float) -> float:
        """Completed requests per simulated host-second (DistServe's
        serving-quality axis — shed/timed-out requests count against it
        by not counting at all). 0 before any time elapses."""
        if makespan <= 0:
            return 0.0
        return self.completed_requests / makespan

    def summary(self) -> str:
        lines = [
            f"turns: {len(self.turns)}",
            f"prompt tokens: {self.total_prompt_tokens}",
            f"generated tokens: {self.total_generated_tokens}",
            f"mean cache hit rate: {self.mean_cache_hit_rate:.3f}",
            f"algo counts: {self.algo_counts()}",
            f"preemptions: {self.preemptions} ({self.evicted_tokens} KV tokens evicted)",
        ]
        if self.ttft_samples:
            lines.append(
                "TTFT p50/p95/p99: "
                f"{self.percentile_ttft(50):.3f}/{self.percentile_ttft(95):.3f}/"
                f"{self.percentile_ttft(99):.3f}s"
            )
        if self.ttit_samples:
            lines.append(
                "TTIT p50/p95/p99: "
                f"{self.percentile_ttit(50) * 1e3:.2f}/{self.percentile_ttit(95) * 1e3:.2f}/"
                f"{self.percentile_ttit(99) * 1e3:.2f}ms"
            )
        if self.prefix_hits or self.prefix_misses:
            line = (
                f"prefix cache: {self.prefix_hits}/{self.prefix_hits + self.prefix_misses} "
                f"hits ({self.prefix_hit_rate:.1%}), "
                f"{self.prefix_reused_tokens} tokens reused, "
                f"{self.prefix_evictions} cached prefixes evicted"
            )
            if self.ttft_warm_samples and self.ttft_cold_samples:
                line += (
                    f"; TTFT p50 warm/cold: "
                    f"{self.percentile_ttft_split(50, warm=True):.3f}/"
                    f"{self.percentile_ttft_split(50, warm=False):.3f}s"
                )
            lines.append(line)
        if self.trims:
            lines.append(
                f"tail trims: {self.trims} ({self.trimmed_kv_tokens} KV tokens dropped)"
            )
        if self.swaps_out or self.swaps_in:
            lines.append(
                f"KV swaps: {self.swaps_out} out/{self.swaps_in} in "
                f"({self.swapped_out_tokens} tokens out, "
                f"{self.swapped_in_tokens} back, "
                f"{self.swap_stall_s:.3f}s swap stall)"
            )
        if self.transfers or self.transfer_refusals or self.transfers_cancelled:
            lines.append(
                f"KV transfers: {self.transfers} "
                f"({self.transferred_kv_tokens} tokens, "
                f"{self.transfer_refusals} refused, "
                f"{self.transfers_cancelled} cancelled "
                f"({self.transfers_refunded} refunded), "
                f"{self.transfer_stall_s:.3f}s decode stall)"
            )
        if self.transfer_faults or self.swap_losses or self.pool_resets:
            lines.append(
                f"injected faults: {self.transfer_faults} transfer "
                f"({self.fault_retries} retried, {self.fault_backoff_s:.3f}s backoff), "
                f"{self.swap_losses} swap losses ({self.swap_lost_tokens} tokens), "
                f"{self.pool_resets} pool resets "
                f"({self.pool_reset_evicted_tokens} tokens dropped); "
                f"{self.degraded_fallbacks} degraded to recompute"
            )
        if self.timeouts or self.sheds:
            lines.append(
                f"shed: {self.timeouts} timed out, {self.sheds} rejected/cascaded "
                f"({self.completed_requests} requests completed)"
            )
        if self.pool_busy_s:
            busy_s, rounds = self.pool_busy_s, self.pool_rounds
            busy = ", ".join(
                f"{pool}: {busy_s[pool]:.3f}s/{rounds.get(pool, 0)} rounds"
                for pool in sorted(busy_s)
            )
            lines.append(f"pool busy: {busy}")
        if self.peak_kv_utilization:
            peak = ", ".join(
                f"{pool}: {frac:.1%}"
                for pool, frac in sorted(self.peak_kv_utilization.items())
            )
            lines.append(f"peak KV occupancy: {peak}")
        return "\n".join(lines)


def _counter_property(attr: str, cast) -> property:
    def fget(self):
        return cast(self._counters[attr].value())

    fget.__doc__ = f"Registry-backed ``{attr}`` counter (read-only)."
    return property(fget)


def _samples_property(attr: str) -> property:
    def fget(self):
        return self._histograms[attr].samples

    fget.__doc__ = (
        f"Raw ``{attr}`` list (aliases the backing histogram's samples)."
    )
    return property(fget)


for _attr in _INT_COUNTERS:
    setattr(ServingMetrics, _attr, _counter_property(_attr, int))
for _attr in _FLOAT_COUNTERS:
    setattr(ServingMetrics, _attr, _counter_property(_attr, float))
for _attr in _HISTOGRAMS:
    setattr(ServingMetrics, _attr, _samples_property(_attr))
del _attr


@dataclass
class FleetMetrics:
    """Per-replica :class:`ServingMetrics` plus fleet-level rollups.

    The scheduler-facing aggregate the cluster tier reports: each
    replica keeps its own independent ``ServingMetrics`` instance (the
    fleet never shares counter state between replicas), and this class
    only *reads* them — per-replica hit-rate/goodput/utilization for
    routing-quality analysis, concatenated TTFT populations for
    fleet-level percentiles.

    Attributes:
        replicas: replica id -> that replica's own metrics instance.
        makespans: replica id -> that replica's clock at report time
            (denominator for its goodput/utilization).
    """

    replicas: dict[int, "ServingMetrics"] = field(default_factory=dict)
    makespans: dict[int, float] = field(default_factory=dict)

    def add_replica(
        self, replica_id: int, metrics: "ServingMetrics", makespan: float
    ) -> None:
        if replica_id in self.replicas:
            raise ValueError(f"replica {replica_id} already added")
        self.replicas[replica_id] = metrics
        self.makespans[replica_id] = float(makespan)

    # -------------------------- per-replica views ------------------------ #

    def hit_rate(self, replica_id: int) -> float:
        """One replica's prefix-cache hit rate."""
        return self.replicas[replica_id].prefix_hit_rate

    def replica_goodput(self, replica_id: int) -> float:
        """One replica's completed requests per simulated second."""
        return self.replicas[replica_id].goodput(self.makespans[replica_id])

    def utilization(self, replica_id: int) -> dict[str, float]:
        """One replica's per-pool busy fractions over its own makespan."""
        m = self.replicas[replica_id]
        span = self.makespans[replica_id]
        return {pool: m.pool_utilization(pool, span) for pool in sorted(m.pool_busy_s)}

    # --------------------------- fleet rollups --------------------------- #

    @property
    def completed_requests(self) -> int:
        return sum(m.completed_requests for m in self.replicas.values())

    @property
    def prefix_hits(self) -> int:
        return sum(m.prefix_hits for m in self.replicas.values())

    @property
    def prefix_misses(self) -> int:
        return sum(m.prefix_misses for m in self.replicas.values())

    @property
    def prefix_hit_rate(self) -> float:
        """Fleet-wide prefix-cache hit rate (all lookups pooled)."""
        total = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / total if total else 0.0

    def _ttft_population(self, *, warm: bool | None = None) -> list[float]:
        samples: list[float] = []
        for rid in sorted(self.replicas):
            m = self.replicas[rid]
            if warm is None:
                samples.extend(m.ttft_samples)
            elif warm:
                samples.extend(m.ttft_warm_samples)
            else:
                samples.extend(m.ttft_cold_samples)
        return samples

    def percentile_ttft(self, q: float) -> float:
        """Fleet TTFT percentile over every replica's samples; ``nan``
        when no replica has any."""
        samples = self._ttft_population()
        if not samples:
            return float("nan")
        return float(np.percentile(samples, q))

    def percentile_ttft_split(self, q: float, *, warm: bool) -> float:
        """Fleet warm/cold TTFT percentile; ``nan`` without samples."""
        samples = self._ttft_population(warm=warm)
        if not samples:
            return float("nan")
        return float(np.percentile(samples, q))

    def fleet_goodput(self, makespan: float) -> float:
        """Fleet-completed requests per simulated second of fleet time
        (``makespan`` should be the latest replica clock)."""
        if makespan <= 0:
            return 0.0
        return self.completed_requests / makespan

    def prometheus_text(self) -> str:
        """Merged Prometheus exposition over every replica's registry,
        each sample line labeled ``replica="<id>"``."""
        return prometheus_text_multi(
            {rid: m.registry for rid, m in self.replicas.items()}
        )

    def summary(self) -> str:
        lines = [f"replicas: {len(self.replicas)}"]
        for rid in sorted(self.replicas):
            m = self.replicas[rid]
            span = self.makespans[rid]
            util = self.utilization(rid)
            util_s = (
                ", ".join(f"{pool}: {frac:.1%}" for pool, frac in util.items())
                or "idle"
            )
            lines.append(
                f"  replica {rid}: {m.completed_requests} completed, "
                f"goodput {self.replica_goodput(rid):.3f}/s, "
                f"hit rate {m.prefix_hit_rate:.1%}, "
                f"makespan {span:.3f}s, util {util_s}"
            )
        if self.prefix_hits or self.prefix_misses:
            lines.append(
                f"fleet prefix cache: {self.prefix_hits}/"
                f"{self.prefix_hits + self.prefix_misses} hits "
                f"({self.prefix_hit_rate:.1%})"
            )
        samples = self._ttft_population()
        if samples:
            line = (
                f"fleet TTFT p50/p95: "
                f"{self.percentile_ttft(50):.3f}/{self.percentile_ttft(95):.3f}s"
            )
            if self._ttft_population(warm=True) and self._ttft_population(warm=False):
                line += (
                    f"; p50 warm/cold: "
                    f"{self.percentile_ttft_split(50, warm=True):.3f}/"
                    f"{self.percentile_ttft_split(50, warm=False):.3f}s"
                )
            lines.append(line)
        return "\n".join(lines)
