"""Serving metrics aggregation (TTFT / TTIT / cache hit rates).

Every value here is a **fold over the runtime's event stream**: :data:`FOLD`
maps each event name to the counters it feeds, :meth:`ServingMetrics.fold`
applies it (plus the peak-KV gauge from the ``kv`` field the sampling
events carry), and nothing else writes them — so a recorded trace replays
to the same values (``repro.obs.timeline.reconcile`` checks exactly that).

A :class:`ServingMetrics` holds its values as plain numbers, sample lists
and ``pool -> value`` dicts. The name tables below give each one its
Prometheus metric, and one renderer (:func:`_exposition`) turns them into
text for a runtime (:meth:`ServingMetrics.prometheus_text`) and for a
fleet (:meth:`FleetMetrics.prometheus_text`, a ``replica`` label first on
every series). Same-seed runs expose byte-identical text.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

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

#: Per-pool values: the ``pool -> value`` view -> (metric name, help, type).
_POOL_FAMILIES = {
    "pool_busy_s": ("repro_pool_busy_seconds_total", "Engine busy seconds per pool", "counter"),
    "pool_rounds": ("repro_pool_rounds_total", "Engine rounds executed per pool", "counter"),
    "peak_kv_utilization": ("repro_kv_peak_utilization", "Peak claimed KV-block fraction per pool", "gauge"),
}

#: Every scalar counter: the keys of ``ServingMetrics._counters``.
_COUNTERS = {**_INT_COUNTERS, **_FLOAT_COUNTERS}

#: Histogram bucket upper bounds (simulated seconds): wide enough for TTFT at
#: paper scale (tens of seconds) and TTIT (tens of milliseconds) alike.
_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0, 300.0,
)


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
            m._counters[attr] += amount

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
        busy = float(dur)
        if busy < 0:
            raise ValueError(f"{pool} round duration must be >= 0, got {busy}")
        m._pool_busy[pool] = m._pool_busy.get(pool, 0) + busy
        m._pool_rounds[pool] = m._pool_rounds.get(pool, 0) + 1

    return row


def _fold_finish(m: "ServingMetrics", dur: float, fields: dict) -> None:
    # a finish is a ledgered turn: ``tokens`` is its response length
    turn = TurnRecord(
        seq_id=fields["seq_id"],
        prompt_tokens=fields["prompt"],
        cached_tokens=fields["cached"],
        response_tokens=fields["tokens"],
        algo=fields["algo"],
        generated=fields["generated"],
    )
    ttit = [float(gap) for gap in fields["ttit"]]
    m._counters["completed_requests"] += 1
    m.turns.append(turn)
    m._samples["ttit_samples"].extend(ttit)
    ttft = fields.get("ttft")
    if ttft is not None:
        ttft = float(ttft)
        m._samples["ttft_samples"].append(ttft)
        warm = fields.get("warm")  # only prefix-cache-eligible requests carry it
        if warm is not None:
            m._samples["ttft_warm_samples" if warm else "ttft_cold_samples"].append(ttft)


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
    """Rolling aggregate over completed turns.

    Every value is fed by :meth:`fold` from the events the
    continuous-batching runtime emits (capacity-pressure remedies, swaps,
    KV transfers, prefix-cache consults, the chaos layer's injections and
    recoveries, sheds, completions, engine rounds): the counters,
    stall-second totals, per-pool busy time, the TTFT and TTIT
    populations, the turn ledger (one :class:`TurnRecord` per ``finish``)
    and the per-pool peak KV occupancy. Nothing writes them directly.
    Per-pool utilization is ``pool_busy_s[pool] / makespan`` and
    ``goodput`` is completed requests per simulated host-second.
    """

    def __init__(self) -> None:
        self.turns: list[TurnRecord] = []
        self._counters: dict[str, float] = dict.fromkeys(_COUNTERS, 0)
        self._samples: dict[str, list[float]] = {attr: [] for attr in _HISTOGRAMS}
        self._pool_busy: dict[str, float] = {}
        self._pool_rounds: dict[str, int] = {}
        self._peak_kv: dict[str, float] = {}

    # ------------------------------ attributes --------------------------- #
    # Scalar counters and sample lists are generated as properties after
    # the class body (one per _COUNTERS/_HISTOGRAMS entry); the per-pool
    # views are copies in pool-name order, the order the exposition lists.

    @property
    def pool_busy_s(self) -> dict[str, float]:
        return dict(sorted(self._pool_busy.items()))

    @property
    def busy_s(self) -> float:
        """Busy seconds over every pool: at most two roles record rounds and a
        two-term float sum commutes, so this is the pool-ordered sum's bits."""
        return float(sum(self._pool_busy.values()))

    @property
    def pool_rounds(self) -> dict[str, int]:
        return dict(sorted(self._pool_rounds.items()))

    @property
    def peak_kv_utilization(self) -> dict[str, float]:
        return dict(sorted(self._peak_kv.items()))

    def prometheus_text(self) -> str:
        """Prometheus text exposition of every metric family."""
        return _exposition({None: self})

    # ------------------------------- the fold ---------------------------- #

    def fold(self, name: str, dur: float, fields: dict) -> None:
        """Add one event to the values :data:`FOLD` says it feeds.

        The runtime's :class:`~repro.obs.trace.EventStream` calls this for
        every event it emits, recorded or not; ``reconcile`` calls it to
        replay a recorded trace. Events no row reads are ignored; a
        ``kv={pool: fraction}`` sample raises that pool's peak.
        """
        row = FOLD.get(name)
        if row is not None:
            row(self, dur, fields)
        kv = fields.get("kv")
        if kv is not None:
            peak = self._peak_kv
            for pool, fraction in kv.items():
                peak[pool] = max(peak.get(pool, fraction), fraction)

    def folded_state(self) -> dict[str, object]:
        """Every value the fold owns, by label — what ``reconcile``
        compares between a replayed trace and the live instance."""
        state: dict[str, object] = dict(self._counters)
        for attr in _HISTOGRAMS:
            state[attr] = list(self._samples[attr])
        state.update(
            pool_rounds=self.pool_rounds,
            pool_busy_s=self.pool_busy_s,
            peak_kv_utilization=self.peak_kv_utilization,
            turns=list(self.turns),
        )
        return state

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
        return _percentile(self.ttft_samples, q)

    def percentile_ttit(self, q: float) -> float:
        """TTIT percentile in seconds; ``nan`` when no samples exist."""
        return _percentile(self.ttit_samples, q)

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
        return _percentile(self.ttft_warm_samples if warm else self.ttft_cold_samples, q)

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


def _counter_property(attr: str) -> property:
    cast = float if attr in _FLOAT_COUNTERS else int
    return property(lambda self: cast(self._counters[attr]), doc=f"The ``{attr}`` counter.")


def _samples_property(attr: str) -> property:
    return property(lambda self: self._samples[attr], doc=f"The ``{attr}`` list itself.")


for _attr in _COUNTERS:
    setattr(ServingMetrics, _attr, _counter_property(_attr))
for _attr in _HISTOGRAMS:
    setattr(ServingMetrics, _attr, _samples_property(_attr))
del _attr


def _percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile of ``samples``; ``nan`` when there are none."""
    return float(np.percentile(samples, q)) if samples else float("nan")


# ----------------------------- exposition -------------------------------- #


def _value(v: float) -> str:
    """A sample value: integral values print bare, others by ``repr``."""
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _labels(replica: int | None, **labels: object) -> str:
    """A series' label set, ``replica`` first; ``""`` when it has none."""
    pairs = [] if replica is None else [f'replica="{replica}"']
    pairs += [f'{name}="{value}"' for name, value in labels.items()]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _exposition(replicas: dict[int | None, ServingMetrics]) -> str:
    """Prometheus text over ``replica id -> metrics`` (``{None: m}``: one
    runtime, no ``replica`` label). Families sort by name with one
    HELP/TYPE header each; within one, replicas list in id order and pools
    in name order. A histogram lists cumulative buckets, ``+Inf``, ``_sum``
    (of the samples in arrival order) and ``_count``."""
    families: dict[str, list[str]] = {}

    def family(name: str, kind: str, help: str) -> list[str]:
        return families.setdefault(name, [f"# HELP {name} {help}", f"# TYPE {name} {kind}"])

    for rid in sorted(replicas):
        m = replicas[rid]
        for attr, (name, help) in _COUNTERS.items():
            value = m._counters[attr]
            family(name, "counter", help).append(f"{name}{_labels(rid)} {_value(value)}")
        for attr, (name, help, kind) in _POOL_FAMILIES.items():
            family(name, kind, help).extend(
                f"{name}{_labels(rid, pool=pool)} {_value(v)}"
                for pool, v in getattr(m, attr).items()
            )
        for attr, (name, help) in _HISTOGRAMS.items():
            samples = m._samples[attr]
            ordered = sorted(samples)
            lines = family(name, "histogram", help)
            lines.extend(
                f"{name}_bucket{_labels(rid, le=_value(bound))} {bisect_right(ordered, bound)}"
                for bound in _BUCKETS
            )
            lines += [
                f'{name}_bucket{_labels(rid, le="+Inf")} {len(samples)}',
                f"{name}_sum{_labels(rid)} {_value(sum(samples))}",
                f"{name}_count{_labels(rid)} {len(samples)}",
            ]
    return "".join(f"{line}\n" for name in sorted(families) for line in families[name])


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
    def prefix_hits(self) -> int:
        return sum(m.prefix_hits for m in self.replicas.values())

    @property
    def prefix_misses(self) -> int:
        return sum(m.prefix_misses for m in self.replicas.values())

    @property
    def prefix_reused_tokens(self) -> int:
        return sum(m.prefix_reused_tokens for m in self.replicas.values())

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
        return _percentile(self._ttft_population(), q)

    def percentile_ttft_split(self, q: float, *, warm: bool) -> float:
        """Fleet warm/cold TTFT percentile; ``nan`` without samples."""
        return _percentile(self._ttft_population(warm=warm), q)

    def prometheus_text(self) -> str:
        """Prometheus exposition over every replica, each series labeled
        ``replica="<id>"`` first; ``""`` for a fleet with no replicas."""
        return _exposition(self.replicas)

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
