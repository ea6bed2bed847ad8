"""Per-request timeline reconstruction, TTFT attribution, reconciliation.

Four consumers of a recorded event stream live here:

- :func:`build_timeline` / :func:`explain_ttft` — reconstruct one
  request's scheduling story and decompose its TTFT into an **exact
  partition**: queue wait, prefill compute, swap stall, transfer stall,
  fault backoff, and post-preemption requeue wait. Components sum to
  the recorded TTFT *exactly* (the sweep partitions the window; the
  queue-wait term is closed so the insertion-order sum telescopes back
  to the window length).
- :func:`format_explanation` — the human rendering behind
  ``python -m repro explain REQ_ID --trace PATH``.
- :func:`comm_totals` — count / wire bytes / simulated seconds of the
  collective spans a traced process group emitted, by kind.
- :func:`replay` / :func:`reconcile` / :func:`reconcile_fleet` — the
  trace-vs-metrics cross-check, as replay-and-compare: folding the
  recorded events into a fresh
  :class:`~repro.serving.metrics.ServingMetrics` must reproduce every
  value the live fold holds *exactly* (same floats, summed in emission
  order). Metrics are that fold by construction, so drift means
  something wrote a value around the stream — reported as a failure by
  ``serve --verify`` and pinned by ``tests/properties/test_prop_trace.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs.trace import TraceEvent

#: TTFT claim categories, highest priority first: when intervals overlap
#: (they shouldn't, but clipping can touch at borders), compute wins
#: over stalls, stalls over backoff.
_CLAIM_PRIORITY = ("prefill_compute", "swap_stall", "transfer_stall", "fault_backoff")

_CLAIM_SOURCES = {
    "prefill_chunk": "prefill_compute",
    "swap_out": "swap_stall",
    "swap_in": "swap_stall",
    "transfer_stall": "transfer_stall",
    "kv_transfer": "transfer_stall",
}


@dataclass
class RequestTimeline:
    """One request's events, keyed by the moments explain cares about."""

    request_id: int
    seq_id: int | None = None
    replica: int | None = None
    route: TraceEvent | None = None
    admits: list[TraceEvent] = field(default_factory=list)
    first_token: TraceEvent | None = None
    finish: TraceEvent | None = None
    shed: TraceEvent | None = None
    preempts: list[TraceEvent] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def arrival(self) -> float | None:
        if self.admits:
            return self.admits[0].attrs.get("arrival")
        if self.route is not None:
            return self.route.t
        return None


@dataclass
class TTFTBreakdown:
    """Exact TTFT partition. ``components`` sums (in insertion order)
    to ``ttft``; ``queue_wait`` is the closing term."""

    request_id: int
    arrival: float
    first_token_at: float
    components: dict[str, float]

    @property
    def ttft(self) -> float:
        return self.first_token_at - self.arrival


def events_for_request(events: list[TraceEvent], request_id: int) -> list[TraceEvent]:
    return [e for e in events if e.request_id == request_id]


def request_ids(events: list[TraceEvent]) -> list[int]:
    """Distinct request ids in first-seen order."""
    seen: dict[int, None] = {}
    for e in events:
        if e.request_id is not None:
            seen.setdefault(e.request_id, None)
    return list(seen)


def build_timeline(events: list[TraceEvent], request_id: int) -> RequestTimeline:
    tl = RequestTimeline(request_id=request_id)
    for e in events_for_request(events, request_id):
        tl.events.append(e)
        if tl.seq_id is None and e.seq_id is not None:
            tl.seq_id = e.seq_id
        if e.name == "route":
            tl.route = e
        elif e.name == "admit":
            tl.admits.append(e)
            if e.replica is not None:
                tl.replica = e.replica
        elif e.name == "first_token" and tl.first_token is None:
            tl.first_token = e
        elif e.name == "finish":
            tl.finish = e
        elif e.name == "shed":
            tl.shed = e
        elif e.name == "preempt":
            tl.preempts.append(e)
    if not tl.events:
        raise ValueError(f"request {request_id} does not appear in the trace")
    if tl.replica is None:
        for e in tl.events:
            if e.replica is not None:
                tl.replica = e.replica
                break
    return tl


def _claims_in_window(
    tl: RequestTimeline, lo: float, hi: float
) -> list[tuple[float, float, str]]:
    claims: list[tuple[float, float, str]] = []
    for e in tl.events:
        category = None
        if e.phase == "span" and e.name in _CLAIM_SOURCES:
            start, end = e.t, e.t + e.dur
            category = _CLAIM_SOURCES[e.name]
        elif e.name == "fault_retry":
            start, end = e.t, e.t + float(e.attrs.get("backoff", 0.0))
            category = "fault_backoff"
        if category is None:
            continue
        start, end = max(start, lo), min(end, hi)
        if end > start:
            claims.append((start, end, category))
    return claims


def explain_ttft(events: list[TraceEvent], request_id: int) -> TTFTBreakdown:
    """Decompose a request's TTFT into an exact component partition.

    Sweeps the ``[arrival, first_token]`` window over the request's
    claim intervals (prefill chunks, swap/transfer stalls, retry
    backoff); unclaimed time after the first preemption is requeue
    wait, and the remaining unclaimed time — computed as the closing
    difference so the component sum telescopes to TTFT exactly — is
    queue wait.
    """
    tl = build_timeline(events, request_id)
    arrival = tl.arrival
    if arrival is None:
        raise ValueError(f"request {request_id} was never admitted or routed")
    if tl.first_token is None:
        status = "finished" if tl.finish else tl.shed.attrs.get("status", "shed") if tl.shed else "incomplete"
        raise ValueError(f"request {request_id} streamed no token (status: {status})")
    ft = tl.first_token.t
    claims = _claims_in_window(tl, arrival, ft)
    first_preempt = min((p.t for p in tl.preempts), default=None)

    bounds: dict[float, None] = {arrival: None, ft: None}
    for start, end, _ in claims:
        bounds.setdefault(start, None)
        bounds.setdefault(end, None)
    if first_preempt is not None and arrival < first_preempt < ft:
        bounds.setdefault(first_preempt, None)
    cuts = sorted(bounds)

    measured = {cat: 0.0 for cat in _CLAIM_PRIORITY}
    measured["preempt_requeue"] = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2.0
        owner = None
        for cat in _CLAIM_PRIORITY:
            if any(s <= mid < e for s, e, c in claims if c == cat):
                owner = cat
                break
        if owner is None:
            if first_preempt is not None and mid >= first_preempt:
                owner = "preempt_requeue"
            else:
                continue  # queue wait: folded into the closing term
        measured[owner] += hi - lo

    components: dict[str, float] = {}
    partial = 0.0
    for cat in (*_CLAIM_PRIORITY, "preempt_requeue"):
        components[cat] = measured[cat]
        partial += measured[cat]
    components["queue_wait"] = (ft - arrival) - partial
    return TTFTBreakdown(
        request_id=request_id,
        arrival=arrival,
        first_token_at=ft,
        components=components,
    )


_COMPONENT_LABELS = {
    "queue_wait": "queue wait",
    "prefill_compute": "prefill compute",
    "swap_stall": "swap stall",
    "transfer_stall": "transfer stall",
    "fault_backoff": "fault backoff",
    "preempt_requeue": "preempt requeue",
}


def format_explanation(events: list[TraceEvent], request_id: int) -> str:
    """Human rendering for ``python -m repro explain``."""
    tl = build_timeline(events, request_id)
    lines = [f"request {request_id}" + (f" (seq {tl.seq_id})" if tl.seq_id is not None else "")]
    if tl.route is not None:
        policy = tl.route.attrs.get("policy", "?")
        sticky = " [sticky session]" if tl.route.attrs.get("sticky") else ""
        lines.append(
            f"  routed to replica {tl.route.replica} by {policy} policy{sticky} "
            f"at t={tl.route.t:.6f}"
        )
        scores = tl.route.attrs.get("scores")
        if scores:
            ranked = ", ".join(
                f"r{rid}={score:.3f}" for rid, score in sorted(scores.items())
            )
            lines.append(f"    candidate scores: {ranked}")
    elif tl.replica is not None:
        lines.append(f"  replica {tl.replica}")
    arrival = tl.arrival
    if arrival is not None:
        lines.append(f"  arrival t={arrival:.6f}")
    hit = next((e.attrs for e in tl.events if e.name == "prefix_hit"), None)
    for admit in tl.admits:
        cached_s = f", {hit['reused']} prefix tokens cached (donor seq {hit['donor']})" if hit else ""
        lines.append(f"  admitted t={admit.t:.6f}{cached_s}")
    for p in tl.preempts:
        lines.append(
            f"  preempted t={p.t:.6f} "
            f"(remedy={p.attrs.get('remedy', '?')}, reason={p.attrs.get('reason', '?')})"
        )
    if tl.first_token is not None and arrival is not None:
        bd = explain_ttft(events, request_id)
        lines.append(
            f"  first token t={tl.first_token.t:.6f} — TTFT {bd.ttft:.6f}s, decomposed:"
        )
        ttft = bd.ttft
        order = ("queue_wait", *_CLAIM_PRIORITY, "preempt_requeue")
        for cat in order:
            v = bd.components[cat]
            if v == 0.0 and cat not in ("queue_wait", "prefill_compute"):
                continue
            pct = f" ({v / ttft:6.1%})" if ttft > 0 else ""
            lines.append(f"    {_COMPONENT_LABELS[cat]:<16s} {v:12.6f}s{pct}")
    if tl.finish is not None:
        tokens = tl.finish.attrs.get("tokens", 0)
        span = None
        if tl.first_token is not None and tokens and tokens > 1:
            span = (tl.finish.t - tl.first_token.t) / (tokens - 1)
        tpot = f", mean TPOT {span:.6f}s" if span is not None else ""
        lines.append(f"  finished t={tl.finish.t:.6f} — {tokens} tokens{tpot}")
        if tl.first_token is not None:
            stalls = _claims_in_window(tl, tl.first_token.t, tl.finish.t)
            decode_stalls: dict[str, float] = {}
            for start, end, cat in stalls:
                decode_stalls[cat] = decode_stalls.get(cat, 0.0) + (end - start)
            if decode_stalls:
                detail = ", ".join(
                    f"{_COMPONENT_LABELS[c]} {v:.6f}s"
                    for c, v in sorted(decode_stalls.items())
                )
                lines.append(f"    decode-window stalls: {detail}")
    elif tl.shed is not None:
        lines.append(f"  shed t={tl.shed.t:.6f} ({tl.shed.attrs.get('status', 'shed')})")
    elif tl.first_token is None:  # (neither finished nor shed)
        lines.append("  no first token recorded (status: incomplete)")
    return "\n".join(lines)


# ------------------------- collective totals ---------------------------- #

_COMM_KINDS = ("sendrecv", "all2all", "allgather", "allreduce")


class CommTotal(NamedTuple):
    """Spans of one collective kind: how many, wire bytes, simulated seconds."""

    count: int = 0
    bytes: int = 0
    seconds: float = 0.0


def comm_totals(events: list[TraceEvent]) -> dict[str, CommTotal]:
    """Per-kind totals of the collective spans a traced
    :class:`~repro.distributed.process_group.SimProcessGroup` emitted
    (every kind is present; the ones never used total zero)."""
    totals = dict.fromkeys(_COMM_KINDS, CommTotal())
    for e in events:
        if e.name in totals:
            sofar = totals[e.name]
            totals[e.name] = CommTotal(
                sofar.count + 1, sofar.bytes + e.attrs["bytes"], sofar.seconds + e.dur
            )
    return totals


# --------------------------- reconciliation ----------------------------- #


def replay(events: list[TraceEvent], metrics):
    """Fold recorded ``events`` into ``metrics`` and return it, each with
    its ``pool`` / ``request_id`` / ``seq_id`` labels back among its fields:
    the dict the live stream handed the fold."""
    for e in events:
        fields = dict(e.attrs)
        for label in ("pool", "request_id", "seq_id"):
            value = getattr(e, label)
            if value is not None:
                fields[label] = value
        metrics.fold(e.name, e.dur, fields)
    return metrics


def reconcile(events: list[TraceEvent], metrics) -> list[str]:
    """Cross-check a trace against a :class:`ServingMetrics` instance.

    Replays ``events`` into a fresh instance and returns one drift
    description per value that differs from the live one (empty ==
    reconciled). There is no tolerance: the trace carries the values the
    live fold saw, in the same order, so running float sums are
    bit-identical. The live values came from the same fold, so what
    drifts is a value written around the stream, an event recorded but
    never folded (or the reverse), or a trace that is not this run's.
    """
    derived = replay(events, type(metrics)()).folded_state()
    recorded = metrics.folded_state()
    return [
        f"{label}: trace-derived {derived[label]!r} != metrics {recorded[label]!r}"
        for label in derived
        if derived[label] != recorded[label]
    ]


def reconcile_fleet(events: list[TraceEvent], fleet_metrics) -> list[str]:
    """Per-replica reconciliation against a :class:`FleetMetrics`.

    Routing instants are fleet-level (not any replica's schedule) and
    are excluded; every other event must carry its replica label.
    """
    drift: list[str] = []
    runtime_events = [e for e in events if e.name != "route"]
    unlabeled = sum(1 for e in runtime_events if e.replica is None)
    if unlabeled:
        drift.append(f"fleet trace has {unlabeled} events without a replica label")
    for rid in sorted(fleet_metrics.replicas):
        sub = [e for e in runtime_events if e.replica == rid]
        drift.extend(
            f"replica {rid}: {d}" for d in reconcile(sub, fleet_metrics.replicas[rid])
        )
    known = set(fleet_metrics.replicas)
    stray = sorted({e.replica for e in runtime_events} - known - {None})
    if stray:
        drift.append(f"trace carries events for unknown replicas {stray}")
    return drift
