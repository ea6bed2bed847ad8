"""Trace serialization: deterministic JSONL and Chrome/Perfetto JSON.

JSONL is the canonical format — one ``TraceEvent.to_dict()`` per line,
keys sorted, so a deterministic event stream serializes to a
byte-identical file (the trace-determinism property diffs these bytes).

The Chrome format targets ``chrome://tracing`` / https://ui.perfetto.dev:

- each **replica** is a process (``pid``; bare runtimes land on pid 0),
- each **pool** is a low-numbered thread track (``prefill``/``decode``
  rounds render as span rails showing pool occupancy; a traced process
  group's collectives abut on the ``comm`` rail),
- each **request** is its own thread track (``tid = 100 + request_id``)
  where that request's prefill chunks, wire transfers, swaps, and stall
  spans nest, with instants (admit, first token, preemptions, finish)
  pinned on the same rail.

Span nesting on a track follows Chrome's stacking rule — any two spans
on one ``(pid, tid)`` must be disjoint or properly contained.
:func:`validate_chrome` checks exactly that (plus parseability), and CI
runs it over a smoke trace.
"""

from __future__ import annotations

import json

from repro.obs.trace import TraceEvent

#: Fixed thread-track ids for pool rails; request rails start above these.
_POOL_TIDS = {"prefill": 1, "decode": 2, "wire": 3, "host": 4, "comm": 5}
_REQUEST_TID_BASE = 100
#: Simulated seconds -> trace microseconds.
_US = 1_000_000.0


def dumps_jsonl(events: list[TraceEvent]) -> str:
    """Serialize to JSONL text (sorted keys ⇒ byte-deterministic)."""
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events)


def write_jsonl(events: list[TraceEvent], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_jsonl(events))


def load_jsonl(path: str) -> list[TraceEvent]:
    events: list[TraceEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events


def _track(event: TraceEvent) -> tuple[int, int, str]:
    """``(pid, tid, thread_name)`` for an event.

    Pool-level round spans go on pool rails; anything tied to a request
    goes on that request's rail; remaining pool-labeled events (e.g.
    stream scheduling instants with no request) fall back to their
    pool's rail; the rest land on tid 0 ("scheduler").
    """
    pid = event.replica if event.replica is not None else 0
    if event.name in ("prefill_round", "decode_round"):
        return pid, _POOL_TIDS[event.pool or "prefill"], f"pool {event.pool}"
    if event.request_id is not None:
        return pid, _REQUEST_TID_BASE + event.request_id, f"req {event.request_id}"
    if event.pool in _POOL_TIDS:
        return pid, _POOL_TIDS[event.pool], f"pool {event.pool}"
    return pid, 0, "scheduler"


def to_chrome(events: list[TraceEvent]) -> dict:
    """Chrome/Perfetto ``trace.json`` object (``traceEvents`` array)."""
    trace_events: list[dict] = []
    seen_pids: dict[int, None] = {}
    seen_tracks: dict[tuple[int, int], str] = {}
    body: list[dict] = []
    for event in events:
        pid, tid, thread_name = _track(event)
        seen_pids.setdefault(pid, None)
        seen_tracks.setdefault((pid, tid), thread_name)
        args = dict(event.attrs)
        if event.seq_id is not None:
            args["seq_id"] = event.seq_id
        entry: dict = {
            "name": event.name,
            "pid": pid,
            "tid": tid,
            "ts": event.t * _US,
        }
        if args:
            entry["args"] = args
        if event.phase == "span":
            entry["ph"] = "X"
            # dur is derived so ts + dur reproduces (t + dur) * _US
            # exactly (same-magnitude subtraction is exact): back-to-back
            # spans whose simulated seconds abut exactly then abut
            # exactly in microseconds too, keeping the stacking check
            # honest instead of tripping on conversion dust
            entry["dur"] = (event.t + event.dur) * _US - entry["ts"]
            entry["cat"] = event.pool or "runtime"
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
            entry["cat"] = event.pool or "runtime"
        body.append(entry)
    for pid in seen_pids:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"replica {pid}"},
            }
        )
    for (pid, tid), thread_name in seen_tracks.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread_name},
            }
        )
        # sort_index keeps pool rails above request rails in the UI
        trace_events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    trace_events.extend(body)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome(events: list[TraceEvent], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome(events), fh, sort_keys=True)
        fh.write("\n")


def validate_chrome(obj: dict) -> list[str]:
    """Structural checks on a Chrome trace object; returns problems.

    Verifies the container shape, required per-event keys, and the span
    stacking rule: complete ("X") events sharing a ``(pid, tid)`` track
    must be disjoint or properly contained (a tolerance of 1e-9 us
    absorbs float dust at span borders).
    """
    problems: list[str] = []
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    spans: dict[tuple[int, int], list[tuple[float, float, str]]] = {}
    for i, e in enumerate(events):
        if not isinstance(e, dict) or "ph" not in e or "pid" not in e or "tid" not in e:
            problems.append(f"event {i} malformed: {e!r}")
            continue
        if e["ph"] == "X":
            if "ts" not in e or "dur" not in e:
                problems.append(f"event {i} ({e.get('name')}) X without ts/dur")
                continue
            if e["dur"] < 0:
                problems.append(f"event {i} ({e.get('name')}) negative dur {e['dur']}")
                continue
            spans.setdefault((e["pid"], e["tid"]), []).append(
                (float(e["ts"]), float(e["ts"]) + float(e["dur"]), str(e.get("name")))
            )
    eps = 1e-9
    for track in sorted(spans):
        stack: list[tuple[float, float, str]] = []
        for start, end, name in sorted(spans[track], key=lambda s: (s[0], -(s[1] - s[0]))):
            while stack and start >= stack[-1][1] - eps:
                stack.pop()
            if stack and end > stack[-1][1] + eps:
                problems.append(
                    f"track pid={track[0]} tid={track[1]}: span {name!r} "
                    f"[{start}, {end}] overlaps {stack[-1][2]!r} "
                    f"[{stack[-1][0]}, {stack[-1][1]}] without nesting"
                )
                continue
            stack.append((start, end, name))
    return problems
