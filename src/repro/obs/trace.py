"""Deterministic scheduling tracer: structured simulated-time events.

Every clock in this repository is simulated, which buys observability a
property production tracers cannot have: **same seed ⇒ byte-identical
trace**. Events carry simulated timestamps and are appended in the
runtime's (deterministic) execution order, so the serialized stream is
itself a schedule fingerprint — tier-1 tests diff it byte-for-byte.

Three tracer flavors:

- :data:`NULL_TRACER` — the default everywhere. ``enabled`` is False and
  every emit method is a no-op; hot paths guard bulk emission with
  ``if tracer.enabled:`` so a tracer-less run does no per-event work.
- :class:`RecordingTracer` — appends :class:`TraceEvent` records for
  later export (:mod:`repro.obs.export`) and reconstruction
  (:mod:`repro.obs.timeline`).
- :class:`EventStream` — what a serving runtime emits through: every
  event is handed to a *fold* (``ServingMetrics.fold``, the one
  event → counter mapping) and then, when a recorder is attached, to it.
  ``enabled`` still means "a recorder is attached" and still guards the
  events no counter reads, so counters come out the same traced or not.

Label scoping: ``tracer.scoped(replica=2, pool="prefill")`` returns a
lightweight view that stamps those fields onto every event it emits —
the fleet hands each runtime a replica-scoped view, the runtime hands
its transfer stream a wire-scoped one. Scopes compose (a scope of a
scope merges defaults; inner wins).

Event taxonomy (names are the wire format — exporters and the fold key
off them). ``feeds`` mirrors ``repro.serving.metrics.FOLD``: the counters
an event adds to, or ``trace-only`` when nothing reads it (those stay
behind ``if tracer.enabled:``); ``tests/test_one_event_stream.py`` holds
the two tables to each other.

===========================  ======  ============================  ==============================
event                        phase   feeds                         emitted from
===========================  ======  ============================  ==============================
``route``                    inst.   trace-only                    ``cluster/fleet.py`` submit
``admit``                    inst.   trace-only                    runtime ``_admit``
``prefill_round``            span    pool busy seconds, rounds     one fused chunked-prefill round
``prefill_chunk``            span    trace-only                    per-request slice of a round
``first_token``              inst.   trace-only                    prefill completion samples token 0
``kv_transfer_schedule``     inst.   trace-only                    ``runtime/transfer.py`` stream ops
``kv_transfer_extend``       inst.   trace-only                    (same)
``kv_transfer_cancel``       inst.   cancelled, refunded           runtime takes a payload off the wire
``kv_transfer``              span    transfers, tokens             wire occupancy of a landed transfer
``kv_transfer_refused``      inst.   refusals                      decode-side admission refusal
``transfer_stall``           span    ``dur`` → transfer stall s    decode blocked on an unlanded transfer
``decode_round``             span    pool busy seconds, rounds     one decode step over the live batch
``decode_token``             inst.   trace-only                    per-request token append
``swap_out``                 span    count, tokens, ``dur`` stall  PCIe-priced swap DMA
``swap_in``                  span    count, tokens, ``dur`` stall  (same)
``preempt``                  inst.   by ``remedy``: evictions /    victim eviction (``swap`` feeds
                                     trims and their tokens        nothing: ``swap_out`` counted it)
``prefix_hit``               inst.   hits, ``reused`` tokens       radix-cache consult
``prefix_miss``              inst.   misses                        (same)
``prefix_adopt``             inst.   trace-only                    adoption of a matched prefix
``prefix_evict``             inst.   evictions, tokens             LRU drop of a cached resident
``fault_inject``             inst.   by ``kind``: transfer faults  ``runtime/faults.py`` verdicts;
                                     / swap losses / pool resets   pool resets from the runtime
``fault_retry``              inst.   retries, ``backoff`` seconds  transfer retry with backoff
``fault_fallback``           inst.   degraded fallbacks, lost      retry budget exhausted / swap
                                     swap tokens                   payload lost → re-prefill
``shed``                     inst.   by ``status``: timeouts /     deadline timeout / queue-depth shed
                                     sheds
``finish``                   inst.   completed, TTFT, warm/cold,   request completion, with the
                                     ``ttit`` values, turn ledger  ledger's ``prompt``, ``cached``,
                                                                   ``algo`` and ``generated``
``sendrecv``                 span    trace-only                    ``distributed/process_group.py``:
``all2all``                  span    trace-only                    one span per collective, ``dur``
``allgather``                span    trace-only                    the ``gtt_host()`` formula for its
``allreduce``                span    trace-only                    kind and bytes, ``t`` a group-local
                                                                   running sum (attrs: ``step``,
                                                                   ``bytes``, ``tag``)
===========================  ======  ============================  ==============================

Five events also carry ``kv={pool: fraction}``, the pool's KV occupancy
sampled right after the change they record, for the peak-KV gauge (absent
for an unbounded engine): ``prefill_round``, ``decode_round``,
``kv_transfer`` (naming the decode pool), a trim's ``preempt``, ``swap_in``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One structured event at a simulated timestamp.

    ``phase`` is ``"span"`` (has ``dur``) or ``"instant"`` (``dur`` 0).
    ``t`` and ``dur`` are simulated seconds. Identity fields that don't
    apply are None (e.g. pool-level events carry no request id).
    """

    name: str
    phase: str
    t: float
    dur: float = 0.0
    replica: int | None = None
    pool: str | None = None
    request_id: int | None = None
    seq_id: int | None = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Stable wire form: sorted keys, Nones dropped."""
        d = {
            "name": self.name,
            "phase": self.phase,
            "t": self.t,
        }
        if self.phase == "span":
            d["dur"] = self.dur
        for k in ("replica", "pool", "request_id", "seq_id"):
            v = getattr(self, k)
            if v is not None:
                d[k] = v
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEvent":
        return cls(
            name=d["name"],
            phase=d["phase"],
            t=d["t"],
            dur=d.get("dur", 0.0),
            replica=d.get("replica"),
            pool=d.get("pool"),
            request_id=d.get("request_id"),
            seq_id=d.get("seq_id"),
            attrs=d.get("attrs", {}),
        )


class Tracer:
    """Null tracer: the zero-overhead default.

    ``enabled`` is False; emitters are no-ops. Hook sites that would do
    per-item work to build an event (e.g. one ``prefill_chunk`` per
    request in a fused round) guard on ``tracer.enabled`` first.
    Subclasses override :meth:`record`, the one primitive ``instant``
    and ``span`` are spelled in; it consumes ``fields``.
    """

    enabled = False

    def record(self, name: str, phase: str, t: float, dur: float, fields: dict) -> None:
        pass

    def instant(self, name: str, t: float, **fields) -> None:
        self.record(name, "instant", t, 0.0, fields)

    def span(self, name: str, t: float, dur: float, **fields) -> None:
        self.record(name, "span", t, dur, fields)

    def scoped(self, **defaults) -> "Tracer":
        """A view stamping default labels; the null tracer returns itself."""
        return self


#: Shared null tracer — every traced component's default.
NULL_TRACER = Tracer()


class RecordingTracer(Tracer):
    """Appends events in emission order (which is deterministic)."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(self, name: str, phase: str, t: float, dur: float, fields: dict) -> None:
        # identity/label fields lift out of ``fields``; the rest are attrs
        pop = fields.pop
        self.events.append(
            TraceEvent(
                name, phase, float(t), float(dur),
                pop("replica", None), pop("pool", None),
                pop("request_id", None), pop("seq_id", None),
                fields,
            )
        )

    def scoped(self, **defaults) -> "Tracer":
        return _ScopedTracer(self, defaults)


class _ScopedTracer(Tracer):
    """View over a recording tracer that stamps default labels.

    Explicit fields at the emit site win over scope defaults; scoping a
    scope merges (inner wins), always delegating to the root recorder.
    """

    enabled = True

    def __init__(self, root: RecordingTracer, defaults: dict) -> None:
        self._root = root
        self._defaults = defaults

    def record(self, name: str, phase: str, t: float, dur: float, fields: dict) -> None:
        self._root.record(name, phase, t, dur, {**self._defaults, **fields})

    def scoped(self, **defaults) -> "Tracer":
        return _ScopedTracer(self._root, {**self._defaults, **defaults})


class EventStream(Tracer):
    """A runtime's one emit point: fold every event, then record it.

    ``fold(name, dur, fields)`` sees every event emitted here whether or
    not anything records, so what it counts cannot depend on tracing;
    ``enabled`` is the recorder's, and hook sites keep using it to skip
    building events the fold does not read.
    """

    def __init__(self, fold, recorder: Tracer | None = None) -> None:
        self._fold = fold
        self._recorder = recorder if recorder is not None else NULL_TRACER
        self.enabled = self._recorder.enabled

    def record(self, name: str, phase: str, t: float, dur: float, fields: dict) -> None:
        self._fold(name, dur, fields)
        if self.enabled:
            self._recorder.record(name, phase, t, dur, fields)

    def scoped(self, **defaults) -> "Tracer":
        """A view stamping ``defaults`` on what is recorded, same fold."""
        return EventStream(self._fold, self._recorder.scoped(**defaults))
