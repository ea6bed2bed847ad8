"""Deterministic scheduling tracer: structured simulated-time events.

Every clock in this repository is simulated, which buys observability a
property production tracers cannot have: **same seed ⇒ byte-identical
trace**. Events carry simulated timestamps and are appended in the
runtime's (deterministic) execution order, so the serialized stream is
itself a schedule fingerprint — tier-1 tests diff it byte-for-byte.

Two tracer flavors:

- :data:`NULL_TRACER` — the default everywhere. ``enabled`` is False and
  every emit method is a no-op; hot paths guard bulk emission with
  ``if tracer.enabled:`` so a tracer-less run does no per-event work.
- :class:`RecordingTracer` — appends :class:`TraceEvent` records for
  later export (:mod:`repro.obs.export`) and reconstruction
  (:mod:`repro.obs.timeline`).

Label scoping: ``tracer.scoped(replica=2, pool="prefill")`` returns a
lightweight view that stamps those fields onto every event it emits —
the fleet hands each runtime a replica-scoped view, the runtime hands
its transfer stream a wire-scoped one. Scopes compose (a scope of a
scope merges defaults; inner wins).

Event taxonomy (names are the wire format — exporters and the
reconciliation property key off them):

======================  ======  ==============================================
event                   phase   emitted from
======================  ======  ==============================================
``route``               inst.   ``cluster/fleet.py`` submit (attrs: policy,
                                chosen replica, candidate scores)
``admit``               inst.   runtime ``_admit`` (attrs: arrival, queue wait,
                                cached/suffix token split)
``prefill_round``       span    one fused chunked-prefill round (attrs: algo,
                                chunk tokens, round price)
``prefill_chunk``       span    per-request slice of a prefill round
``first_token``         inst.   prefill completion samples token 0
``kv_transfer_schedule``/
``_extend``/``_cancel`` inst.   ``runtime/transfer.py`` stream ops
``kv_transfer``         span    wire occupancy of a completed transfer
``kv_transfer_refused`` inst.   decode-side admission refusal
``transfer_stall``      span    decode blocked on an unlanded transfer
``decode_round``        span    one decode step over the live batch
``decode_token``        inst.   per-request token append in a decode round
``swap_out``/``swap_in``span    PCIe-priced swap DMA (attrs: tokens, stall)
``preempt``             inst.   victim eviction (attrs: victim, remedy ∈
                                recompute|trim|swap, reason)
``prefix_hit``/``_miss``/
``_adopt``/``_evict``   inst.   radix-cache consult / adoption / LRU drop
``fault_inject``        inst.   ``runtime/faults.py`` injector verdicts
``fault_retry``         inst.   transfer retry w/ backoff (attrs: attempt,
                                backoff seconds)
``fault_fallback``      inst.   retry budget exhausted → re-prefill
``shed``                inst.   deadline timeout / queue-depth shed
``finish``              inst.   request completion (attrs: ttft, tokens)
======================  ======  ==============================================
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
    """

    enabled = False

    def instant(self, name: str, t: float, **fields) -> None:
        pass

    def span(self, name: str, t: float, dur: float, **fields) -> None:
        pass

    def scoped(self, **defaults) -> "Tracer":
        """A view stamping default labels; the null tracer returns itself."""
        return self


#: Shared null tracer — every traced component's default.
NULL_TRACER = Tracer()

#: Identity/label field names ``instant``/``span`` lift out of **fields;
#: everything else lands in ``attrs``.
_IDENT_FIELDS = ("replica", "pool", "request_id", "seq_id")


class RecordingTracer(Tracer):
    """Appends events in emission order (which is deterministic)."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def _emit(self, name: str, phase: str, t: float, dur: float, fields: dict) -> None:
        ident = {k: fields.pop(k) for k in _IDENT_FIELDS if k in fields}
        self.events.append(
            TraceEvent(
                name=name,
                phase=phase,
                t=float(t),
                dur=float(dur),
                attrs=fields,
                **ident,
            )
        )

    def instant(self, name: str, t: float, **fields) -> None:
        self._emit(name, "instant", t, 0.0, fields)

    def span(self, name: str, t: float, dur: float, **fields) -> None:
        self._emit(name, "span", t, dur, fields)

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

    @property
    def events(self) -> list[TraceEvent]:
        return self._root.events

    def instant(self, name: str, t: float, **fields) -> None:
        self._root.instant(name, t, **{**self._defaults, **fields})

    def span(self, name: str, t: float, dur: float, **fields) -> None:
        self._root.span(name, t, dur, **{**self._defaults, **fields})

    def scoped(self, **defaults) -> "Tracer":
        return _ScopedTracer(self._root, {**self._defaults, **defaults})
