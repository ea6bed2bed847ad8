"""Lockstep simulated process group.

:class:`SimProcessGroup` plays the role of the NCCL process group in the
production system. All ranks live in one Python process and collectives are
*lockstep*: the caller holds one payload per rank in a list indexed by rank,
and each collective returns the post-communication list. This is equivalent
to an SPMD program synchronised at every collective — which is exactly the
structure of the paper's ring algorithms (one SendRecv per ring step).

Payloads are arbitrary nests of ``list`` / ``tuple`` / ``dict`` / dataclass
containing NumPy arrays, all of them on the wire. Byte accounting uses the
*logical* element size of bf16 (2 bytes, ``LatencySimulator``'s default)
rather than the arrays' in-memory float64, so traced traffic matches what
the paper's wire format would carry.

Tracing is the repository's one tracer (:mod:`repro.obs.trace`): with a
recorder attached, every collective emits one span named for its kind
(``sendrecv`` / ``all2all`` / ``allgather`` / ``allreduce``; attrs ``step``,
``bytes`` = the busiest rank's logical wire bytes, ``tag``) laid end to end
on a group-local clock — the simulated counterpart of the GPU trace the
paper inspects (§4.2.1, Table 5). A span's ``dur`` is the
:func:`repro.perf.hardware.gtt_host` price of its kind, through the same
:class:`~repro.perf.hardware.HostSpec` formula
:class:`~repro.perf.latency.LatencySimulator` charges, so the trace and the
tables share one hardware model. With no recorder attached (the default,
and every serving engine) a collective does no byte walk and retains
nothing.

A real network cannot alias buffers between ranks. The simulation keeps that
guarantee without copying: a collective rebuilds the payload's containers,
shares its arrays with the receiver and **freezes** them at send
(``writeable = False``), so a rank that writes into a buffer it sent or
received raises at the faulty line instead of silently corrupting its peer.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.obs.trace import NULL_TRACER, Tracer
from repro.perf.hardware import gtt_host

#: The wire every collective span is priced on.
_HOST = gtt_host()
#: Logical bytes per tensor element on the wire (bf16).
_ELEMENT_BYTES = 2
#: The scalars a payload may carry, one element each (immutable: delivered as they are).
_SCALARS = (int, float, np.integer, np.floating)


def payload_elements(payload: Any) -> int:
    """Total number of array elements in a nested payload."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    if isinstance(payload, (list, tuple)):
        return sum(payload_elements(p) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_elements(v) for v in payload.values())
    if isinstance(payload, _SCALARS):
        return 1
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return sum(payload_elements(getattr(payload, f.name)) for f in dataclasses.fields(payload))
    raise TypeError(f"unsupported payload type {type(payload)!r}")


def _deliver(payload: Any) -> Any:
    """The receiver's side of a sent payload: fresh containers around the
    sender's arrays, which are frozen so neither side can write them. A
    container's arrays are frozen in the one pass over its values; only a
    nested container (or dataclass) is delivered by a call of its own.

    Raises:
        TypeError: on what :func:`payload_elements` rejects too — an object
            the receiver would otherwise share with the sender, unfrozen.
    """
    fields = None
    if isinstance(payload, dict):
        values = list(payload.values())
    elif isinstance(payload, (list, tuple)):
        values = list(payload)
    elif dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        fields = [f.name for f in dataclasses.fields(payload)]
        values = [getattr(payload, name) for name in fields]
    else:
        values = [payload]  # an array, a scalar or None: its own one value
    for i, value in enumerate(values):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif value is None or isinstance(value, _SCALARS):
            pass  # immutable
        elif isinstance(value, (dict, list, tuple)) or dataclasses.is_dataclass(value) and not isinstance(value, type):
            values[i] = _deliver(value)
        else:
            raise TypeError(f"unsupported payload type {type(value)!r}")
    if isinstance(payload, dict):
        return dict(zip(payload, values))
    if isinstance(payload, (list, tuple)):
        return type(payload)(values)
    if fields is not None:
        return dataclasses.replace(payload, **dict(zip(fields, values)))
    return values[0]


class SimProcessGroup:
    """Simulated collective-communication group over ``world_size`` CP ranks,
    each one :func:`repro.perf.hardware.gtt_host` host.

    Args:
        world_size: number of CP ranks.
        tracer: :class:`repro.obs.trace.Tracer` receiving one span per
            collective (default: the null tracer). Assignable afterwards.
    """

    def __init__(self, world_size: int, *, tracer: Tracer = NULL_TRACER):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.tracer = tracer
        self._t = 0.0  # group-local clock: the running sum of traced durations

    # ------------------------------------------------------------------ #
    # bytes and spans
    # ------------------------------------------------------------------ #

    def payload_nbytes(self, payload: Any) -> int:
        """Logical wire bytes of one payload."""
        return payload_elements(payload) * _ELEMENT_BYTES

    def _trace(self, kind: str, nbytes: int, duration: float, *, step: int = -1, tag: str = "") -> None:
        """Emit one collective's span where the previous one ended."""
        self.tracer.span(kind, self._t, duration, pool="comm", step=step, bytes=nbytes, tag=tag)
        self._t += duration

    # ------------------------------------------------------------------ #
    # collectives (lockstep: list index == rank)
    # ------------------------------------------------------------------ #

    def _check_world(self, payloads: Sequence[Any]) -> None:
        if len(payloads) != self.world_size:
            raise ValueError(
                f"expected one payload per rank ({self.world_size}), got {len(payloads)}"
            )

    def ring_shift(self, payloads: Sequence[Any], *, step: int = -1, tag: str = "") -> list[Any]:
        """One ring SendRecv: rank ``k`` receives rank ``(k-1) % N``'s payload.

        Every rank sends and receives simultaneously (full-duplex links), so
        the step takes one SendRecv of the largest payload
        (:meth:`HostSpec.sendrecv_s`). Returns the received payloads: the
        senders' arrays, frozen.
        """
        self._check_world(payloads)
        if self.world_size == 1:
            return [_deliver(payloads[0])]
        if self.tracer.enabled:
            nbytes = max(self.payload_nbytes(p) for p in payloads)
            self._trace("sendrecv", nbytes, _HOST.sendrecv_s(nbytes), step=step, tag=tag)
        return [_deliver(payloads[(k - 1) % self.world_size]) for k in range(self.world_size)]

    def all_to_all(self, matrix: Sequence[Sequence[Any]], *, tag: str = "") -> list[list[Any]]:
        """All-to-all personalised exchange.

        ``matrix[src][dst]`` is the payload rank ``src`` sends to rank
        ``dst``; the return value ``out[dst][src]`` is that payload as
        received. Priced as the busiest rank's total egress
        (:meth:`HostSpec.all2all_s`), matching the paper's Appendix C
        formula ``(N-1) * (D+1) * T * e / BW``.
        """
        self._check_world(matrix)
        for row in matrix:
            if len(row) != self.world_size:
                raise ValueError("all_to_all matrix must be square in world_size")
        if self.world_size > 1 and self.tracer.enabled:
            egress = [
                sum(self.payload_nbytes(matrix[src][dst]) for dst in range(self.world_size) if dst != src)
                for src in range(self.world_size)
            ]
            nbytes = max(egress)
            self._trace("all2all", nbytes, _HOST.all2all_s(nbytes, self.world_size), tag=tag)
        return [
            [_deliver(matrix[src][dst]) for src in range(self.world_size)]
            for dst in range(self.world_size)
        ]

    def all_gather(self, payloads: Sequence[Any], *, tag: str = "") -> list[list[Any]]:
        """Every rank receives every rank's payload (ring all-gather cost).

        Returns ``out[k][s]`` = rank ``s``'s payload as seen by rank ``k``.
        Priced as ``(N-1)`` SendRecvs of the largest shard.
        """
        self._check_world(payloads)
        if self.world_size > 1 and self.tracer.enabled:
            shard = max(self.payload_nbytes(p) for p in payloads)
            hops = self.world_size - 1
            self._trace("allgather", shard * hops, hops * _HOST.sendrecv_s(shard), tag=tag)
        return [[_deliver(p) for p in payloads] for _ in range(self.world_size)]

    def all_reduce_sum(self, arrays: Sequence[np.ndarray], *, tag: str = "") -> list[np.ndarray]:
        """Sum-reduce an array across ranks (:meth:`HostSpec.allreduce_s`;
        each rank moves ``2(N-1)/N`` of the array)."""
        self._check_world(arrays)
        first = np.asarray(arrays[0])
        for a in arrays[1:]:
            if np.asarray(a).shape != first.shape:
                raise ValueError("all_reduce payloads must share a shape")
        total = np.sum([np.asarray(a, dtype=np.float64) for a in arrays], axis=0)
        if self.world_size > 1 and self.tracer.enabled:
            full = self.payload_nbytes(first)
            moved = 2 * (self.world_size - 1) * full // self.world_size
            self._trace("allreduce", moved, _HOST.allreduce_s(full, self.world_size), tag=tag)
        return [total.copy() for _ in range(self.world_size)]
