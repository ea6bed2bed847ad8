"""Lockstep simulated process group.

:class:`SimProcessGroup` plays the role of the NCCL process group in the
production system. All ranks live in one Python process and collectives are
*lockstep*: the caller holds one payload per rank in a list indexed by rank,
and each collective returns the post-communication list. This is equivalent
to an SPMD program synchronised at every collective — which is exactly the
structure of the paper's ring algorithms (one SendRecv per ring step).

Payloads are arbitrary nests of ``list`` / ``tuple`` / ``dict`` / dataclass
containing NumPy arrays. Byte accounting uses a configurable *logical*
element size (default 2 bytes, bf16) rather than the arrays' in-memory
float64, so traced traffic matches what the paper's wire format would carry;
a dataclass field declared with ``metadata={"wire": False}`` is host-side
bookkeeping and is not counted.

Tracing is the repository's one tracer (:mod:`repro.obs.trace`): with a
recorder attached, every collective emits one span named for its kind
(``sendrecv`` / ``all2all`` / ``allgather`` / ``allreduce``; attrs ``step``,
``bytes`` = the busiest rank's logical wire bytes, ``tag``) priced by the
alpha-beta model, laid end to end on a group-local clock — the simulated
counterpart of the GPU trace the paper inspects (§4.2.1, Table 5). With
none attached (the default, and every serving engine) a collective does no
byte walk and retains nothing.

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

from repro.distributed.topology import ClusterTopology, single_node_topology
from repro.obs.trace import NULL_TRACER, Tracer


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
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 1
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return sum(
            payload_elements(getattr(payload, f.name))
            for f in dataclasses.fields(payload)
            if f.metadata.get("wire", True)
        )
    raise TypeError(f"unsupported payload type {type(payload)!r}")


def _deliver(payload: Any) -> Any:
    """The receiver's side of a sent payload: fresh containers around the
    sender's arrays, which are frozen so neither side can write them."""
    if isinstance(payload, np.ndarray):
        payload.flags.writeable = False
        return payload
    if isinstance(payload, (list, tuple)):
        return type(payload)(_deliver(p) for p in payload)
    if isinstance(payload, dict):
        return {key: _deliver(value) for key, value in payload.items()}
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return dataclasses.replace(
            payload,
            **{f.name: _deliver(getattr(payload, f.name)) for f in dataclasses.fields(payload)},
        )
    return payload  # None and scalars are immutable


class SimProcessGroup:
    """Simulated collective-communication group over ``world_size`` CP ranks.

    Args:
        world_size: number of CP ranks.
        topology: cluster wiring; defaults to a single-node ring, which keeps
            unit tests hardware-agnostic.
        tracer: :class:`repro.obs.trace.Tracer` receiving one span per
            collective (default: the null tracer). Assignable afterwards.
        wire_bytes_per_element: logical bytes per tensor element on the wire
            (paper notation ``e``; 2 for bf16, 1 for fp8).
    """

    def __init__(
        self,
        world_size: int,
        *,
        topology: ClusterTopology | None = None,
        tracer: Tracer = NULL_TRACER,
        wire_bytes_per_element: int = 2,
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if topology is not None and topology.world_size != world_size:
            raise ValueError(
                f"topology has {topology.world_size} nodes but world_size={world_size}"
            )
        if wire_bytes_per_element <= 0:
            raise ValueError("wire_bytes_per_element must be positive")
        self.world_size = world_size
        self.topology = topology if topology is not None else single_node_topology().with_nodes(1)
        if topology is None and world_size > 1:
            # Default multi-rank wiring: treat each rank as its own node on
            # a generic high-bandwidth fabric.
            self.topology = ClusterTopology(
                name=f"sim-{world_size}n",
                num_nodes=world_size,
                gpus_per_node=8,
                internode_bandwidth=0.75 * 50e9,
                intranode_bandwidth=450e9,
            )
        self.tracer = tracer
        self._t = 0.0  # group-local clock: the running sum of traced durations
        self.wire_bytes_per_element = wire_bytes_per_element

    # ------------------------------------------------------------------ #
    # byte/time model
    # ------------------------------------------------------------------ #

    def payload_nbytes(self, payload: Any) -> int:
        """Logical wire bytes of one payload."""
        return payload_elements(payload) * self.wire_bytes_per_element

    def _xfer_time(self, nbytes: int) -> float:
        """Alpha-beta time for one point-to-point CP-rank message."""
        topo = self.topology
        return topo.cp_link_latency + nbytes / topo.cp_link_bandwidth

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
        the simulated duration of the step is the max single-message time.
        Returns the received payloads: the senders' arrays, frozen.
        """
        self._check_world(payloads)
        if self.world_size == 1:
            return [_deliver(payloads[0])]
        if self.tracer.enabled:
            nbytes = max(self.payload_nbytes(p) for p in payloads)
            self._trace("sendrecv", nbytes, self._xfer_time(nbytes), step=step, tag=tag)
        return [_deliver(payloads[(k - 1) % self.world_size]) for k in range(self.world_size)]

    def all_to_all(self, matrix: Sequence[Sequence[Any]], *, tag: str = "") -> list[list[Any]]:
        """All-to-all personalised exchange.

        ``matrix[src][dst]`` is the payload rank ``src`` sends to rank
        ``dst``; the return value ``out[dst][src]`` is that payload as
        received. Duration is modelled as the busiest rank's total egress
        over its single NIC, matching the paper's Appendix C formula
        ``(N-1) * (D+1) * T * e / BW``.
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
            duration = (
                self.topology.cp_link_latency * (self.world_size - 1)
                + nbytes / self.topology.cp_link_bandwidth
            )
            self._trace("all2all", nbytes, duration, tag=tag)
        return [
            [_deliver(matrix[src][dst]) for src in range(self.world_size)]
            for dst in range(self.world_size)
        ]

    def all_gather(self, payloads: Sequence[Any], *, tag: str = "") -> list[list[Any]]:
        """Every rank receives every rank's payload (ring all-gather cost).

        Returns ``out[k][s]`` = rank ``s``'s payload as seen by rank ``k``.
        Cost model: ``(N-1)`` ring steps each moving the largest shard.
        """
        self._check_world(payloads)
        if self.world_size > 1 and self.tracer.enabled:
            shard = max(self.payload_nbytes(p) for p in payloads)
            hops = self.world_size - 1
            self._trace("allgather", shard * hops, hops * self._xfer_time(shard), tag=tag)
        return [[_deliver(p) for p in payloads] for _ in range(self.world_size)]

    def all_reduce_sum(self, arrays: Sequence[np.ndarray], *, tag: str = "") -> list[np.ndarray]:
        """Sum-reduce an array across ranks (ring AllReduce cost: 2(N-1)/N)."""
        self._check_world(arrays)
        first = np.asarray(arrays[0])
        for a in arrays[1:]:
            if np.asarray(a).shape != first.shape:
                raise ValueError("all_reduce payloads must share a shape")
        total = np.sum([np.asarray(a, dtype=np.float64) for a in arrays], axis=0)
        if self.world_size > 1 and self.tracer.enabled:
            full = self.payload_nbytes(first)
            hops = 2 * (self.world_size - 1)
            self._trace(
                "allreduce",
                hops * full // self.world_size,
                hops * self._xfer_time(full // self.world_size),
                tag=tag,
            )
        return [total.copy() for _ in range(self.world_size)]
