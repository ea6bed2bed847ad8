"""One way to build a serving deployment: :class:`ServeConfig`.

A deployment is engines (one pool colocated, two disaggregated; numeric
or shape-only, as the model handed to :meth:`ServeConfig.build` decides),
a chunked-prefill policy, a step clock and the runtime over them — or N
independent such runtimes behind a router. ``ServeConfig`` holds the
plain values that pick those pieces; :meth:`ServeConfig.build` wires them
through the constructors, which stay the one code path and keep
validating what they own (engine: world size and capacity; policy: chunk,
round budget and sequence cap; :class:`~repro.runtime.faults.FaultPlan`:
rates; runtime: preemption and swap capacity; fleet: the replica count).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.shape_engine import build_engine
from repro.obs.trace import NULL_TRACER
from repro.runtime.clock import SimulatedStepClock, UnitStepClock
from repro.runtime.faults import FaultPlan
from repro.runtime.runtime import ContinuousBatchingRuntime
from repro.serving.scheduler import ChunkedPrefillPolicy


@dataclass(frozen=True)
class ServeConfig:
    """The values that pick a deployment.

    Attributes:
        world: CP size of the prefill pool (the only pool when colocated).
        decode_world: CP size of a dedicated decode pool; ``None`` serves
            colocated. Setting it also prices decode at single-host TP
            TTIT (§4.3), the one thing a dedicated decode host changes.
        capacity: per-rank KV tokens of the prefill pool (``None`` =
            unbounded).
        decode_capacity: per-rank KV tokens of the decode pool (``None`` =
            ``capacity``); only with ``decode_world``.
        chunk / round_budget / max_seqs: chunked-prefill packing
            (:class:`~repro.serving.scheduler.ChunkedPrefillPolicy`).
        preemption / swap_capacity / prefix_cache / faults / sanitize:
            the runtime options of the same names
            (``swap_capacity`` is ``swap_capacity_tokens``).
        replicas: ``> 1`` builds a :class:`~repro.cluster.ReplicaFleet`.
        routing: the fleet's router (:func:`~repro.cluster.make_router`).
        priced_ranks: CP size the simulated clock prices.
    """

    world: int = 2
    decode_world: int | None = None
    capacity: int | None = None
    decode_capacity: int | None = None
    chunk: int = 16
    round_budget: int = 32
    max_seqs: int = 4
    preemption: str = "recompute"
    swap_capacity: int | None = None
    prefix_cache: bool = False
    faults: FaultPlan | None = None
    sanitize: bool = False
    replicas: int = 1
    routing: str = "prefix"
    priced_ranks: int = 4

    def __post_init__(self):
        if self.decode_capacity is not None and self.decode_world is None:
            raise ValueError(
                "a decode-pool capacity needs a disaggregated deployment "
                "(a separate decode pool)"
            )

    def build(self, model, *, sim=None, tracer=None):
        """A fresh runtime, or a fleet of fresh runtimes when ``replicas > 1``.

        ``model`` picks the engines (:func:`~repro.core.shape_engine.build_engine`):
        a :class:`~repro.model.llama.LlamaModel` runs the numeric engine, a
        :class:`~repro.core.shape_engine.ShapeModel` the shape-only one.
        Replicas share what is read-only or shared on purpose: ``model``
        weights, ``sim`` (a :class:`~repro.perf.latency.LatencySimulator`;
        ``None`` prices every round with :class:`UnitStepClock`) and
        ``tracer``, through which replica *i* records as
        ``tracer.scoped(replica=i)``. Engines, policy and clock are built
        per runtime. A lone runtime records through ``tracer`` itself.
        """
        if self.replicas == 1:
            return self._runtime(model, sim, tracer if tracer is not None else NULL_TRACER)
        return self.build_fleet(model, sim=sim, tracer=tracer)

    def build_fleet(self, model, *, sim=None, tracer=None):
        """:meth:`build` as a :class:`~repro.cluster.ReplicaFleet` always,
        a fleet of one included — for callers that read fleet rollups at
        every replica count."""
        tracer = tracer if tracer is not None else NULL_TRACER
        # repro.cluster imports the runtime module: import it at call time
        from repro.cluster import ReplicaFleet, make_router

        return ReplicaFleet.build(
            lambda i: self._runtime(model, sim, tracer.scoped(replica=i)),
            self.replicas,
            router=make_router(self.routing),
            tracer=tracer,
        )

    def _runtime(self, model, sim, tracer) -> ContinuousBatchingRuntime:
        engine = build_engine(model, self.world, capacity_tokens=self.capacity)
        decode_engine = None
        if self.decode_world is not None:
            decode_capacity = (
                self.decode_capacity if self.decode_capacity is not None else self.capacity
            )
            decode_engine = build_engine(model, self.decode_world, capacity_tokens=decode_capacity)
        clock = (
            UnitStepClock()
            if sim is None
            else SimulatedStepClock(
                sim, n_ranks=self.priced_ranks, tp_decode=self.decode_world is not None
            )
        )
        return ContinuousBatchingRuntime(
            engine,
            decode_engine=decode_engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=self.chunk,
                max_tokens_per_round=self.round_budget,
                max_seqs_per_round=self.max_seqs,
            ),
            clock=clock,
            preemption=self.preemption,
            swap_capacity_tokens=self.swap_capacity,
            prefix_cache=self.prefix_cache,
            faults=self.faults,
            sanitize=self.sanitize,
            tracer=tracer,
        )
