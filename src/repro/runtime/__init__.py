"""Continuous-batching serving runtime for the numeric CP engine(s).

This package turns the reproduction's layers into one live system
(paper §3.3/§4.3 made executable): the per-request state machine
(:mod:`repro.runtime.state`), simulated step-time pricing
(:mod:`repro.runtime.clock`), the prefill->decode KV channel
(:mod:`repro.runtime.transfer`), and the event loop itself
(:mod:`repro.runtime.runtime`) — chunked prefill fused across requests,
batched decode interleaving, admission control and capacity-pressure
preemption against the paged KV allocator, with three priced eviction
remedies (full evict + exact re-prefill, tail-trim + suffix re-prefill,
or CPU-side KV swap over PCIe), and optional shared-prefix KV reuse
through the radix prefix cache (:mod:`repro.kvcache.prefix_index`) with
refcounted copy-on-write paged blocks. One engine gives the colocated
deployment; a second engine turns
it into the disaggregated prefill/decode pools of §4.3, connected by a
priced, serialized KV-transfer stream. :class:`ServeConfig`
(:mod:`repro.runtime.config`) is the one way to build either shape, or
a fleet of them. A seeded fault plan
(:mod:`repro.runtime.faults`) makes every fallible component fail on
purpose — mid-stream transfer deaths, lost swap payloads, whole-pool KV
resets, deadlines and queue backpressure — with a degradation ladder
(retry with capped backoff -> recompute -> shed) keeping every run
draining. Decoded tokens of every *completed* request are identical to
replaying its conversation sequentially; only placement, (simulated)
timing, and — under faults — completion change.
"""

from repro.runtime.clock import SimulatedStepClock, UnitStepClock
from repro.runtime.config import ServeConfig
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.runtime import ContinuousBatchingRuntime, RuntimeReport, RuntimeWedged
from repro.runtime.state import RequestRecord, RequestState, TurnRequest
from repro.runtime.transfer import KVTransferStream, Transfer

__all__ = [
    "ContinuousBatchingRuntime",
    "FaultInjector",
    "FaultPlan",
    "KVTransferStream",
    "RequestRecord",
    "RequestState",
    "RuntimeReport",
    "RuntimeWedged",
    "ServeConfig",
    "SimulatedStepClock",
    "Transfer",
    "TurnRequest",
    "UnitStepClock",
]
