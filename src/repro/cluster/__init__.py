"""Cluster tier: a multi-replica fleet behind prefix-affinity routing.

:class:`ReplicaFleet` runs N independent continuous-batching runtimes;
a :class:`Router` (:class:`PrefixAffinityRouter` by default, SGLang
cache-aware-routing / Mooncake global-scheduler shaped) places each new
conversation, with session stickiness for follow-up turns. Serving
exactness extends across the fleet: routing changes placement and
timing, never token values.
"""

from repro.cluster.fleet import FleetReport, Replica, ReplicaFleet
from repro.cluster.router import (
    ROUTING_POLICIES,
    PrefixAffinityRouter,
    RoundRobinRouter,
    Router,
    make_router,
)

__all__ = [
    "FleetReport",
    "Replica",
    "ReplicaFleet",
    "Router",
    "RoundRobinRouter",
    "PrefixAffinityRouter",
    "ROUTING_POLICIES",
    "make_router",
]
