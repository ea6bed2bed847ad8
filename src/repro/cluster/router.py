"""Routing policies for the multi-replica fleet.

A router answers one question: *which replica serves this new
conversation?* Every policy here is deterministic — same construction,
same submission order, same replica states ⇒ the same placements — so a
routed run is as replayable as a single-runtime one, and the fleet's
serving-exactness property can quantify over policies the way the
runtime's quantifies over remedies.

Policies (CLI names in parentheses):

- :class:`RoundRobinRouter` (``round-robin``): cycle over the
  replicas in id order. The classic load-spreading baseline — and the
  baseline prefix-affinity routing must beat on warm TTFT and hit rate
  for shared-prefix traffic (the cluster-routing experiment's claim).
- :class:`PrefixAffinityRouter` (``prefix``): the SGLang
  cache-aware-routing / Mooncake global-scheduler design. Each replica
  is scored by how much of the conversation's first prompt its radix
  prefix index already holds, discounted by load and queue depth::

      score(r) = matched(r)
                 - LOAD_WEIGHT  * (queued_tokens(r) + busy_time(r))
                 - QUEUE_WEIGHT * queue_depth(r)

  ``matched(r)`` is the longer of (a) the replica's *live* radix-index
  match (:meth:`ContinuousBatchingRuntime.prefix_match_len`) and (b) the
  router's own *shadow* estimate — a per-replica
  :class:`repro.kvcache.prefix_index.PrefixIndex` over the prompts it
  already placed there. The shadow is what makes affinity work for
  traffic submitted before any replica has run a round (the common
  simulated case) and mirrors how production routers approximate remote
  cache state instead of querying it synchronously. ``queued_tokens``
  (prefill tokens) and ``busy_time`` (simulated busy seconds) are summed
  as abstract work units: all replicas share one clock model, so the
  comparison is fair even though the units differ.

Tie-break, pinned by ``tests/cluster/test_router.py``: every policy
resolves equal choices toward the **lowest replica id** (round-robin's
"tie" is its cursor start, which begins at id order).
"""

from __future__ import annotations

import numpy as np

from repro.kvcache.prefix_index import PrefixIndex

#: CLI / config names of the built-in policies.
ROUTING_POLICIES = ("prefix", "round-robin")

#: Tokens of prefix match a unit of load (queued prefill tokens + simulated
#: busy seconds) cancels in :class:`PrefixAffinityRouter`'s score.
LOAD_WEIGHT = 0.25
#: Tokens of prefix match one queued request cancels: queue depth is the
#: coarser, faster-moving congestion signal, so it is weighted harder.
QUEUE_WEIGHT = 4.0


class Router:
    """Interface a fleet routing policy implements.

    ``placed`` is the notification hook the fleet calls with the winner
    so stateful policies (shadow indexes, cursors) can update.
    """

    name: str = "base"

    def place(self, tokens: np.ndarray, replicas: list) -> object:
        """Pick one of ``replicas`` for a conversation opening with
        ``tokens``. Must be deterministic in (tokens, replica states)."""
        raise NotImplementedError

    def placed(self, replica, tokens: np.ndarray) -> None:
        """Record that the fleet placed ``tokens`` on ``replica``."""

    def scores(self, tokens: np.ndarray, replicas: list) -> dict:
        """Per-replica placement scores for the trace's ``route`` events
        (empty when the policy is not score-based). Must be side-effect
        free: the fleet only calls this when a tracer is recording, so
        a scored placement and an unscored one must behave identically."""
        return {}


class RoundRobinRouter(Router):
    """Cycle over eligible replicas in id order, ignoring all state."""

    name = "round-robin"

    def __init__(self):
        self._cursor = 0

    def place(self, tokens, replicas):
        choice = replicas[self._cursor % len(replicas)]
        self._cursor += 1
        return choice


class PrefixAffinityRouter(Router):
    """Score replicas by prefix-cache affinity, balanced against load
    (:data:`LOAD_WEIGHT`, :data:`QUEUE_WEIGHT`)."""

    name = "prefix"

    def __init__(self):
        self._shadow: dict[int, PrefixIndex] = {}
        self._inserts = 0

    def match_len(self, replica, tokens) -> int:
        """Best-known resident prefix length of ``tokens`` on ``replica``
        (max of the live radix index and the router's shadow)."""
        live = replica.match_len(tokens)
        shadow = self._shadow.get(replica.id)
        if shadow is None:
            return live
        return max(live, shadow.match(tokens)[0])

    def score(self, replica, tokens) -> float:
        """The documented affinity-minus-load score (higher is better)."""
        return (
            self.match_len(replica, tokens)
            - LOAD_WEIGHT * (replica.queued_tokens() + replica.busy_time())
            - QUEUE_WEIGHT * replica.queue_depth()
        )

    def place(self, tokens, replicas):
        # max score; ties toward the lowest replica id
        return max(replicas, key=lambda r: (self.score(r, tokens), -r.id))

    def scores(self, tokens, replicas):
        return {r.id: self.score(r, tokens) for r in replicas}

    def placed(self, replica, tokens) -> None:
        shadow = self._shadow.setdefault(replica.id, PrefixIndex())
        # each placement anchors under a fresh synthetic id: the shadow
        # only ever answers "how many of these tokens has this replica
        # seen", so holders never need to track eviction
        self._inserts += 1
        shadow.insert(self._inserts, np.asarray(tokens, dtype=np.int64))


def make_router(policy: str) -> Router:
    """Build a router from its CLI name (see :data:`ROUTING_POLICIES`)."""
    if policy == "prefix":
        return PrefixAffinityRouter()
    if policy == "round-robin":
        return RoundRobinRouter()
    raise ValueError(
        f"unknown routing policy {policy!r}; expected one of {ROUTING_POLICIES}"
    )
