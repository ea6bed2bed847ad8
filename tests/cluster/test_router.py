"""Unit tests for the fleet routing policies.

Routers are exercised against stub replicas (the scheduler-facing view
is five methods and an id), which pins the exact decision rules — score
arithmetic, tie-breaks, cursor behaviour, shadow-index bookkeeping —
without spinning up engines.
"""

import numpy as np
import pytest

from repro.cluster.router import (
    ROUTING_POLICIES,
    PrefixAffinityRouter,
    Router,
    RoundRobinRouter,
    make_router,
)


class StubReplica:
    """A replica as a router sees it: static load views plus a fake
    live-index match table."""

    def __init__(self, replica_id, *, queued=0, busy=0.0, depth=0, live_match=None):
        self.id = replica_id
        self._queued = queued
        self._busy = busy
        self._depth = depth
        self._live_match = live_match or {}

    def queued_tokens(self):
        return self._queued

    def busy_time(self):
        return self._busy

    def queue_depth(self):
        return self._depth

    def match_len(self, tokens):
        return self._live_match.get(tuple(int(t) for t in tokens), 0)


def toks(*values):
    return np.asarray(values, dtype=np.int64)


class TestMakeRouter:
    def test_builds_every_documented_policy(self):
        names = {make_router(p).name for p in ROUTING_POLICIES}
        assert names == set(ROUTING_POLICIES)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_router("random")

    def test_base_router_place_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Router().place(toks(1), [StubReplica(0)])


class TestRoundRobin:
    def test_cycles_in_id_order(self):
        router = RoundRobinRouter()
        replicas = [StubReplica(i) for i in range(3)]
        picks = [router.place(toks(1), replicas).id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_cursor_survives_eligibility_changes(self):
        """The cursor indexes the *eligible list it is handed*, so a
        drained replica shrinks the cycle without resetting it."""
        router = RoundRobinRouter()
        replicas = [StubReplica(i) for i in range(3)]
        assert router.place(toks(1), replicas).id == 0
        assert router.place(toks(1), replicas[1:]).id == 2  # cursor 1 of [1, 2]
        assert router.place(toks(1), replicas).id == 2

    def test_ignores_all_replica_state(self):
        router = RoundRobinRouter()
        loaded = StubReplica(0, queued=10_000, depth=50)
        idle = StubReplica(1)
        assert router.place(toks(1), [loaded, idle]).id == 0


class TestPrefixAffinity:
    def test_idle_tie_breaks_to_lowest_id(self):
        router = PrefixAffinityRouter()
        replicas = [StubReplica(2), StubReplica(0), StubReplica(1)]
        assert router.place(toks(1, 2, 3), replicas).id == 0

    def test_placements_attract_matching_prefixes(self):
        """After a placement, the shadow index pulls same-prefix traffic
        to the same replica even though no replica has run a round."""
        router = PrefixAffinityRouter()
        replicas = [StubReplica(0), StubReplica(1)]
        prefix = list(range(32))
        first = router.place(toks(*prefix), replicas)
        router.placed(first, toks(*prefix))
        again = router.place(toks(*(prefix + [99, 98])), replicas)
        assert again.id == first.id

    def test_live_index_match_counts_without_shadow(self):
        router = PrefixAffinityRouter()
        warm = StubReplica(1, live_match={(5, 6, 7): 3})
        cold = StubReplica(0)
        assert router.place(toks(5, 6, 7), [cold, warm]).id == 1

    def test_match_len_takes_max_of_live_and_shadow(self):
        router = PrefixAffinityRouter()
        replica = StubReplica(0, live_match={(1, 2, 3, 4): 2})
        router.placed(replica, toks(1, 2, 3, 4))
        assert router.match_len(replica, toks(1, 2, 3, 4)) == 4

    def test_load_discount_beats_affinity(self):
        """score = match - LOAD_WEIGHT*(queued+busy) - QUEUE_WEIGHT*depth
        (0.25 and 4.0): enough queued work on the warm replica routes past
        the cache."""
        router = PrefixAffinityRouter()
        prefix = list(range(16))
        warm = StubReplica(0, queued=200)  # 16 - 0.25*200 = -34
        cold = StubReplica(1)              # 0
        router.placed(warm, toks(*prefix))
        assert router.place(toks(*prefix), [warm, cold]).id == 1
        assert router.score(warm, toks(*prefix)) == pytest.approx(16 - 50.0)
        assert router.score(cold, toks(*prefix)) == pytest.approx(0.0)

    def test_queue_depth_weighted_harder_than_tokens(self):
        router = PrefixAffinityRouter()
        deep = StubReplica(0, depth=3)
        assert router.score(deep, toks(1)) == pytest.approx(-12.0)


class TestPlacementDeterminism:
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_same_trace_same_placements(self, policy):
        """Re-running any policy over the same prompt trace and replica
        states reproduces the identical placement sequence."""
        rng = np.random.default_rng(7)
        trace = [rng.integers(0, 50, size=rng.integers(4, 24)) for _ in range(20)]

        def placements():
            router = make_router(policy)
            replicas = [
                StubReplica(0, queued=12, busy=1.0),
                StubReplica(1),
                StubReplica(2, depth=1),
            ]
            picks = []
            for prompt in trace:
                choice = router.place(prompt, replicas)
                router.placed(choice, prompt)
                picks.append(choice.id)
            return picks

        assert placements() == placements()
