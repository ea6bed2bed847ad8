"""Arm the KV shadow-state sanitizer for every property suite.

Every :class:`PagedAllocator` built while these suites run gets an
:class:`AllocatorSanitizer` attached at construction, and every
:class:`ContinuousBatchingRuntime` defaults to ``sanitize=True`` — so the
hypothesis machines exercise the sanitizer's shadow model against the
full randomized schedule space for free: any operation the shadow cannot
explain fails the property at that operation with an op trace, not at the
end-of-run audit. The same patch point checks the runtime's memoised
``queued_tokens()`` against a recount on every read.

Session-scoped (with an explicit ``pytest.MonkeyPatch``) rather than a
function-scoped autouse fixture: hypothesis's
``function_scoped_fixture`` health check forbids per-example fixture
state, and the patch is stateless anyway.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import AllocatorSanitizer
from repro.kvcache.paged import PagedAllocator
from repro.runtime.runtime import ContinuousBatchingRuntime


@pytest.fixture(scope="session", autouse=True)
def _sanitize_everything():
    mp = pytest.MonkeyPatch()

    orig_post_init = PagedAllocator.__post_init__

    def sanitized_post_init(self):
        orig_post_init(self)
        AllocatorSanitizer(self)

    mp.setattr(PagedAllocator, "__post_init__", sanitized_post_init)

    orig_init = ContinuousBatchingRuntime.__init__

    def sanitized_init(self, *args, **kwargs):
        kwargs.setdefault("sanitize", True)
        orig_init(self, *args, **kwargs)

    mp.setattr(ContinuousBatchingRuntime, "__init__", sanitized_init)

    # the router's O(1) load probe is a memo: every read, under every
    # schedule these suites generate, must equal a fresh count
    memoised = ContinuousBatchingRuntime.queued_tokens

    def checked_queued_tokens(self):
        cached = memoised(self)
        self._queued_tokens = None  # forget it: the next read recounts
        assert cached == memoised(self), "stale queued_tokens memo"
        return cached

    mp.setattr(ContinuousBatchingRuntime, "queued_tokens", checked_queued_tokens)
    yield
    mp.undo()
