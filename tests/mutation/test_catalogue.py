"""Seeded-mutant catalogue: every invariant the runtime leans on must
have teeth.

Each entry seeds one plausible bug by monkeypatch and runs only the
golden trace case or named test that kills it: the digest must move, or
the test must fail. A mutant that survives fails tier-1 and names a hole
in the tests that guard that code. Add an entry with the cheapest killer
(the golden cases run in ~0.1-0.4 s each; keep the whole file within a
few seconds).

Entries so far cover the remedy seam in ``runtime/runtime.py``: the one
victim loop (``_make_room``), the two bounds on a victim (``_find_victim``:
younger than the beneficiary, never the oldest live request) and the
remedy ladder (``_rungs``, then full eviction); and the rings' shard skip
(``ring_skip.partial_fully_masked``), which alone decides which ring-step
partials are replaced by the merge identity.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.core import ring_decode, ring_passkv, ring_passq
from repro.obs import dumps_jsonl
from repro.runtime.runtime import ContinuousBatchingRuntime as Runtime

from helpers import run_traced

TESTS = Path(__file__).resolve().parents[1]


@functools.cache
def _test_module(relpath: str):
    """Load a test module by path under a private name (pytest collects
    the real one itself)."""
    path = TESTS / relpath
    spec = importlib.util.spec_from_file_location(f"_catalogue_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------- #
# mutants
# ---------------------------------------------------------------------- #


def _make_room_evicts_once(monkeypatch):
    """The victim loop evicts one victim and reports success without
    probing ``fits`` again."""

    def make_room(self, role, fits, *, protected, younger_than, reason):
        if fits():
            return True
        victim = self._find_victim(role=role, protected=protected, younger_than=younger_than)
        if victim is None:
            return False
        self._evict(*victim, role=role, at=self._pools[role].t, reason=reason)
        return True

    monkeypatch.setattr(Runtime, "_make_room", make_room)


def _younger_than_ignored(monkeypatch):
    """Every caller's FCFS bound is dropped (only the oldest-live default
    is left), so a round may evict requests older than its own members."""
    find_victim = Runtime._find_victim

    def ignoring(self, *, role, protected, younger_than):
        return find_victim(self, role=role, protected=protected, younger_than=None)

    monkeypatch.setattr(Runtime, "_find_victim", ignoring)


def _oldest_live_evictable(monkeypatch):
    """A victim search with no bound (the decode fit's) may take the
    oldest live request."""
    find_victim = Runtime._find_victim
    unbounded = (float("-inf"), -1)

    def anyone(self, *, role, protected, younger_than):
        bound = unbounded if younger_than is None else younger_than
        return find_victim(self, role=role, protected=protected, younger_than=bound)

    monkeypatch.setattr(Runtime, "_find_victim", anyone)


def _trim_ignores_adopted_prefix(monkeypatch):
    """The trim rung cuts into a victim's adopted shared prefix."""
    trim = Runtime._trim

    def unguarded(self, seq_id, rec, **kw):
        if rec is None:
            return trim(self, seq_id, rec, **kw)
        shared, rec.prefix_shared = rec.prefix_shared, 0
        try:
            return trim(self, seq_id, rec, **kw)
        finally:
            rec.prefix_shared = shared

    monkeypatch.setattr(Runtime, "_trim", unguarded)


def _swap_ignores_store_budget(monkeypatch):
    """The swap rung exports a victim however full the host store is."""
    swap_out = Runtime._swap_out

    def unbounded(self, *args, **kw):
        budget, self.swap_capacity_tokens = self.swap_capacity_tokens, None
        try:
            return swap_out(self, *args, **kw)
        finally:
            self.swap_capacity_tokens = budget

    monkeypatch.setattr(Runtime, "_swap_out", unbounded)


def _full_eviction_before_rung(monkeypatch):
    """Full eviction is tried first. It always applies, so the configured
    rung is never reached: the ladder behaves as if it had no rungs."""
    init = Runtime.__init__

    def reordered(self, *args, **kw):
        init(self, *args, **kw)
        self._rungs = ()

    monkeypatch.setattr(Runtime, "__init__", reordered)


def _ring_skip_off_by_one(monkeypatch):
    """The shard skip compares ``<`` for ``<=``: a shard whose first key
    sits at a query's own position counts as masked, so the diagonal
    partial is replaced by the identity."""

    def strict(q_reach, k_reach):
        return not any(sid in k_reach and k_reach[sid] < q_max for sid, q_max in q_reach.items())

    for ring in (ring_passkv, ring_passq, ring_decode):
        monkeypatch.setattr(ring, "partial_fully_masked", strict)


# ---------------------------------------------------------------------- #
# killers
# ---------------------------------------------------------------------- #


def _golden_case(name: str) -> None:
    """Fails when the named golden case's trace digest moves (or the run
    raises on the way)."""
    golden = _test_module("runtime/test_golden_traces.py")
    tracer = run_traced(golden.CASES[name])[0]
    digest = hashlib.sha256(dumps_jsonl(tracer.events).encode()).hexdigest()
    assert digest == golden.GOLDEN[name], f"golden case {name} moved"


@functools.cache
def _instance(cls: type):
    """One instance per test class: hypothesis fails a ``@given`` method
    called from two instances (``differing_executors``), which would pass
    for a kill."""
    return cls()


def _named_test(nodeid: str, *params) -> None:
    """Runs one fixture-free test, ``path::Class::method`` or
    ``path::function``, in-process; ``params`` pick a parametrized case."""
    relpath, *names = nodeid.split("::")
    target = _test_module(relpath)
    for i, name in enumerate(names):
        target = getattr(target, name)
        if i < len(names) - 1 and isinstance(target, type):
            target = _instance(target)
    target(*params)


CATALOGUE = [
    ("make-room-evicts-once", _make_room_evicts_once,
     functools.partial(_golden_case, "coloc-recompute-prefix-clean")),
    ("younger-than-ignored", _younger_than_ignored,
     functools.partial(_golden_case, "coloc-swap-noprefix-clean")),
    ("oldest-live-evictable", _oldest_live_evictable,
     functools.partial(_named_test, "runtime/test_runtime.py"
                       "::test_sole_decoder_that_cannot_grow_raises_instead_of_livelocking",
                       "swap")),
    ("trim-ignores-adopted-prefix", _trim_ignores_adopted_prefix,
     functools.partial(_golden_case, "disagg-trim-prefix-clean-srpf")),
    ("swap-ignores-store-budget", _swap_ignores_store_budget,
     functools.partial(_named_test, "runtime/test_runtime.py::TestPreemptionModes"
                       "::test_swap_store_capacity_falls_back_to_full_evict")),
    ("full-eviction-before-rung", _full_eviction_before_rung,
     functools.partial(_named_test, "runtime/test_runtime.py::TestPreemptionModes"
                       "::test_trim_keeps_prefix_resident")),
    ("ring-skip-off-by-one", _ring_skip_off_by_one,
     functools.partial(_named_test, "properties/test_prop_ring.py::TestRingLosslessness"
                       "::test_passkv_exact_for_any_case")),
]


@pytest.mark.parametrize(
    ("mutant", "killer"), [entry[1:] for entry in CATALOGUE], ids=[entry[0] for entry in CATALOGUE]
)
def test_seeded_mutant_is_killed(monkeypatch, mutant, killer):
    killer()  # passes on the real code, so a broken killer cannot "kill"
    mutant(monkeypatch)
    with pytest.raises(Exception):  # an assertion, or the run itself breaking
        killer()
