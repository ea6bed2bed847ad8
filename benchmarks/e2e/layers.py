"""Span wrappers around the public functions of each ``src/repro`` layer.

The program is measured *from outside*: :func:`installed` patches timing
wrappers over the functions listed in :data:`TARGETS` for the duration of
one traced repetition and restores the originals afterwards. Class methods
are patched on the class; module-level functions that other modules import
by name (``from repro.attention.flash import flash_attention``) are rebound
in every loaded ``repro.*`` module that holds the original object.

Each call records one in-memory span ``[name, start, end, parent]`` and,
at the same boundary, its work counts (tokens, payload bytes, MFLOP —
*computed from argument shapes*, not measured). A span's self time is its
duration minus the part its child spans cover, so per-name self times plus
the root's self time add up to the repetition's wall exactly.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator

ROOT = "host.rep"


class SpanRecorder:
    """In-memory spans and counts of one traced repetition."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        # set while a count hook runs, so the program calls a hook makes
        # (the router's match_len probe) record no spans of their own
        self._muted = [False]

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        muted = self._muted

        def wrapper(*args, **kwargs):
            if muted[0]:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                muted[0] = True
                try:
                    count(counts, args, result)
                finally:
                    muted[0] = False
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """The repetition itself: parent of every top-level layer span."""
        span = [ROOT, 0.0, 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "self_s", "total_s"}}``; ``total_s`` counts a
        span only when no ancestor has the same name (no double counting)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row["total_s"] += end - start
        return dict(out)

    def write_chrome(self, path: str, *, workload: str) -> None:
        """Chrome-trace JSON (open in https://ui.perfetto.dev)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": i, "parent": parent, "workload": workload},
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# ---------------------------------------------------------------------- #
# counts taken at the span boundary: (counts, call args, call result)
# ---------------------------------------------------------------------- #


def _count_flash(counts, args, result) -> None:
    q, k = args[0], args[1]
    tq, nh, dh = q.shape
    # QK^T and PV, 2 flop per multiply-add, before any mask skipping:
    # computed from the argument shapes, not measured
    counts["attention.flash.mflop"] += 4.0 * tq * k.shape[0] * nh * dh / 1e6
    counts["attention.flash.q_rows"] += tq


def _count_prefill(counts, args, result) -> None:
    counts["core.engine.prefill.tokens"] += sum(len(ids) for ids in args[1].values())
    counts[f"core.algo.{result.plan.algo.value.replace('-', '')}_prefills"] += 1


def _count_decode(counts, args, result) -> None:
    counts["core.engine.decode.batch"] += len(args[1])


def _count_payload(counts, args, result) -> None:
    group, payloads = args[0], args[1]
    counts["distributed.pg.payload_mb"] += group.payload_nbytes(payloads) / 1e6


def _count_place(counts, args, result) -> None:
    # fleet.submit calls router.placed() only after place() returns, so the
    # chosen replica's match length here is what it held *before* this request
    router, tokens = args[0], args[1]
    counts["cluster.route.placed"] += 1
    if router.match_len(result, tokens) > 0:
        counts["cluster.route.affinity"] += 1


#: (span name, module, class or None, attributes, count hook)
TARGETS: list[tuple[str, str, str | None, tuple[str, ...], Callable | None]] = [
    ("attention.flash", "repro.attention.flash", None, ("flash_attention",), _count_flash),
    ("core.ring_passkv", "repro.core.ring_passkv", None, ("ring_passkv_prefill",), None),
    ("core.ring_passq", "repro.core.ring_passq", None, ("ring_passq_prefill",), None),
    ("core.ring_decode", "repro.core.ring_decode", None, ("ring_passq_decode",), None),
    ("core.engine.prefill", "repro.core.engine", "ContextParallelEngine", ("prefill",), _count_prefill),
    ("core.engine.decode", "repro.core.engine", "ContextParallelEngine", ("decode",), _count_decode),
    (
        "core.engine.kv_move", "repro.core.engine", "ContextParallelEngine",
        ("export_kv", "import_kv", "adopt_prefix", "evict", "evict_tail"), None,
    ),
    (
        "distributed.pg", "repro.distributed.process_group", "SimProcessGroup",
        ("ring_shift", "all_to_all", "all_gather", "all_reduce_sum"), _count_payload,
    ),
    ("kvcache.cache.get", "repro.kvcache.cache", "RankKVCache", ("get",), None),
    (
        "kvcache.cache.write", "repro.kvcache.cache", "RankKVCache",
        ("append", "share_prefix", "drop_tail", "drop"), None,
    ),
    (
        "kvcache.paged", "repro.kvcache.paged", "PagedAllocator",
        ("append", "share", "fits", "release", "release_tail"), None,
    ),
    (
        "kvcache.prefix_index", "repro.kvcache.prefix_index", "PrefixIndex",
        ("insert", "trim", "remove", "match"), None,
    ),
    (
        "model.dense", "repro.model.llama", "LlamaModel",
        ("embed", "attn_qkv", "attn_residual", "ffn_residual", "unembed"), None,
    ),
    ("runtime.step", "repro.runtime.runtime", "ContinuousBatchingRuntime", ("step",), None),
    ("runtime.submit", "repro.runtime.runtime", "ContinuousBatchingRuntime", ("submit",), None),
    ("serving.policy", "repro.serving.scheduler", "ChunkedPrefillPolicy", ("build_round",), None),
    (
        "perf.price", "repro.runtime.clock", "SimulatedStepClock",
        ("price_prefill", "price_decode", "price_transfer", "price_swap"), None,
    ),
    ("cluster.submit", "repro.cluster.fleet", "ReplicaFleet", ("submit_script",), None),
    ("cluster.step", "repro.cluster.fleet", "ReplicaFleet", ("step",), None),
    ("cluster.route", "repro.cluster.router", "PrefixAffinityRouter", ("place",), _count_place),
]

@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Patch every target with ``recorder``'s wrappers; restore on exit."""
    undo: list[tuple[object, str, object]] = []
    try:
        for name, module_name, class_name, attrs, count in TARGETS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                if class_name is not None:
                    owners = [getattr(module, class_name)]
                    original = owners[0].__dict__[attr]
                else:
                    original = getattr(module, attr)
                    owners = [
                        m for mod_name, m in list(sys.modules.items())
                        if mod_name.split(".")[0] == "repro" and getattr(m, attr, None) is original
                    ]
                wrapper = recorder.wrap(name, original, count)
                for owner in owners:
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
