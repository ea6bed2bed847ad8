"""Shadow-state sanitizer: every error class fires at the offending op,
clean lifecycles stay silent, and sanitized runtimes are byte-identical."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.sanitizer import (
    AllocatorSanitizer,
    KVSanitizer,
    SanitizerError,
    attach_sanitizer,
)
from repro.core.engine import ContextParallelEngine
from repro.kvcache.paged import OutOfBlocksError, PagedAllocator
from repro.runtime import ServeConfig
from repro.workloads.generator import WorkloadGenerator


def sanitized(num_blocks=8, block_size=4):
    alloc = PagedAllocator(num_blocks=num_blocks, block_size=block_size)
    existing = getattr(alloc, "_sanitizer", None)  # property-lane autouse fixture
    return alloc, (existing or AllocatorSanitizer(alloc))


class TestCleanLifecycle:
    def test_full_lifecycle_no_findings(self):
        alloc, san = sanitized()
        alloc.append((1,), 6)
        alloc.share((1,), (2,), 6)
        alloc.append((2,), 3)  # forces a COW split of the shared tail
        alloc.append((1,), 1)
        alloc.release_tail((1,), 2)
        alloc.release((2,))
        alloc.release((1,))
        alloc.release((99,))  # speculative release: documented no-op
        san.verify()
        assert alloc.audit() == []
        assert alloc.used_blocks == 0

    def test_cow_lineage_tracked(self):
        alloc, san = sanitized(block_size=8)
        alloc.append((1,), 6)
        shared = alloc._owners[(1,)][-1]
        alloc.share((1,), (2,), 6)
        alloc.append((2,), 1)
        fresh = alloc._owners[(2,)][-1]
        assert san.lineage[fresh] == shared

    def test_oom_rollback_verified_and_usable_after(self):
        alloc, san = sanitized(num_blocks=2, block_size=4)
        alloc.append((1,), 4)
        with pytest.raises(OutOfBlocksError):
            alloc.append((2,), 100)
        san.verify()
        alloc.append((2,), 4)  # pool still healthy after the rollback
        alloc.release((1,))
        alloc.release((2,))
        san.check_leaks(set())

    def test_shadow_tracks_allocator_exactly(self):
        alloc, san = sanitized()
        alloc.append((1,), 10)
        alloc.share((1,), (2,), 8)
        assert san.owners == {k: list(v) for k, v in alloc._owners.items()}
        assert san.fill == dict(alloc._fill)
        assert san.ref == dict(alloc._ref)

    def test_double_attach_rejected(self):
        alloc, san = sanitized()
        with pytest.raises(ValueError, match="already has a sanitizer"):
            AllocatorSanitizer(alloc)


class TestErrorClasses:
    """Each class is triggered by corrupting the allocator's books and
    then performing the op the corruption breaks — the error fires *at
    that op*, naming the block, with the op trace attached."""

    def test_double_free(self):
        alloc, san = sanitized()
        alloc.append((1,), 4)
        block = alloc._owners[(1,)][0]
        alloc._free.append(block)  # corrupt: freed while still owned
        with pytest.raises(SanitizerError) as exc:
            alloc.release((1,))
        assert exc.value.kind == "double_free"
        assert str(block) in exc.value.detail
        assert any("append" in op for op in exc.value.trace)

    def test_use_after_free(self):
        alloc, san = sanitized(block_size=8)
        alloc.append((1,), 6)
        block = alloc._owners[(1,)][0]
        # corrupt: block prematurely returned to the pool, stream kept
        alloc._free.append(block)
        del alloc._ref[block]
        with pytest.raises(SanitizerError) as exc:
            alloc.append((1,), 1)  # would write into the freed block
        assert exc.value.kind == "use_after_free"
        assert str(block) in exc.value.detail

    def test_refcount_underflow(self):
        alloc, san = sanitized()
        alloc.append((1,), 4)
        block = alloc._owners[(1,)][0]
        alloc._ref[block] = 0  # corrupt: one reference lost
        with pytest.raises(SanitizerError) as exc:
            alloc.release((1,))
        assert exc.value.kind == "refcount_underflow"
        assert str(block) in exc.value.detail

    def test_write_into_shared_block_without_cow(self):
        alloc, san = sanitized(block_size=8)
        alloc.append((1,), 6)
        alloc.share((1,), (2,), 6)
        block = alloc._owners[(1,)][-1]
        alloc._ref[block] = 1  # corrupt: allocator forgets the block is shared
        with pytest.raises(SanitizerError) as exc:
            alloc.append((1,), 1)  # fills the shared block in place
        assert exc.value.kind == "write_shared_no_cow"
        assert str(block) in exc.value.detail

    def test_leak_at_drain_point(self):
        alloc, san = sanitized()
        alloc.append((7,), 6)
        with pytest.raises(SanitizerError) as exc:
            san.check_leaks(resident_seq_ids=set())
        assert exc.value.kind == "leak"
        assert "(7,)" in exc.value.detail
        san.check_leaks(resident_seq_ids={7})  # resident: not a leak

    def test_corruption_of_owner_lists(self):
        alloc, san = sanitized()
        alloc.append((1,), 4)
        alloc._fill[(1,)] = 99  # corrupt bookkeeping with no legal-op shape
        with pytest.raises(SanitizerError) as exc:
            alloc.append((2,), 4)
        assert exc.value.kind == "corruption"

    def test_error_includes_op_trace(self):
        alloc, san = sanitized()
        alloc.append((1,), 4)
        alloc.append((2,), 4)
        block = alloc._owners[(1,)][0]
        alloc._free.append(block)
        with pytest.raises(SanitizerError) as exc:
            alloc.release((1,))
        trace = exc.value.trace
        assert len(trace) >= 3  # two appends + the failing release
        assert "release" in trace[-1]


class TestSanitizerVsAudit:
    """The sanitizer fires at the faulty op; audit() only sees the wreck
    afterwards — pin the 'strictly stronger' claim from the issue."""

    def test_sanitizer_fires_where_audit_cannot_localize(self):
        # unsanitized allocator: same corruption, audit reports the state
        # violation only after the fact, with no offending op
        alloc = PagedAllocator(num_blocks=8, block_size=4)
        alloc.append((1,), 4)
        block = alloc._owners[(1,)][0]
        alloc._free.append(block)
        problems = alloc.audit()
        assert any("simultaneously free and referenced" in p for p in problems)
        # sanitized allocator: identical corruption is pinned to the op
        alloc2, _ = sanitized()
        alloc2.append((1,), 4)
        block2 = alloc2._owners[(1,)][0]
        alloc2._free.append(block2)
        with pytest.raises(SanitizerError) as exc:
            alloc2.release((1,))
        assert exc.value.op.startswith("release")


class TestEngineSanitizer:
    def make_engine(self, tiny_model, capacity=256):
        return ContextParallelEngine(tiny_model, world_size=2, capacity_tokens=capacity)

    def test_attach_is_idempotent(self, tiny_model):
        engine = self.make_engine(tiny_model)
        san = attach_sanitizer(engine)
        assert attach_sanitizer(engine) is san
        assert isinstance(san, KVSanitizer)
        assert len(san.rank_sanitizers) == 2

    def test_clean_prefill_decode_evict_flow(self, tiny_model, rng):
        engine = self.make_engine(tiny_model)
        san = attach_sanitizer(engine)
        tokens = {0: rng.integers(0, 100, size=24), 1: rng.integers(0, 100, size=16)}
        engine.prefill(tokens)
        for _ in range(3):
            out = engine.decode({sid: 1 for sid in tokens})
        engine.evict_tail(0, keep_tokens=10)
        engine.evict(0)
        engine.evict(1)
        san.check_drained()

    def test_drain_check_catches_untracked_residue(self, tiny_model, rng):
        engine = self.make_engine(tiny_model)
        san = attach_sanitizer(engine)
        engine.prefill({0: rng.integers(0, 100, size=16)})
        # corrupt: the engine forgets the sequence without evicting it
        engine.seq_lengths.pop(0)
        with pytest.raises(SanitizerError) as exc:
            san.check_drained()
        assert exc.value.kind == "leak"

    def test_evict_postcondition(self, tiny_model, rng):
        engine = self.make_engine(tiny_model)
        san = attach_sanitizer(engine)
        engine.prefill({0: rng.integers(0, 100, size=16)})
        engine.evict(0)  # wrapped: verifies zero resident tokens after
        assert sum(c.tokens(0) for c in engine.caches) == 0

    def test_unbounded_engine_sanitizes_stream_level(self, tiny_model, rng):
        engine = ContextParallelEngine(tiny_model, world_size=2)  # no allocator
        san = attach_sanitizer(engine)
        assert san.rank_sanitizers == []
        engine.prefill({0: rng.integers(0, 100, size=16)})
        engine.seq_lengths.pop(0)
        with pytest.raises(SanitizerError) as exc:
            san.check_drained()
        assert exc.value.kind == "leak"


class TestSanitizedRuntime:
    def run_tokens(self, runtime, vocab):
        gen = WorkloadGenerator(vocab, seed=3)
        for sid in range(3):
            runtime.submit_script(gen.conversation(sid, turns=2, first_prompt=40))
        runtime.run()
        return {rid: tuple(rec.generated) for rid, rec in runtime._records.items()}

    @pytest.mark.parametrize("shape", ["colocated", "disaggregated", "prefix"])
    def test_sanitize_true_is_transparent(self, tiny_model, shape):
        vocab = tiny_model.config.vocab_size
        config = ServeConfig(
            decode_world=2 if shape == "disaggregated" else None,
            capacity=192,
            prefix_cache=(shape == "prefix"),
        )
        base = self.run_tokens(config.build(tiny_model), vocab)
        checked = self.run_tokens(replace(config, sanitize=True).build(tiny_model), vocab)
        assert base == checked

    def test_runtime_exposes_sanitizers_and_checks_drain(self, tiny_model):
        rt = ServeConfig(decode_world=2, capacity=192, sanitize=True).build(tiny_model)
        assert len(rt.sanitizers) == 2
        self.run_tokens(rt, tiny_model.config.vocab_size)  # run() calls check_drained

    def test_unsanitized_runtime_has_no_sanitizers(self, tiny_model):
        rt = ServeConfig(capacity=192).build(tiny_model)
        assert rt.sanitizers == []
