"""Engine edge cases: degenerate worlds, reuse, capacity."""

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.kvcache.cache import CacheCapacityError
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel


@pytest.fixture(scope="module")
def model():
    return LlamaModel(tiny_config(), seed=41)


class TestDegenerateShapes:
    def test_more_ranks_than_tokens(self, model):
        """A 3-token prompt on 8 ranks leaves most ranks empty — still exact."""
        engine = ContextParallelEngine(model, world_size=8)
        toks = np.array([1, 2, 3])
        out = engine.prefill({0: toks})
        np.testing.assert_allclose(out.logits[0], model.forward(toks), atol=1e-9)

    def test_single_token_prompt(self, model):
        engine = ContextParallelEngine(model, world_size=4)
        out = engine.prefill({0: np.array([5])})
        np.testing.assert_allclose(out.logits[0], model.forward(np.array([5])), atol=1e-9)

    def test_world_size_one(self, model):
        engine = ContextParallelEngine(model, world_size=1)
        toks = np.arange(10) % model.config.vocab_size
        out = engine.prefill({0: toks})
        np.testing.assert_allclose(out.logits[0], model.forward(toks), atol=1e-9)
        step = engine.decode({0: 1})
        ref = model.forward(np.concatenate([toks, [1]]))
        np.testing.assert_allclose(step.logits[0], ref[-1], atol=1e-9)

    def test_vocab_boundary_tokens(self, model):
        v = model.config.vocab_size
        engine = ContextParallelEngine(model, world_size=2)
        toks = np.array([0, v - 1, 0, v - 1])
        out = engine.prefill({0: toks})
        np.testing.assert_allclose(out.logits[0], model.forward(toks), atol=1e-9)


class TestSequenceLifecycle:
    def test_seq_id_reuse_after_release(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        engine.prefill({0: np.arange(8)})
        engine.evict(0)
        toks = (np.arange(5) + 3) % model.config.vocab_size
        out = engine.prefill({0: toks})
        # a released id starts fresh: logits match a from-scratch forward
        np.testing.assert_allclose(out.logits[0], model.forward(toks), atol=1e-9)

    def test_decode_subset_of_sequences(self, model):
        """Decoding only some sequences must not disturb the others."""
        engine = ContextParallelEngine(model, world_size=2)
        a = np.arange(6) % model.config.vocab_size
        b = (np.arange(9) + 4) % model.config.vocab_size
        engine.prefill({0: a, 1: b})
        engine.decode({0: 1})
        engine.decode({0: 2})
        step = engine.decode({1: 7})  # first decode for seq 1, step offset 2
        ref = model.forward(np.concatenate([b, [7]]))
        np.testing.assert_allclose(step.logits[1], ref[-1], atol=1e-9)


class TestCapacity:
    def test_prefill_oom_raises(self, model):
        engine = ContextParallelEngine(model, world_size=2, capacity_tokens=8)
        with pytest.raises(CacheCapacityError):
            engine.prefill({0: np.arange(40) % model.config.vocab_size})

    def test_within_capacity_ok(self, model):
        engine = ContextParallelEngine(model, world_size=2, capacity_tokens=32)
        out = engine.prefill({0: np.arange(20) % model.config.vocab_size})
        assert 0 in out.logits
