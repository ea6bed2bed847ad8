"""Tests for chunked prefill."""

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.core.heuristics import RingAlgo
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel


@pytest.fixture(scope="module")
def model():
    return LlamaModel(tiny_config(), seed=17)


class TestChunkedPrefill:
    @pytest.mark.parametrize("chunk", [1, 4, 7, 100])
    def test_equals_one_shot(self, model, chunk):
        toks = (np.arange(19) * 3) % model.config.vocab_size
        chunked = ContextParallelEngine(model, world_size=2).prefill_chunked(
            0, toks, chunk_tokens=chunk
        )
        one_shot = ContextParallelEngine(model, world_size=2).prefill({0: toks})
        np.testing.assert_allclose(
            chunked.logits[0], one_shot.logits[0], atol=1e-9
        )

    def test_later_chunks_are_partial_prefill(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        toks = np.arange(12) % model.config.vocab_size
        out = engine.prefill_chunked(0, toks, chunk_tokens=4, force_algo=RingAlgo.PASS_Q)
        assert out.plan.cached_tokens == 8  # final chunk saw 8 cached
        assert engine.context_length(0) == 12

    def test_then_decode(self, model):
        engine = ContextParallelEngine(model, world_size=3)
        toks = np.arange(14) % model.config.vocab_size
        engine.prefill_chunked(0, toks, chunk_tokens=5)
        step = engine.decode({0: 2})
        ref = model.forward(np.concatenate([toks, [2]]))
        np.testing.assert_allclose(step.logits[0], ref[-1], atol=1e-9)

    def test_validation(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        with pytest.raises(ValueError):
            engine.prefill_chunked(0, np.arange(4), chunk_tokens=0)
        with pytest.raises(ValueError):
            engine.prefill_chunked(0, np.zeros(0, dtype=np.int64), chunk_tokens=2)

