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


def prefill_in_chunks(engine, toks, chunk, **kw):
    """Prefill ``toks`` as consecutive partial prefills of ``chunk`` tokens."""
    return [engine.prefill({0: toks[i : i + chunk]}, **kw) for i in range(0, toks.size, chunk)]


class TestChunkedPrefill:
    @pytest.mark.parametrize("chunk", [1, 4, 7, 100])
    def test_equals_one_shot(self, model, chunk):
        toks = (np.arange(19) * 3) % model.config.vocab_size
        chunks = prefill_in_chunks(ContextParallelEngine(model, world_size=2), toks, chunk)
        one_shot = ContextParallelEngine(model, world_size=2).prefill({0: toks})
        np.testing.assert_allclose(
            np.concatenate([out.logits[0] for out in chunks]), one_shot.logits[0], atol=1e-9
        )

    def test_later_chunks_are_partial_prefill(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        toks = np.arange(12) % model.config.vocab_size
        chunks = prefill_in_chunks(engine, toks, 4, force_algo=RingAlgo.PASS_Q)
        assert [out.plan.cached_tokens for out in chunks] == [0, 4, 8]
        assert engine.context_length(0) == 12

    def test_then_decode(self, model):
        engine = ContextParallelEngine(model, world_size=3)
        toks = np.arange(14) % model.config.vocab_size
        prefill_in_chunks(engine, toks, 5)
        step = engine.decode({0: 2})
        ref = model.forward(np.concatenate([toks, [2]]))
        np.testing.assert_allclose(step.logits[0], ref[-1], atol=1e-9)
