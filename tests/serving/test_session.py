"""Tests for the multi-turn chat session driver."""

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.serving.session import ChatSession


@pytest.fixture(scope="module")
def model():
    return LlamaModel(tiny_config(), seed=21)


class TestChatSession:
    def test_turn_records(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        session = ChatSession(engine, seq_id=0)
        rec = session.send(np.arange(12) % model.config.vocab_size, max_new_tokens=3)
        assert rec.prompt_tokens == 12
        assert rec.cached_tokens == 0
        assert rec.response_tokens == 3
        assert rec.miss_rate == 1.0
        assert session.context_length == 15

    def test_second_turn_is_partial_prefill(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        session = ChatSession(engine, seq_id=0)
        session.send(np.arange(20) % model.config.vocab_size, max_new_tokens=2)
        rec = session.send(np.arange(4) % model.config.vocab_size, max_new_tokens=1)
        assert rec.cached_tokens == 22
        assert rec.miss_rate == pytest.approx(4 / 26)

    def test_generation_matches_single_device_greedy(self, model):
        """CP greedy decoding must produce the same token ids as a
        single-device greedy loop — the strongest losslessness check."""
        engine = ContextParallelEngine(model, world_size=3)
        session = ChatSession(engine, seq_id=0)
        prompt = (np.arange(10) * 3) % model.config.vocab_size
        rec = session.send(prompt, max_new_tokens=4)

        # single-device greedy loop
        history = list(prompt)
        expected = []
        for _ in range(4):
            logits = model.forward(np.array(history))
            tok = int(np.argmax(logits[-1]))
            expected.append(tok)
            history.append(tok)
        assert rec.generated == expected

    def test_history_tracks_everything(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        session = ChatSession(engine, seq_id=5)
        session.send(np.array([1, 2, 3]), max_new_tokens=2)
        session.send(np.array([4]), max_new_tokens=1)
        assert len(session.history) == 3 + 2 + 1 + 1
        assert session.context_length == 7

    def test_two_sessions_one_engine(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        a = ChatSession(engine, seq_id=0)
        b = ChatSession(engine, seq_id=1)
        a.send(np.arange(8), max_new_tokens=1)
        b.send(np.arange(5), max_new_tokens=1)
        assert a.context_length == 9
        assert b.context_length == 6

    def test_close_releases_cache(self, model):
        engine = ContextParallelEngine(model, world_size=2)
        session = ChatSession(engine, seq_id=0)
        session.send(np.arange(6), max_new_tokens=1)
        session.close()
        assert engine.context_length(0) == 0

    def test_budget_validation(self, model):
        """A negative budget is rejected before the engine is touched."""
        engine = ContextParallelEngine(model, world_size=2)
        session = ChatSession(engine, seq_id=0)
        with pytest.raises(ValueError, match="max_new_tokens"):
            session.send(np.arange(4), max_new_tokens=-1)
        assert engine.context_length(0) == 0 and session.turns == []
