"""Tests for greedy generation through the one turn driver, ChatSession."""

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.serving.session import ChatSession


@pytest.fixture(scope="module")
def model():
    return LlamaModel(tiny_config(), seed=31)


def single_device_greedy(model, history, n):
    history = list(history)
    expected = []
    for _ in range(n):
        logits = model.forward(np.array(history))
        tok = int(np.argmax(logits[-1]))
        expected.append(tok)
        history.append(tok)
    return expected


class TestGenerate:
    def test_greedy_matches_single_device(self, model):
        """Both the full-prefill turn and the partial-prefill follow-up
        decode the single-device greedy tokens."""
        session = ChatSession(ContextParallelEngine(model, world_size=3), seq_id=0)
        prompt = (np.arange(9) * 5) % model.config.vocab_size
        assert session.send(prompt, max_new_tokens=4).generated == single_device_greedy(
            model, prompt, 4
        )
        follow_up = np.array([3, 1, 4])
        got = session.send(follow_up, max_new_tokens=3).generated
        assert got == single_device_greedy(model, session.history[: -len(got)], 3)

    def test_zero_budget(self, model):
        """A zero budget is a prefill-only turn; the next turn decodes on top."""
        session = ChatSession(ContextParallelEngine(model, world_size=2), seq_id=0)
        rec = session.send(np.arange(4), max_new_tokens=0)
        assert rec.generated == [] and rec.response_tokens == 0
        assert session.context_length == 4
        got = session.send(np.array([7]), max_new_tokens=2).generated
        assert got == single_device_greedy(model, [0, 1, 2, 3, 7], 2)

    def test_validation(self, model):
        """A negative budget on a follow-up turn leaves the cached
        conversation untouched."""
        session = ChatSession(ContextParallelEngine(model, world_size=2), seq_id=0)
        session.send(np.arange(4), max_new_tokens=1)
        with pytest.raises(ValueError, match="max_new_tokens"):
            session.send(np.arange(3), max_new_tokens=-1)
        assert session.context_length == 5 and len(session.history) == 5
        assert len(session.turns) == 1
