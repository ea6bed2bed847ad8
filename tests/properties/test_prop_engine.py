"""Property-based tests: the engine is lossless under random schedules.

The strongest reproduction claim: for ANY interleaving of prefill turns and
decode steps across multiple sequences, the context-parallel engine's
logits equal a monolithic single-device forward over each sequence's full
history.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel

MODEL = LlamaModel(replace(tiny_config(n_layers=1), model_dim=32, n_heads=4), seed=2)
VOCAB = MODEL.config.vocab_size


@st.composite
def schedule(draw):
    """A random multi-turn schedule over 1-2 sequences."""
    world = draw(st.integers(1, 4))
    n_seqs = draw(st.integers(1, 2))
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["prefill", "decode"]))
        if kind == "prefill":
            sid = draw(st.integers(0, n_seqs - 1))
            length = draw(st.integers(1, 10))
            tokens = [draw(st.integers(0, VOCAB - 1)) for _ in range(length)]
            ops.append(("prefill", sid, tokens))
        else:
            sid = draw(st.integers(0, n_seqs - 1))
            ops.append(("decode", sid, [draw(st.integers(0, VOCAB - 1))]))
    return world, n_seqs, ops


class TestEngineScheduleProperty:
    @given(schedule())
    @settings(max_examples=20, deadline=None)
    def test_any_schedule_is_lossless(self, case):
        world, n_seqs, ops = case
        engine = ContextParallelEngine(MODEL, world_size=world)
        history: dict[int, list[int]] = {sid: [] for sid in range(n_seqs)}

        for kind, sid, tokens in ops:
            if kind == "decode" and not history[sid]:
                continue  # cannot decode before any prefill
            if kind == "prefill":
                out = engine.prefill({sid: np.array(tokens, dtype=np.int64)})
                history[sid].extend(tokens)
                ref = MODEL.forward(np.array(history[sid]))
                np.testing.assert_allclose(
                    out.logits[sid], ref[-len(tokens):], atol=1e-8
                )
            else:
                step = engine.decode({sid: tokens[0]})
                history[sid].append(tokens[0])
                ref = MODEL.forward(np.array(history[sid]))
                np.testing.assert_allclose(step.logits[sid], ref[-1], atol=1e-8)

    @given(schedule())
    @settings(max_examples=15, deadline=None)
    def test_cache_conservation(self, case):
        """Per-rank cached tokens always sum to each sequence's history."""
        world, n_seqs, ops = case
        engine = ContextParallelEngine(MODEL, world_size=world)
        lengths = {sid: 0 for sid in range(n_seqs)}
        for kind, sid, tokens in ops:
            if kind == "decode" and lengths[sid] == 0:
                continue
            if kind == "prefill":
                engine.prefill({sid: np.array(tokens, dtype=np.int64)})
                lengths[sid] += len(tokens)
            else:
                engine.decode({sid: tokens[0]})
                lengths[sid] += 1
            for check_sid, expected in lengths.items():
                assert sum(engine.cached_tokens(check_sid)) == expected
