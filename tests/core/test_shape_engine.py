"""ShapeEngine: the numeric engine's bookkeeping with no K/V and no attention.

Its oracle is the golden matrix (every case replays through it to the
same digest); these tests pin what it is on its own.
"""

import numpy as np

from repro.core.engine import ContextParallelEngine
from repro.core.shape_engine import ShapeEngine, ShapeModel, build_engine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.runtime import ServeConfig

CONFIG = tiny_config()


def test_overrides_only_the_round_body_and_the_logits():
    """Its rounds are the numeric engine's ``prefill`` and ``decode``: the
    same split, commit and outputs around a body that only appends."""
    assert sorted(name for name in vars(ShapeEngine) if not name.startswith("__")) == [
        "_decode_logits",
        "_prefill_logits",
        "_round",
    ]


def test_the_model_picks_the_engine():
    assert type(build_engine(LlamaModel(CONFIG, seed=0), 2)) is ContextParallelEngine
    assert type(build_engine(ShapeModel(CONFIG), 2)) is ShapeEngine
    runtime = ServeConfig(decode_world=1).build(ShapeModel(CONFIG))
    assert type(runtime.engine) is ShapeEngine
    assert type(runtime.decode_engine) is ShapeEngine


def test_kv_accounting_matches_the_numeric_engine():
    """A fused round, a partial prefill and rotating decode steps place the
    same tokens on the same ranks and claim the same blocks."""
    numeric = build_engine(LlamaModel(CONFIG, seed=0), 3, capacity_tokens=64)
    shape = build_engine(ShapeModel(CONFIG), 3, capacity_tokens=64)
    for engine in (numeric, shape):
        engine.prefill({0: np.arange(20), 1: np.arange(7)})
        engine.prefill({1: np.arange(5)})
        for _ in range(4):
            engine.decode({0: 1, 1: 2})
    for sid in (0, 1):
        assert shape.cached_tokens(sid) == numeric.cached_tokens(sid)
    assert shape.kv_utilization() == numeric.kv_utilization()
    assert shape.kv_leak_report() == []
    assert shape.caches[0].get(0, [0]).k.shape[1:] == (CONFIG.n_kv_heads, 0)


def test_rounds_place_tokens_as_the_numeric_engine_does():
    """The shared round (split, body's append, commit) on both engines: a
    fused prefill, then three decode rounds of the whole batch (B > N) and
    of part of it (B < N) put every token on the same rank."""
    numeric = build_engine(LlamaModel(CONFIG, seed=0), 4)
    shape = build_engine(ShapeModel(CONFIG), 4)
    prompts = {sid: np.arange(3 + 2 * sid) % CONFIG.vocab_size for sid in range(6)}
    numeric.prefill(prompts)
    shape.prefill(prompts)
    for sid in prompts:
        assert shape.cached_tokens(sid) == numeric.cached_tokens(sid)
    for batch in (range(6), range(0, 6, 2), range(6)):
        tokens = {sid: sid + 1 for sid in batch}
        assert shape.decode(tokens).assignment == numeric.decode(tokens).assignment
        for sid in prompts:
            assert shape.cached_tokens(sid) == numeric.cached_tokens(sid)


def test_tokens_come_from_the_source():
    engine = build_engine(ShapeModel(CONFIG, lambda sid, pos: (sid + pos) % 7), 2)
    out = engine.prefill({3: np.arange(10)})
    assert int(np.argmax(out.last_logits(3))) == (3 + 10) % 7
    assert int(np.argmax(engine.decode({3: 5}).logits[3])) == (3 + 11) % 7


def test_kv_export_moves_positions_across_world_sizes():
    src, dst = build_engine(ShapeModel(CONFIG), 4), build_engine(ShapeModel(CONFIG), 1)
    src.prefill({0: np.arange(33)})
    dst.import_kv(src.export_kv(0))
    assert dst.context_length(0) == 33
    assert dst.kv_leak_report() == []
