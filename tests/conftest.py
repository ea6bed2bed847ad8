"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.sharding import SequenceSpec, ShardedKV, ShardedQueries, shard_sequences
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel

# Tier-1 runs the same hypothesis examples every time: a refactor checked
# against byte-identical traces needs an oracle that cannot flake. The CI
# `properties` lane keeps the randomized search with
# `--hypothesis-profile=search` (the plugin applies it after this file loads).
settings.register_profile("tier1", derandomize=True)
settings.register_profile("search")
settings.load_profile("tier1")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_model() -> LlamaModel:
    return LlamaModel(tiny_config(), seed=7)
