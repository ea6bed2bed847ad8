"""repro: Context Parallelism for Scalable Million-Token Inference.

A from-scratch Python reproduction of the MLSys 2025 paper (Yang et al.,
Meta; arXiv:2411.01783): lossless exact ring-attention variants (pass-KV
and pass-Q) for long-context LLM inference, with load-balanced sharding,
persistent sharded KV cache across multi-turn prefill and decode, adaptive
algorithm-selection heuristics, and an analytic performance model that
regenerates every table and figure of the paper's evaluation.

Quickstart::

    import numpy as np
    from repro import ContextParallelEngine, LlamaModel, tiny_config

    model = LlamaModel(tiny_config(), seed=0)
    engine = ContextParallelEngine(model, world_size=4)
    out = engine.prefill({0: np.arange(32) % model.config.vocab_size})
    step = engine.decode({0: 7})

See ``examples/`` for multi-turn serving and million-token scaling studies,
and :mod:`repro.experiments` for the per-table/figure reproduction.
"""

from repro.core.engine import ContextParallelEngine, DecodeOutput, PrefillOutput
from repro.core.heuristics import (
    HeuristicConfig,
    RingAlgo,
    select_algo_empirical,
    select_algo_simple,
    select_algo_with_all2all,
)
from repro.core.merge import merge_partials
from repro.core.planner import PrefillPlanner, SelectorKind
from repro.core.ring_decode import ring_passq_decode
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.ring_skip import plan_prefill
from repro.core.sharding import (
    SequenceSpec,
    ShardedKV,
    ShardedQueries,
    shard_positions,
    shard_sequences,
)
from repro.distributed.process_group import SimProcessGroup
from repro.model.config import (
    ModelConfig,
    llama3_405b_config,
    llama3_70b_config,
    llama3_8b_config,
    tiny_config,
)
from repro.model.llama import LlamaModel
from repro.perf.hardware import gti_host, gtt_host
from repro.perf.latency import LatencySimulator
from repro.runtime import (
    ContinuousBatchingRuntime,
    RequestState,
    RuntimeReport,
    SimulatedStepClock,
    TurnRequest,
    UnitStepClock,
)
from repro.serving.scheduler import ChunkedPrefillPolicy
from repro.serving.session import ChatSession
from repro.version import __version__
from repro.workloads.generator import poisson_arrivals

__all__ = [
    "ChatSession",
    "ChunkedPrefillPolicy",
    "ContextParallelEngine",
    "ContinuousBatchingRuntime",
    "RequestState",
    "RuntimeReport",
    "SimulatedStepClock",
    "TurnRequest",
    "UnitStepClock",
    "poisson_arrivals",
    "DecodeOutput",
    "HeuristicConfig",
    "LatencySimulator",
    "LlamaModel",
    "ModelConfig",
    "PrefillOutput",
    "PrefillPlanner",
    "RingAlgo",
    "SelectorKind",
    "SequenceSpec",
    "ShardedKV",
    "ShardedQueries",
    "SimProcessGroup",
    "__version__",
    "gti_host",
    "gtt_host",
    "llama3_405b_config",
    "llama3_70b_config",
    "llama3_8b_config",
    "merge_partials",
    "plan_prefill",
    "ring_passkv_prefill",
    "ring_passq_decode",
    "ring_passq_prefill",
    "select_algo_empirical",
    "select_algo_simple",
    "select_algo_with_all2all",
    "shard_positions",
    "shard_sequences",
    "tiny_config",
]
