"""Model substrate: a NumPy Llama-style GQA transformer.

The paper's numerics run on Llama3 405B with row-wise FP8 feed-forward
weights. The reproduction needs two things from a model:

1. the *exact architecture family* (RMSNorm, RoPE, GQA attention, SwiGLU
   FFN, pre-norm residuals) at configurable scale, so end-to-end
   CP-vs-single-device logit equality is a meaningful test, and
2. the *true Llama3 405B configuration* (Table 9) for the analytic
   performance model.

Modules:

- :mod:`repro.model.config` — :class:`ModelConfig` with Table 9 presets.
- :mod:`repro.model.llama` — :class:`LlamaModel`, stage-decomposed so the
  CP engine can interleave per-rank local compute with ring attention.
- :mod:`repro.model.norms` / :mod:`repro.model.mlp` — RMSNorm and SwiGLU.
- :mod:`repro.model.sampling` — greedy / temperature sampling.
"""

from repro.model.config import (
    ModelConfig,
    llama3_405b_config,
    llama3_70b_config,
    llama3_8b_config,
    tiny_config,
)
from repro.model.llama import LlamaModel
from repro.model.mlp import swiglu
from repro.model.norms import rms_norm
from repro.model.sampling import sample_greedy, sample_temperature

__all__ = [
    "LlamaModel",
    "ModelConfig",
    "llama3_405b_config",
    "llama3_70b_config",
    "llama3_8b_config",
    "rms_norm",
    "sample_greedy",
    "sample_temperature",
    "swiglu",
    "tiny_config",
]
