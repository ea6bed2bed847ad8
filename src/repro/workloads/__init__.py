"""Synthetic workload generation.

The paper's evaluation sweeps (context lengths 2K-1M, KV-cache miss rates
1-100%, multi-turn conversations) need reproducible inputs. This package
generates them:

- :mod:`repro.workloads.generator` — deterministic token/prompt generators,
  multi-turn conversation scripts and Poisson arrival times.
- :mod:`repro.workloads.traces` — the parameter grids behind each table
  and figure, shared by the experiments and the tests.
- :mod:`repro.workloads.replay` — scripts into a runtime, the sequential
  reference and the exactness check between them.
"""

from repro.workloads.generator import ConversationScript, WorkloadGenerator, poisson_arrivals
from repro.workloads.replay import replay_scripts_sequential, submit_scripts_to_runtime
from repro.workloads.traces import (
    FIG6_CONTEXT_LENGTHS,
    FIG8_CONTEXT_LENGTHS,
    TABLE4_SWEEP,
)

__all__ = [
    "ConversationScript",
    "FIG6_CONTEXT_LENGTHS",
    "FIG8_CONTEXT_LENGTHS",
    "TABLE4_SWEEP",
    "WorkloadGenerator",
    "poisson_arrivals",
    "replay_scripts_sequential",
    "submit_scripts_to_runtime",
]
