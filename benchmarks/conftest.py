"""Benchmark harness configuration.

Run with::

    pytest benchmarks/ --benchmark-only

``bench_numeric_kernels.py`` times the numeric substrate itself (the flash
kernel, the rings, the engine) with pytest-benchmark;
``run_benchmarks.py`` distills it into ``BENCH_kernels.json``. The paper's
tables and figures are regenerated by ``python -m repro experiments`` and
their claims are tier-1 tests (``tests/experiments/test_paper_claims.py``).

``--smoke`` caps every benchmark at a single round so CI can import- and
run-check the benchmark files without paying for statistics
(``python -m pytest benchmarks --benchmark-only -q --smoke``).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run each benchmark for a single round (import/run check only)",
    )


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # Must run before pytest-benchmark's own pytest_configure builds its
    # session from these options (conftest hooks are called first).
    if config.getoption("--smoke"):
        config.option.benchmark_min_rounds = 1
        config.option.benchmark_max_time = "0.000001"
        # Post-argparse override: must be the parsed value (bool), not the
        # CLI string "off", which pytest-benchmark would treat as truthy.
        config.option.benchmark_warmup = False
