"""Experiment regenerators: one module per paper table/figure.

Each module exposes ``run(...) -> ExperimentResult`` that recomputes the
corresponding table or figure from the calibrated analytic model (and, for
the losslessness/ablation experiments, from the numeric simulator).
``report.py`` lists them all for ``python -m repro experiments``. A table
the paper published keeps its numbers as ``PAPER_*`` constants in its own
module, rendered as ``paper <column>`` columns. The claims are tier-1
tests: ``tests/perf/test_calibration.py`` pins the model near each paper
number, ``tests/experiments/test_paper_claims.py`` holds the qualitative
claims (one test per claim, named by table or figure and section), and
``tests/experiments/test_compare.py`` bounds every rendered paper column.

Index (paper -> module):

- Table 2  -> :mod:`repro.experiments.table2_comm`
- Figure 6 -> :mod:`repro.experiments.fig6_prefill_scaling`
- Figure 7 -> :mod:`repro.experiments.fig7_cp_vs_tp`
- Figure 8 -> :mod:`repro.experiments.fig8_million_token`
- Table 4 / Figure 9 -> :mod:`repro.experiments.table4_fig9_partial_prefill`
- Table 5  -> :mod:`repro.experiments.table5_breakdown`
- Table 6  -> :mod:`repro.experiments.table6_ttft_ttit`
- Table 7  -> :mod:`repro.experiments.table7_parallelism`
- Table 8  -> :mod:`repro.experiments.table8_decode_attention`
- Figure 10 -> :mod:`repro.experiments.fig10_heuristic`
- Ablations -> :mod:`repro.experiments.ablation_sharding`,
  :mod:`repro.experiments.ablation_allgather`

The serving experiments below are grids of ``ServeConfig`` cells run by
:func:`repro.experiments.serving_grid.run_grid`, which checks every cell
against sequential replay and a post-drain leak audit:

- §4.3 disaggregation break-even (one 128K request per response length on
  :class:`~repro.core.shape_engine.ShapeEngine`, colocated vs
  disaggregated) -> :mod:`repro.experiments.disaggregation`
- serving under Poisson load, 128K prompts on
  :class:`~repro.core.shape_engine.ShapeEngine` (colocated vs
  disaggregated) -> :func:`repro.experiments.serving_load.run`. These two
  are the one §4.3 comparison: CP colocated against a dedicated decode pool
- preemption remedies under KV pressure ->
  :mod:`repro.experiments.preemption_modes`
- shared-prefix KV reuse (radix prefix cache, warm-vs-cold TTFT) ->
  :mod:`repro.experiments.prefix_reuse`
- fault injection & graceful degradation (fault rate x recovery policy,
  goodput/completion rate) -> :mod:`repro.experiments.fault_tolerance`
- cluster-tier routing (replica count x policy, prefix-affinity vs
  round-robin) -> :mod:`repro.experiments.cluster_routing`
"""

from repro.experiments.base import ExperimentResult

__all__ = ["ExperimentResult"]
