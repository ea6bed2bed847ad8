"""The paper's qualitative claims, one test per claim.

Each test is named by the table, figure or section it reproduces and
checks a shape the paper argues for (an ordering, a ratio, a trend) on the
regenerated experiment. How near the model lands to each published number
is pinned by ``tests/perf/test_calibration.py``, and every rendered
``paper <column>`` is bounded by ``test_compare.py``; a claim one of those
or ``test_regenerators.py`` / ``test_extension_experiments.py`` already
checks is not repeated here.

The tests take no fixtures (bar the two slow sweeps), so the mutation
catalogue can run them as killers of a seeded pricing bug.
"""

import re

import pytest

from repro.experiments import (
    ablation_allgather,
    ablation_sharding,
    capacity_scaling,
    disaggregation,
    fig6_prefill_scaling,
    fig7_cp_vs_tp,
    fig8_million_token,
    fig10_heuristic,
    gqa_sensitivity,
    pp_vs_cp,
    serving_load,
    table4_fig9_partial_prefill,
    table5_breakdown,
    table6_ttft_ttit,
    table7_parallelism,
    table8_decode_attention,
)
from repro.perf.hardware import gti_host


def _row(result, key):
    """The row whose first column is ``key``."""
    return next(row for row in result.rows if row[0] == key)


# ---------------------------------------------------------------------- #
# Section 3: design
# ---------------------------------------------------------------------- #


def test_eq1_llama3_405b_passkv_threshold_is_12_5_percent():
    """§3.2: with 8 of 128 heads carrying KV, pass-KV messages are the
    smaller ones whenever the miss rate exceeds 2 * NKV / NH = 12.5%."""
    assert gqa_sensitivity.run().column("Eq.1 miss threshold")[0] == 0.125


def test_section3_2_passkv_advantage_shrinks_as_gqa_coarsens():
    """Fewer query heads per KV head: a higher Eq. 1 threshold and a
    smaller TP/CP traffic advantage, model by model."""
    res = gqa_sensitivity.run()
    thresholds = res.column("Eq.1 miss threshold")
    ratios = res.column("TP/CP traffic ratio")
    assert thresholds == sorted(thresholds)
    assert ratios == sorted(ratios, reverse=True)


def test_section3_2_mha_has_no_passkv_advantage():
    """The MHA counterfactual: KV messages are never smaller than Q, and
    TP moves no more bytes than CP."""
    mha = gqa_sensitivity.run().rows[-1]
    assert mha[0] == "llama3-405b-mha"
    assert mha[3] == 2.0
    assert mha[5] == 1.0


def test_section3_5_1_balanced_sharding_within_1_percent_of_ideal():
    for slowdown_pct in ablation_sharding.run().column("balanced slowdown %"):
        assert slowdown_pct < 1.0


def test_section3_5_1_naive_sharding_penalty_is_large_and_grows_with_ranks():
    naive = ablation_sharding.run().column("naive slowdown %")
    assert min(naive) > 30.0
    assert naive == sorted(naive)


def test_section3_5_2_allgather_exposes_its_communication():
    """The all-gather finishes before attention starts, so some of it is on
    the critical path at every context length."""
    for exposed in ablation_allgather.run().column("exposed comm (s)"):
        assert exposed > 0


# ---------------------------------------------------------------------- #
# Section 4.2: prefill
# ---------------------------------------------------------------------- #


def test_figure6a_cp8_scales_near_linearly_at_128k():
    """§4.2.1 on GTT: CP8 prefills 128K more than 6x faster than CP1."""
    row = _row(fig6_prefill_scaling.run(), 131072)
    assert row[1] / row[4] > 6.0


def test_figure6b_gti_scales_like_gtt_to_4_nodes():
    """§4.2.1 on GTI: pass-KV hides under attention even at ~3 GB/s/rank."""
    row = _row(fig6_prefill_scaling.run(gti_host()), 131072)
    assert row[1] / row[3] > 3.4


def test_figure7_cp_stays_near_linear_at_8_nodes():
    """§4.2.2: CP's scaling ratio at 8 nodes exceeds 6.5 of a perfect 8."""
    assert fig7_cp_vs_tp.run().column("CP ratio")[-1] > 6.5


def test_figure7_tp_plateaus():
    """§4.2.2: AllReduce on the critical path holds 8-node TP under 3x."""
    assert fig7_cp_vs_tp.run().column("TP ratio")[-1] < 3.0


def test_figure7_cp_over_tp_gap_widens_with_nodes():
    res = fig7_cp_vs_tp.run()
    gaps = [cp / tp for cp, tp in zip(res.column("CP ratio"), res.column("TP ratio"))]
    assert gaps == sorted(gaps)


def test_figure7_tp_latency_doubles_cp_at_8_nodes():
    """§4.2.2's "100% difference" at 8 nodes."""
    res = fig7_cp_vs_tp.run()
    assert res.column("TP TTFT (s)")[-1] > 2.0 * res.column("CP TTFT (s)")[-1]


def test_figure8_ttft_grows_superlinearly_beyond_512k():
    """§4.2.3: quadratic attention overtakes GEMM, so doubling 512K to 1M
    more than doubles CP16 TTFT."""
    res = fig8_million_token.run()
    assert _row(res, 1048576)[2] > 2.0 * _row(res, 524288)[2]


def test_section4_2_3_bf16_kv_for_1m_fits_on_8_ranks():
    """The paper serves 1M on 8-16 nodes; capacity alone allows it at 8."""
    res = capacity_scaling.run()
    assert _row(res, 8)[2] > 1_048_576


def test_table4_ttft_roughly_linear_in_miss_rate():
    """§4.2.4: 10x the miss rate costs 4-7x the pass-KV TTFT (fixed costs
    keep the small-T end above linear)."""
    res = table4_fig9_partial_prefill.run()
    kv = {round(miss, 6): ms for miss, ms in zip(res.column("miss%"), res.column("pass-KV ms"))}
    assert 4.0 < kv[100.0] / kv[10.0] < 7.0


def test_table4_alg5_disagrees_with_the_oracle_only_at_near_ties():
    res = table4_fig9_partial_prefill.run()
    for oracle, alg5, ratio in zip(res.column("oracle"), res.column("Alg5"), res.column("KV/Q ratio")):
        if oracle != alg5:
            assert 0.95 < ratio < 1.05


def test_figure9_passq_wins_at_low_miss_and_passkv_at_high():
    ratios = table4_fig9_partial_prefill.run().column("KV/Q ratio")
    assert ratios[0] > 1.05
    assert ratios[-1] < 0.95


def test_figure9_kv_over_q_ratio_falls_with_miss_rate():
    ratios = table4_fig9_partial_prefill.run().column("KV/Q ratio")
    assert ratios == sorted(ratios, reverse=True)


def test_figure9_crossover_within_the_paper_near_tie_band():
    """§4.2.4: the paper's tipping point is ~5%, with the two variants
    within 1% of each other from 3.25%."""
    crossover = table4_fig9_partial_prefill.crossover_miss_rate(table4_fig9_partial_prefill.run())
    assert 0.025 <= crossover <= 0.05, f"crossover at {crossover:.3%}"


def test_table5_exposed_passkv_comm_exceeds_passq_all2all_at_2_5_percent():
    """§4.2.4: why pass-Q wins at 2.5% miss."""
    rows = _table5_rows()
    exposed_kv = rows[(2.5, "pass-kv")][5]
    all2all_q = rows[(2.5, "pass-q")][4]
    assert exposed_kv > all2all_q


def _table5_rows():
    """Table 5's rows by (miss %, algo)."""
    return {(round(r[0], 6), r[1]): r for r in table5_breakdown.run().rows}


# ---------------------------------------------------------------------- #
# Section 4.3: decode
# ---------------------------------------------------------------------- #


def test_table6_cp2_decode_regresses_by_10_to_25_ms():
    """Ring SendRecv plus All2All per layer on CP2 decode."""
    res = table6_ttft_ttit.run()
    for tp, cp in zip(res.column("TP8 TTIT"), res.column("CP2 TTIT")):
        assert 10 < cp - tp < 25


def test_table6_ttit_flat_in_context():
    """Decode is weight-streaming bound for both configurations."""
    res = table6_ttft_ttit.run()
    for column in ("TP8 TTIT", "CP2 TTIT"):
        ttits = res.column(column)
        assert max(ttits) / min(ttits) < 1.15, column


def test_table7_cp_prefill_beats_tp_at_matching_node_counts():
    ttft = dict(zip(*(table7_parallelism.run().column(c) for c in ("config", "TTFT"))))
    assert ttft["CP2+TP8"] < ttft["TP16"]
    assert ttft["CP4+TP8"] < ttft["TP32"]


def test_table7_decode_degrades_with_hosts():
    """CP TTIT grows with every host added, and TP32 decodes slower than
    TP16."""
    ttit = dict(zip(*(table7_parallelism.run().column(c) for c in ("config", "TTIT"))))
    assert ttit["CP4+TP8"] > ttit["CP2+TP8"] > ttit["CP1+TP8"]
    assert ttit["TP32"] > ttit["TP16"]


def test_table8_attention_op_shrinks_with_ranks():
    for ops in _table8_by_scenario("attn op"):
        assert ops == sorted(ops, reverse=True)


def test_table8_whole_passq_grows_with_ranks():
    """Padded queries and latency-bound SendRecv/All2All outgrow the
    shrinking attention op."""
    for wholes in _table8_by_scenario("whole pass-Q"):
        assert wholes == sorted(wholes)


def _table8_by_scenario(column):
    """``column`` over ranks, once per (context, batch) scenario."""
    res = table8_decode_attention.run()
    by_scenario = {}
    for context, batch, value in zip(res.column("context"), res.column("batch"), res.column(column)):
        by_scenario.setdefault((context, batch), []).append(value)
    return list(by_scenario.values())


# ---------------------------------------------------------------------- #
# Appendix D and the extensions
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fig10():
    pytest.importorskip("scipy")  # the refit is the one thing that needs the "fit" extra
    return {row[0]: row[1] for row in fig10_heuristic.run().rows}


def test_figure10_linear_boundary_separates_the_sweep(fig10):
    assert fig10["boundary agreement"] > 0.9


def test_figure10_higher_miss_rate_favours_passkv(fig10):
    """Appendix D's sign: the fitted beta is positive."""
    assert fig10["fitted beta"] > 0


def test_figure10_misclassifications_cost_little(fig10):
    """Every misclassified point lies where the two variants differ by
    under 15% (the paper: under 1% on its denser production data)."""
    assert fig10["max latency gap among misclassified"] < 0.15


def test_section1_pp_throughput_keeps_pace_with_cp():
    """CP buys latency, PP throughput: saturated PP at 6 hosts is within
    10% of CP's prefill rate."""
    res = pp_vs_cp.run()
    assert res.column("PP prefills/s (saturated)")[-1] > 0.9 * res.column("CP prefills/s")[-1]


def test_section4_3_disaggregation_breaks_even_after_the_kv_wait():
    """One 128K request through the runtime: the decode pool waits once for
    the prompt's whole KV, then saves TTIT on every token. Colocated wins
    the 4-token response, disaggregation every one from 16 tokens, and the
    note's break-even, derived from the measured wait, sits at the flip."""
    res = disaggregation.run()
    winner = dict(zip(res.column("output tokens"), res.column("winner")))
    assert winner[4] == "colocated"
    assert all(w == "disaggregated" for n, w in winner.items() if n >= 16)
    winners = list(winner.values())
    assert sum(a != b for a, b in zip(winners, winners[1:])) == 1
    colo, disagg = (res.column(f"{mode} p50 TTIT (ms)") for mode in ("colocated", "disaggregated"))
    for ttit in (colo, disagg):
        assert max(ttit) / min(ttit) < 1.01
    assert min(colo) > max(disagg)
    break_even = int(re.search(r"Break-even at (\d+) output tokens", res.notes[0]).group(1))
    last_colocated = max(n for n, w in winner.items() if w == "colocated")
    first_disaggregated = min(n for n, w in winner.items() if w == "disaggregated")
    assert last_colocated < break_even <= first_disaggregated


@pytest.fixture(scope="module")
def serving():
    """The Poisson-load sweep: one row per (arrival rate, mode)."""
    return serving_load.run()


def _mode_rows(serving, mode):
    return [row for row in serving.rows if row[1] == mode]


def test_section4_3_serving_rows_alternate_modes(serving):
    modes = serving.column("mode")
    assert modes == ["colocated", "disaggregated"] * (len(modes) // 2)


def test_section4_3_disaggregated_tokens_flow_faster(serving):
    for colo, disagg in zip(_mode_rows(serving, "colocated"), _mode_rows(serving, "disaggregated")):
        assert disagg[4] < colo[4]


def test_section4_3_disaggregation_never_worsens_e2e_latency(serving):
    for colo, disagg in zip(_mode_rows(serving, "colocated"), _mode_rows(serving, "disaggregated")):
        assert disagg[5] <= colo[5]


def test_section4_3_colocated_decode_stalls_grow_with_load(serving):
    per_token = [row[4] for row in _mode_rows(serving, "colocated")]
    assert per_token == sorted(per_token)


def test_section4_3_disaggregated_decode_flat_under_load(serving):
    per_token = [row[4] for row in _mode_rows(serving, "disaggregated")]
    assert max(per_token) / min(per_token) < 1.05
