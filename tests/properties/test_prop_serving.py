"""Property-based tests: serving-simulator conservation and causality."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.config import llama3_405b_config
from repro.perf.hardware import gtt_host
from repro.serving.simulator import Arrival, ClusterServingSimulator

CFG = llama3_405b_config()
HOST = gtt_host()
SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def arrival_stream(draw):
    n = draw(st.integers(1, 8))
    arrivals = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(0.0, 30.0))
        arrivals.append(
            Arrival(
                request_id=i,
                time=t,
                context_tokens=draw(st.sampled_from([8192, 32768, 131072])),
                output_tokens=draw(st.integers(0, 6)),
            )
        )
    disagg = draw(st.booleans())
    ranks = draw(st.sampled_from([1, 2, 4]))
    return arrivals, ranks, disagg


class TestServingInvariants:
    @given(arrival_stream())
    @settings(**SETTINGS)
    def test_all_requests_complete_exactly_once(self, case):
        arrivals, ranks, disagg = case
        sim = ClusterServingSimulator(CFG, HOST, n_ranks=ranks, disaggregated=disagg)
        report = sim.simulate(arrivals)
        assert sorted(c.request_id for c in report.completions) == [
            a.request_id for a in arrivals
        ]

    @given(arrival_stream())
    @settings(**SETTINGS)
    def test_causality(self, case):
        """arrival <= prefill start <= first token <= finish, always."""
        arrivals, ranks, disagg = case
        sim = ClusterServingSimulator(CFG, HOST, n_ranks=ranks, disaggregated=disagg)
        report = sim.simulate(arrivals)
        for c in report.completions:
            assert c.arrival <= c.prefill_start + 1e-12
            assert c.prefill_start < c.first_token
            assert c.first_token <= c.finish + 1e-12

    @given(arrival_stream())
    @settings(**SETTINGS)
    def test_token_conservation(self, case):
        arrivals, ranks, disagg = case
        by_id = {a.request_id: a for a in arrivals}
        sim = ClusterServingSimulator(CFG, HOST, n_ranks=ranks, disaggregated=disagg)
        report = sim.simulate(arrivals)
        for c in report.completions:
            assert c.decoded == by_id[c.request_id].output_tokens

    @given(arrival_stream())
    @settings(**SETTINGS)
    def test_makespan_bounds_everything(self, case):
        arrivals, ranks, disagg = case
        sim = ClusterServingSimulator(CFG, HOST, n_ranks=ranks, disaggregated=disagg)
        report = sim.simulate(arrivals)
        assert report.makespan >= max(c.finish for c in report.completions) - 1e-9

    @given(arrival_stream())
    @settings(**SETTINGS)
    def test_prefill_pool_serializes(self, case):
        """No two prefills overlap on the prefill pool."""
        arrivals, ranks, disagg = case
        sim = ClusterServingSimulator(CFG, HOST, n_ranks=ranks, disaggregated=disagg)
        report = sim.simulate(arrivals)
        windows = sorted(
            (c.prefill_start, c.first_token) for c in report.completions
        )
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            # disaggregated TTFT includes the transfer tail, which overlaps
            # the next prefill; allow that slack
            slack = 0.0
            if disagg:
                slack = max(
                    sim.sim.kv_transfer_s(131072) / CFG.n_layers, 0.0
                )
            assert s2 >= e1 - slack - 1e-9
