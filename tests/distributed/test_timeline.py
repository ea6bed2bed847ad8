"""Collective spans through the one Chrome exporter (`repro.obs.export`)."""

import json

import numpy as np

from repro.core.ring_passq import ring_passq_prefill
from repro.obs import to_chrome, validate_chrome, write_chrome

from helpers import make_qkv, run_ring, shard_qkv_full_prefill, traced_group


def _spans(trace):
    return [e for e in trace["traceEvents"] if e["ph"] == "X"]


class TestChromeTrace:
    def test_events_and_lanes(self):
        g = traced_group(2)
        g.ring_shift([np.zeros(50)] * 2, step=0, tag="passkv")
        g.ring_shift([np.zeros(50)] * 2, step=1)
        g.all_to_all([[np.zeros(25)] * 2] * 2)
        trace = to_chrome(g.tracer.events)
        spans = _spans(trace)
        assert len(spans) == 3
        # one rail, spans abutting exactly: the stacking check passes
        assert len({(e["pid"], e["tid"]) for e in spans}) == 1
        assert spans[1]["ts"] == spans[0]["ts"] + spans[0]["dur"]
        assert validate_chrome(trace) == []
        lane_names = {
            e["args"]["name"] for e in trace["traceEvents"] if e["name"] == "thread_name"
        }
        assert lane_names == {"pool comm"}

    def test_tag_rides_in_span_args(self):
        """The span is named for its kind; the tag rides in its args."""
        g = traced_group(2)
        g.ring_shift([np.zeros(1)] * 2, step=3, tag="my-op")
        [span] = _spans(to_chrome(g.tracer.events))
        assert span["name"] == "sendrecv" and span["cat"] == "comm"
        assert span["args"] == {"step": 3, "bytes": 2, "tag": "my-op"}

    def test_roundtrip_through_ring_run(self, rng, tmp_path):
        """A real ring run produces a loadable, valid JSON trace."""
        q, k, v = make_qkv(rng, 16, 16)
        queries, kvs = shard_qkv_full_prefill(q, k, v, 3)
        group = traced_group(3)
        run_ring(ring_passq_prefill, group, queries, kvs)
        path = tmp_path / "trace.json"
        write_chrome(group.tracer.events, str(path))
        loaded = json.loads(path.read_text())
        assert {e["name"] for e in _spans(loaded)} == {"sendrecv", "all2all"}
        assert validate_chrome(loaded) == []

    def test_empty_tracer(self):
        assert to_chrome(traced_group(2).tracer.events)["traceEvents"] == []
