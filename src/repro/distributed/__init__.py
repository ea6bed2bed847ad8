"""Simulated multi-rank distributed runtime.

The paper runs on 1-16 Grand Teton hosts (8x H100 each) where each CP rank
is one host-wide TP8 group and CP communication is an 8-way SendRecv between
peer GPUs holding the same KV head (paper Figure 5). This package replaces
that hardware with an in-process, lockstep simulation that preserves the two
properties the reproduction depends on:

1. **Exact dataflow** — collectives move real NumPy tensors between ranks,
   so the ring algorithms compute real attention and can be checked
   bit-for-bit against single-device execution.
2. **Exact traffic accounting** — with a recorder attached, every
   SendRecv / All2All / AllGather / AllReduce emits a span carrying its
   logical wire bytes (at the model's element size, not NumPy's float64),
   feeding the same roofline the paper uses to decide when communication
   hides under compute.

Modules:

- :mod:`repro.distributed.topology` — cluster wiring (node counts, NIC
  bandwidths, message latencies) with GTT (RDMA) and GTI (TCP) presets.
- :mod:`repro.distributed.process_group` — :class:`SimProcessGroup`, the
  lockstep collective engine.
- :mod:`repro.distributed.ring` — ring-schedule index arithmetic shared by
  all three ring algorithms.

Collectives trace through :mod:`repro.obs.trace` (assign
``group.tracer``); ``repro.obs.comm_totals`` sums the spans by kind.
"""

from repro.distributed.process_group import SimProcessGroup, payload_elements
from repro.distributed.ring import ring_neighbors, source_rank_at_step
from repro.distributed.topology import (
    ClusterTopology,
    gti_topology,
    gtt_topology,
    single_node_topology,
)

__all__ = [
    "ClusterTopology",
    "SimProcessGroup",
    "gti_topology",
    "gtt_topology",
    "payload_elements",
    "ring_neighbors",
    "single_node_topology",
    "source_rank_at_step",
]
