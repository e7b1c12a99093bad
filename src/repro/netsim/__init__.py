"""Discrete-event network simulator — the evaluation testbed substitute.

The paper's end-to-end experiments (Fig. 14) run on six 100G servers and a
Tofino switch; this package provides the equivalent simulated fabric:
hosts and NetCL switches connected by links with latency and bandwidth,
a global event queue with nanosecond resolution, and shortest-path
routing between nodes (the base P4 program's forwarding
behavior, under the paper's assumption that the abstract topology *is* the
real topology, §VI-C).  Faults -- loss included -- are injected only
through :mod:`repro.chaos`, whose controller is the network's one
per-hop fault hook.
"""

from repro.netsim.graph import Graph
from repro.netsim.sim import Simulator
from repro.netsim.net import (
    Network,
    Host,
    Switch,
    Link,
    HOST,
    DEVICE,
    NodeKey,
    node_name,
    pipeline_latency_ns,
)

__all__ = [
    "Simulator",
    "Graph",
    "Network",
    "Host",
    "Switch",
    "Link",
    "HOST",
    "DEVICE",
    "NodeKey",
    "node_name",
    "pipeline_latency_ns",
]
