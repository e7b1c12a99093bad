"""AGG host side: SwitchML-style workers streaming tensors (§VII, Fig. 14).

Each worker splits its tensor into chunks of ``SLOT_SIZE`` values, keeps a
window of outstanding slots, and advances a slot to its next chunk when
the aggregated result arrives (via the switch's multicast).  Reliability
follows [13]: slots are double-buffered with an alternating version bit
and lost results are recovered by retransmitting the request — the switch
reflects the completed aggregation back (the ``cnt == 0`` path in the
kernel).

The slot/window/version machinery itself lives in
:class:`repro.collective.protocol.SlotStream` — it is shared with the
hierarchical collectives of :mod:`repro.collective`; this module keeps
only what is AGG-specific (integer chunks, the bit-length exponent, the
single-switch cluster builder).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps import compile_app, p4_backend
from repro.collective.protocol import NUM_SLOTS, SlotCluster, SlotStream
from repro.core.driver import CompiledProgram
from repro.deploy.planner import AbstractTopology
from repro.netsim import HOST, Network
from repro.runtime import KernelSpec, NetCLDevice

SLOT_SIZE = 32
AGG_MCAST_GROUP = 42
AGG_DEVICE = 1

__all__ = [
    "AGG_DEVICE",
    "AGG_MCAST_GROUP",
    "AggCluster",
    "AggWorker",
    "NUM_SLOTS",
    "SLOT_SIZE",
    "agg_topology",
    "build_agg_cluster",
    "expected_sum",
]


class AggWorker(SlotStream):
    """One training worker's host logic."""

    def __init__(
        self,
        network: Network,
        host_id: int,
        worker_index: int,
        spec: KernelSpec,
        tensor: list[int],
        *,
        window: int = 16,
        device_id: int = AGG_DEVICE,
    ) -> None:
        num_chunks = (len(tensor) + SLOT_SIZE - 1) // SLOT_SIZE
        super().__init__(
            network,
            host_id,
            worker_index,
            spec,
            num_chunks,
            window=window,
            device_id=device_id,
            comp=1,
        )
        self.tensor = tensor
        self.result: list[int] = [0] * len(tensor)
        self.exponents: list[int] = [0] * num_chunks

    def _chunk_values(self, chunk: int) -> list[int]:
        lo = chunk * SLOT_SIZE
        vals = self.tensor[lo : lo + SLOT_SIZE]
        return vals + [0] * (SLOT_SIZE - len(vals))

    def _chunk_payload(self, chunk: int) -> list:
        values = self._chunk_values(chunk)
        exponent = max((v.bit_length() for v in values), default=0)
        return [exponent, values]

    def _accept_result(self, chunk: int, values: list) -> None:
        exponent, v = values[4], values[5]
        lo = chunk * SLOT_SIZE
        n = min(SLOT_SIZE, len(self.tensor) - lo)
        self.result[lo : lo + n] = v[:n]
        self.exponents[chunk] = exponent
        self.stats.elements_aggregated += n


@dataclass
class AggCluster(SlotCluster):
    network: Network
    device: NetCLDevice
    workers: list[AggWorker]
    compiled: CompiledProgram

    def run(self, until_ms: float = 1000.0, *, require_done: bool = False) -> None:
        """One tensor per cluster, so the default horizon is generous."""
        super().run(until_ms, require_done=require_done)


def agg_topology(hosts: list[int], program, *, spare=None) -> AbstractTopology:
    """The AGG rack, stated once: worker ``hosts`` around one ToR running
    ``program`` (``spare=(id, program)`` adds a standby ToR), and the
    multicast group the aggregate comes back on."""
    topo = AbstractTopology.star(AGG_DEVICE, program, hosts, spare=spare)
    topo.add_multicast_group(AGG_MCAST_GROUP, [HOST(h) for h in hosts])
    return topo


def build_agg_cluster(
    num_workers: int = 2,
    tensor_elements: int = 4096,
    *,
    backend: str = "netcl",
    window: int = 16,
    seed: int = 7,
) -> AggCluster:
    """Compile AGG and wire up the rack: workers around one ToR switch.

    ``backend="netcl"`` runs the compiled NetCL kernel; ``backend="p4"``
    runs our handwritten P4 baseline through the P4 interpreter (the
    paper's "P4" series in Fig. 14 — the host program stays identical).
    """
    compiled = compile_app("agg", AGG_DEVICE, defines={"NUM_WORKERS": num_workers})
    program, device = (
        p4_backend("agg", "const bit<8>  NUM_WORKERS", num_workers)
        if backend == "p4"
        else (compiled, None)
    )
    deployment = agg_topology(list(range(1, num_workers + 1)), program).realise(
        seed=seed, device=device
    )
    net = deployment.network
    rng = random.Random(seed)
    spec = KernelSpec.from_kernel(compiled.kernels()[0])
    workers: list[AggWorker] = []
    for w in range(num_workers):
        tensor = [rng.randrange(0, 1 << 16) for _ in range(tensor_elements)]
        workers.append(AggWorker(net, w + 1, w, spec, tensor, window=window))
    return AggCluster(net, deployment.devices[AGG_DEVICE], workers, compiled)


def expected_sum(cluster: AggCluster) -> list[int]:
    """Ground truth: element-wise (wrapping u32) sum over workers."""
    n = len(cluster.workers[0].tensor)
    out = [0] * n
    for w in cluster.workers:
        for i, v in enumerate(w.tensor):
            out[i] = (out[i] + v) & 0xFFFFFFFF
    return out
