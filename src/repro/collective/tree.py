"""Aggregation-tree construction: compile roles, wire the fabric.

The collective data path is a two-level switch tree on a leaf/spine
fabric: every rack's workers attach to a ToR *leaf* that sums the rack's
contributions (``reduce_leaf`` / ``expmax_leaf``), forwards the rack
partial to the spine *root* (``reduce_root`` / ``expmax_root``), and the
root multicasts the cross-rack total back down to every worker host.

The same program text is compiled once per device (§III): each leaf is
pinned with its own ``LEAVES``/``RACK_MASK`` defines and the root with
``NUM_RACKS``, mirroring how a control plane installs one binary per
switch role.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps import compile_app
from repro.collective.job import (
    COMP_EXPMAX,
    COMP_REDUCE,
    CollectiveJob,
    CollectiveWorker,
    OPS,
)
from repro.collective.protocol import SlotCluster
from repro.netsim import DEVICE, HOST, Link, Network, pipeline_latency_ns
from repro.reliability import ReliableChannel, ReliableNetCLDevice
from repro.runtime import KernelSpec, NetCLDevice

ROOT_DEVICE = 100
COLL_MCAST_GROUP = 77

#: standby ToRs live in their own id range so ``leaf_device`` stays dense
STANDBY_BASE = 131


def leaf_device(rack: int) -> int:
    """The device id of rack ``rack``'s primary ToR."""
    return 101 + rack


def standby_device(rack: int) -> int:
    """The device id of rack ``rack``'s standby ToR."""
    return STANDBY_BASE + rack


def compile_role(
    device_id: int,
    *,
    rack: Optional[int] = None,
    num_racks: int = 2,
    workers_per_rack: int = 4,
    root_device: int = ROOT_DEVICE,
    mcast_group: int = COLL_MCAST_GROUP,
    target: str = "tna",
):
    """Compile ``collective.ncl`` for one switch role.

    ``rack=None`` compiles the spine root; otherwise the ToR (primary or
    standby) serving ``rack``, pinned to ``device_id`` and carrying that
    rack's contribution bit.
    """
    defines: dict = {
        "LOCAL_WORKERS": workers_per_rack,
        "NUM_RACKS": num_racks,
        "ROOT_DEV": root_device,
        "COLL_MCAST_GROUP": mcast_group,
    }
    if rack is not None:
        defines["LEAVES"] = str(device_id)
        defines["RACK_MASK"] = 1 << rack
    return compile_app("collective", device_id, target=target, defines=defines)


@dataclass
class CollectiveCluster(SlotCluster):
    """A compiled, wired collective fabric ready to run jobs.

    ``run`` / ``all_done`` / ``require_done`` / ``stall_report`` are the
    shared :class:`~repro.collective.protocol.SlotCluster` lifecycle.
    """

    what = "rank"

    network: Network
    root: NetCLDevice
    leaves: list[NetCLDevice]
    standbys: list[NetCLDevice]
    workers: list[CollectiveWorker]
    compiled: dict[int, object]
    spec_reduce: KernelSpec
    spec_exp: KernelSpec
    num_racks: int
    workers_per_rack: int
    jobs_run: int = 0
    _started: bool = field(default=False, repr=False)

    @property
    def num_workers(self) -> int:
        return self.num_racks * self.workers_per_rack

    def submit(
        self,
        op: str,
        tensors: list[list[float]],
        *,
        name: str = "job",
        root: int = 0,
    ) -> CollectiveJob:
        """Set up one collective over per-rank ``tensors``; run() drives it.

        A second submit on the same cluster resets the switches' slot
        state first (the control plane's between-job epoch bump): a
        finished job leaves its final rounds' bitmap bits set, which
        would alias as in-progress slots for the next job.
        """
        if op not in OPS:
            raise ValueError(f"unknown collective op {op!r} (want one of {OPS})")
        if len(tensors) != self.num_workers:
            raise ValueError(
                f"{len(tensors)} tensors for {self.num_workers} workers"
            )
        if self.jobs_run > 0:
            self.reset_tree()
        self.jobs_run += 1
        num_elements = (
            len(tensors[root])
            if op != "allgather"
            else sum(len(t) for t in tensors)
        )
        job = CollectiveJob(
            name=name,
            op=op,
            num_elements=num_elements,
            root=root,
            num_workers=self.num_workers,
        )
        for w in self.workers:
            w.start_job(job, tensors[w.rank])
        self._started = False
        return job

    def reset_tree(self) -> None:
        """Wipe slot state on every switch of the tree that is still up."""
        for dev in [self.root, *self.leaves, *self.standbys]:
            if self.network.is_up(DEVICE(dev.device_id)):
                dev.reset_state()

    def link_bytes(self) -> int:
        """Total bytes every link carried so far (the traffic metric the
        in-network vs host-ring comparison is about)."""
        return int(self.network.metrics.total("link.tx_bytes."))


def wire_workers(
    net: Network,
    hosts: list[int],
    workers_per_rack: int,
    leaf_ids: list[int],
    leaf_program,
    *,
    window: int,
    exp_group: int,
    timeout_ns: int,
    stagger_ns: int,
    reliable: bool,
    on_channel=lambda rack, channel: None,
) -> list[CollectiveWorker]:
    """One :class:`CollectiveWorker` per host of ``hosts`` (rank order,
    ``workers_per_rack`` to a rack); rack ``r``'s workers address device
    ``leaf_ids[r]``.  The message specs are read off ``leaf_program``.

    ``reliable`` gives every worker a
    :class:`~repro.reliability.ReliableChannel` and reports it through
    ``on_channel(rack, channel)`` — how a service tenant registers its
    channels for retargeting on migration; standalone passes nothing.
    """
    by_comp = {k.computation: k for k in leaf_program.kernels()}
    spec_reduce = KernelSpec.from_kernel(by_comp[COMP_REDUCE])
    spec_exp = KernelSpec.from_kernel(by_comp[COMP_EXPMAX])
    workers: list[CollectiveWorker] = []
    for rank, host_id in enumerate(hosts):
        rack = rank // workers_per_rack
        worker = CollectiveWorker(
            net,
            host_id,
            rank,
            rack,
            spec_reduce,
            spec_exp,
            device_id=leaf_ids[rack],
            window=window,
            timeout_ns=timeout_ns,
            stagger_ns=stagger_ns,
            exp_group=exp_group,
        )
        if reliable:
            # Construct after the worker installed its dispatch so the
            # channel interposes on it.  ack=False: the slot protocol
            # completes every exchange through the reflected result
            # (reflect or multicast), so per-request device ACKs would
            # be pure wire overhead; sequence numbers are still
            # stamped, so the switches' dedup keeps filtering
            # network-duplicated packets.
            worker.channel = ReliableChannel(
                net,
                worker.host,
                spec_reduce,
                target_device=leaf_ids[rack],
                ack=False,
            )
            on_channel(rack, worker.channel)
        workers.append(worker)
    return workers


def build_collective_cluster(
    num_racks: int = 2,
    workers_per_rack: int = 4,
    *,
    window: int = 8,
    exp_group: int = 4,
    timeout_ns: int = 400_000,
    stagger_ns: int = 25_000,
    loss: float = 0.0,
    link_latency_ns: int = 1000,
    bandwidth_gbps: float = 100.0,
    seed: int = 7,
    standby: bool = False,
    reliable: bool = False,
    target: str = "tna",
) -> CollectiveCluster:
    """Compile the tree and wire racks of workers onto a 2-level fabric.

    ``standby=True`` adds a spare ToR per rack (linked to the spine and
    to the rack's hosts) for crash failover; ``reliable=True`` runs the
    switches as :class:`~repro.reliability.ReliableNetCLDevice` (ordered
    per-sender delivery + dedup) and gives every worker a
    :class:`~repro.reliability.ReliableChannel` — the configuration the
    chaos scenarios use.
    """
    if not 2 <= num_racks <= 16:
        raise ValueError("num_racks must be in [2, 16] (rack bits are u16)")
    if not 2 <= workers_per_rack <= 16:
        raise ValueError(
            "workers_per_rack must be in [2, 16] (worker bits are u16)"
        )
    if num_racks * workers_per_rack > 64:
        raise ValueError(
            "at most 64 workers total (the fixed-point sum is exact only "
            "while N * 2^MANTISSA_BITS fits an i32)"
        )

    net = Network(seed=seed)

    def make_device(device_id: int, compiled) -> NetCLDevice:
        if reliable:
            # ordered=True: the slot protocol assumes per-worker FIFO
            # delivery (see run_agg_chaos).
            return ReliableNetCLDevice(
                device_id,
                compiled.module,
                compiled.kernels(),
                metrics=net.metrics,
                ordered=True,
            )
        return NetCLDevice(device_id, compiled.module, compiled.kernels())

    compiled: dict[int, object] = {}

    def add_switch(device_id: int, rack: Optional[int]) -> NetCLDevice:
        prog = compile_role(
            device_id,
            rack=rack,
            num_racks=num_racks,
            workers_per_rack=workers_per_rack,
            target=target,
        )
        compiled[device_id] = prog
        dev = make_device(device_id, prog)
        net.add_switch(dev, processing_ns=pipeline_latency_ns(prog))
        return dev

    def fabric_link(a, b) -> None:
        net.link(
            a,
            b,
            Link(
                latency_ns=link_latency_ns,
                bandwidth_gbps=bandwidth_gbps,
                loss_probability=loss,
            ),
        )

    root = add_switch(ROOT_DEVICE, None)
    leaves: list[NetCLDevice] = []
    standbys: list[NetCLDevice] = []
    for rack in range(num_racks):
        leaf = add_switch(leaf_device(rack), rack)
        leaves.append(leaf)
        fabric_link(DEVICE(leaf.device_id), DEVICE(ROOT_DEVICE))
        if standby:
            spare = add_switch(standby_device(rack), rack)
            standbys.append(spare)
            fabric_link(DEVICE(spare.device_id), DEVICE(ROOT_DEVICE))

    hosts = list(range(1, num_racks * workers_per_rack + 1))
    for rank, host_id in enumerate(hosts):
        rack = rank // workers_per_rack
        net.add_host(host_id)
        fabric_link(HOST(host_id), DEVICE(leaf_device(rack)))
        if standby:
            fabric_link(HOST(host_id), DEVICE(standby_device(rack)))
    workers = wire_workers(
        net,
        hosts,
        workers_per_rack,
        [leaf.device_id for leaf in leaves],
        compiled[leaf_device(0)],
        window=window,
        exp_group=exp_group,
        timeout_ns=timeout_ns,
        stagger_ns=stagger_ns,
        reliable=reliable,
    )
    net.add_multicast_group(COLL_MCAST_GROUP, [HOST(h) for h in hosts])

    return CollectiveCluster(
        network=net,
        root=root,
        leaves=leaves,
        standbys=standbys,
        workers=workers,
        compiled=compiled,
        spec_reduce=workers[0].spec_reduce,
        spec_exp=workers[0].spec_exp,
        num_racks=num_racks,
        workers_per_rack=workers_per_rack,
    )
