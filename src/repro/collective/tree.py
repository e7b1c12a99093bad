"""Aggregation-tree construction: compile roles, state the shape, wire
the workers.

The collective data path is a two-level switch tree on a leaf/spine
fabric: every rack's workers attach to a ToR *leaf* that sums the rack's
contributions (``reduce_leaf`` / ``expmax_leaf``), forwards the rack
partial to the spine *root* (``reduce_root`` / ``expmax_root``), and the
root multicasts the cross-rack total back down to every worker host.

The same program text is compiled once per switch program (§III): the
root with ``NUM_RACKS``, each rack's leaf with its ``RACK_MASK`` (pinned
``_at`` its primary ToR through ``LEAVES``), and a rack's standby runs
its primary's program, as a control plane installs one binary on every
switch of a role.

The tree is stated once, by :func:`collective_topology`; the standalone
cluster, the service tenant (:mod:`repro.collective.tenant`) and the
host-ring baseline's transit fabric are realisations of it, and
:func:`wire_workers` puts the workers on whichever came back.
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
from repro.deploy.planner import AbstractTopology
from repro.netsim import DEVICE, HOST, Network
from repro.reliability import ReliableChannel, reliable_device
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
    target: str = "tna",
):
    """Compile ``collective.ncl`` for one switch role.

    ``rack=None`` compiles the spine root; otherwise the ToR serving
    ``rack``, pinned to ``device_id`` and carrying that rack's
    contribution bit (the rack's standby runs the same program).
    """
    defines: dict = {
        "LOCAL_WORKERS": workers_per_rack,
        "NUM_RACKS": num_racks,
        "ROOT_DEV": root_device,
        "COLL_MCAST_GROUP": COLL_MCAST_GROUP,
    }
    if rack is not None:
        defines["LEAVES"] = str(device_id)
        defines["RACK_MASK"] = 1 << rack
    return compile_app("collective", device_id, target=target, defines=defines)


@dataclass
class CollectiveCluster(SlotCluster):
    """A compiled, wired collective fabric ready to run jobs.

    ``run`` / ``require_done`` / ``stall_report`` are the
    shared :class:`~repro.collective.protocol.SlotCluster` lifecycle.
    """

    what = "rank"

    #: what the cluster was wired on (a DeploymentPlan, or a service Tenant)
    deployment: object
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


def collective_topology(
    num_racks: int,
    hosts: list[int],
    *,
    root: int = ROOT_DEVICE,
    leaf=leaf_device,
    spare=None,
    target: Optional[str] = "tna",
) -> AbstractTopology:
    """The aggregation tree, stated once: spine ``root``, a ``leaf(rack)``
    ToR per rack (each with a standby ``spare(rack)`` when given),
    ``hosts`` in rank order split evenly over the racks, and the
    multicast group of all of them.  ``target=None`` declares the shape
    only -- nothing is compiled -- which is the host-ring baseline's
    transit fabric."""
    if not 2 <= num_racks <= 16:
        raise ValueError("num_racks must be in [2, 16] (rack bits are u16)")
    if len(hosts) % num_racks != 0:
        raise ValueError(f"{len(hosts)} hosts do not split into {num_racks} racks")
    workers_per_rack = len(hosts) // num_racks
    if not 2 <= workers_per_rack <= 16:
        raise ValueError(
            "workers_per_rack must be in [2, 16] (worker bits are u16)"
        )
    if len(hosts) > 64:
        raise ValueError(
            "at most 64 workers total (the fixed-point sum is exact only "
            "while N * 2^MANTISSA_BITS fits an i32)"
        )

    def program(rack: Optional[int] = None):
        """The root's program, or ``rack``'s leaf program: its primary and
        its standby ask for the same one, so the standby's is a cache hit."""
        if target is None:
            return None
        return compile_role(
            root if rack is None else leaf(rack),
            rack=rack,
            num_racks=num_racks,
            workers_per_rack=workers_per_rack,
            root_device=root,
            target=target,
        )

    topo = AbstractTopology()
    topo.add_device(root, program(), "root")
    for rack in range(num_racks):
        topo.add_device(leaf(rack), program(rack), "leaf")
        topo.connect_devices(leaf(rack), root)
        if spare is not None:
            topo.add_device(spare(rack), program(rack), spare_of=leaf(rack))
    for rank, host_id in enumerate(hosts):
        topo.attach_host(host_id, leaf(rank // workers_per_rack))
    topo.add_multicast_group(COLL_MCAST_GROUP, [HOST(h) for h in hosts])
    return topo


def wire_workers(
    cls,
    deployment,
    *,
    window: int,
    exp_group: int,
    timeout_ns: int,
    stagger_ns: int,
    reliable: bool,
    **tenant,
) -> CollectiveCluster:
    """The ``cls`` cluster on a realised :func:`collective_topology`: one
    :class:`CollectiveWorker` per attached host, in rank order.

    ``deployment`` is what realising the topology returned -- a
    standalone :class:`~repro.deploy.planner.DeploymentPlan` or a service
    :class:`~repro.service.Tenant`; it says which network the hosts are
    on and which id reaches a leaf's program.  ``reliable`` gives every
    worker a :class:`~repro.reliability.ReliableChannel` and registers it
    with the deployment (how a tenant's channels get retargeted on
    migration).  ``tenant`` are the extra fields of a tenant ``cls``.
    """
    topo, net = deployment.topology, deployment.network
    leaves = topo.roles["leaf"]
    by_comp = {k.computation: k for k in topo.programs[leaves[0]].kernels()}
    spec_reduce = KernelSpec.from_kernel(by_comp[COMP_REDUCE])
    spec_exp = KernelSpec.from_kernel(by_comp[COMP_EXPMAX])
    workers: list[CollectiveWorker] = []
    for rank, (host_id, leaf) in enumerate(topo.host_attachments.items()):
        worker = CollectiveWorker(
            net,
            host_id,
            rank,
            leaves.index(leaf),
            spec_reduce,
            spec_exp,
            device_id=deployment.address(leaf),
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
                target_device=deployment.address(leaf),
                ack=False,
            )
            deployment.register_channel(leaf, worker.channel)
        workers.append(worker)
    return cls(
        deployment=deployment,
        network=net,
        root=deployment.devices[topo.roles["root"][0]],
        leaves=[deployment.devices[d] for d in leaves],
        standbys=[deployment.devices[d] for d in topo.spares.values()],
        workers=workers,
        compiled=topo.programs,
        spec_reduce=spec_reduce,
        spec_exp=spec_exp,
        num_racks=len(leaves),
        workers_per_rack=len(workers) // len(leaves),
        **tenant,
    )


def build_collective_cluster(
    num_racks: int = 2,
    workers_per_rack: int = 4,
    *,
    window: int = 8,
    exp_group: int = 4,
    timeout_ns: int = 400_000,
    stagger_ns: int = 25_000,
    seed: int = 7,
    standby: bool = False,
    reliable: bool = False,
) -> CollectiveCluster:
    """Compile the tree and wire racks of workers onto a 2-level fabric.

    ``standby=True`` adds a spare ToR per rack (linked to the spine and
    to the rack's hosts) for crash failover; ``reliable=True`` runs the
    switches as :class:`~repro.reliability.ReliableNetCLDevice` (ordered
    per-sender delivery + dedup) and gives every worker a
    :class:`~repro.reliability.ReliableChannel` — the configuration the
    chaos scenarios use.
    """
    deployment = collective_topology(
        num_racks,
        list(range(1, num_racks * workers_per_rack + 1)),
        spare=standby_device if standby else None,
    ).realise(
        seed=seed,
        # ordered=True: the slot protocol assumes per-worker FIFO
        # delivery (see run_agg_chaos).
        device=reliable_device(ordered=True) if reliable else None,
    )
    return wire_workers(
        CollectiveCluster,
        deployment,
        window=window,
        exp_group=exp_group,
        timeout_ns=timeout_ns,
        stagger_ns=stagger_ns,
        reliable=reliable,
    )
