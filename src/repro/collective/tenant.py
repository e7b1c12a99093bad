"""Run a collective as a :mod:`repro.service` tenant.

The standalone :mod:`repro.collective.tree` owns its whole fabric; here
the same aggregation tree is expressed as an *abstract* topology (root
device 1, one leaf per rack) and submitted to a long-lived
:class:`~repro.service.INCService`, which places it into whatever
headroom other tenants left, enforces the tenant's QoS, and live-migrates
the slices off crashed switches.  The collective's slot streams ride the
service's ReliableChannels, so a migration is absorbed the same way a
standby failover is: the control plane retargets the channels and the
``on_migrate`` hook restarts every in-flight round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.collective.protocol import resync_streams
from repro.collective.tree import (
    COLL_MCAST_GROUP,
    CollectiveCluster,
    compile_role,
    wire_workers,
)
from repro.netsim import HOST
from repro.service import INCService, Tenant, TenantQoS

#: abstract device ids the collective program is written against.
ABSTRACT_ROOT = 1


def abstract_leaf(rack: int) -> int:
    """The abstract device id of rack ``rack``'s leaf."""
    return 2 + rack


@dataclass(kw_only=True)
class CollectiveTenant(CollectiveCluster):
    """One admitted collective tenant: a :class:`CollectiveCluster` whose
    ``root`` and ``leaves`` are the tenant's slices of a shared fabric
    (``compiled`` is keyed by abstract device id, there are no standbys).
    Job lifecycle, stall diagnostics and traffic accounting are the
    cluster's."""

    service: INCService
    tenant_id: str
    tenant: Tenant

    #: :meth:`CollectiveCluster.submit` under its tenant-side name
    submit_job = CollectiveCluster.submit

    def reset_tree(self) -> None:
        """The between-job wipe touches this tenant's slices only."""
        for dev in self.tenant.devices.values():
            dev.reset_state()

    # -- migration ----------------------------------------------------------------
    def resync(self) -> None:
        """Restart every in-flight round (migration lost the slot state).

        A migrated leaf lost its rack partials; a migrated root lost the
        cross-rack totals.  The control plane doesn't say which slice
        moved, so every worker's streams restart together (see
        :func:`~repro.collective.protocol.resync_streams`) — spurious
        re-contributions land on completed slots and are answered by
        re-multicast, which the hosts reject by round tag.
        """
        resync_streams(w.exp for w in self.workers)
        resync_streams(w.reduce for w in self.workers)


def submit_collective_tenant(
    service: INCService,
    tenant_id: str,
    hosts: list[int],
    *,
    num_racks: int = 2,
    qos: Optional[TenantQoS] = None,
    window: int = 8,
    exp_group: int = 4,
    timeout_ns: int = 400_000,
    stagger_ns: int = 25_000,
    target: str = "tna",
) -> CollectiveTenant:
    """Admit a collective tenant onto ``service``'s shared fabric.

    ``hosts`` are the worker hosts in rank order, split evenly into
    ``num_racks`` racks; rack ``r``'s workers attach to abstract leaf
    ``2 + r``.  Raises :class:`~repro.service.AdmissionError` if the
    fabric has no headroom for the tree.
    """
    if len(hosts) % num_racks != 0:
        raise ValueError(f"{len(hosts)} hosts do not split into {num_racks} racks")
    workers_per_rack = len(hosts) // num_racks
    from repro.deploy.planner import AbstractTopology

    topo = AbstractTopology()

    def compile_at(abstract_id: int, rack: Optional[int]) -> None:
        prog = compile_role(
            abstract_id,
            rack=rack,
            num_racks=num_racks,
            workers_per_rack=workers_per_rack,
            root_device=ABSTRACT_ROOT,
            mcast_group=COLL_MCAST_GROUP,
            target=target,
        )
        topo.add_device(abstract_id, prog)

    compile_at(ABSTRACT_ROOT, None)
    for rack in range(num_racks):
        compile_at(abstract_leaf(rack), rack)
        topo.connect_devices(abstract_leaf(rack), ABSTRACT_ROOT)
    for rank, h in enumerate(hosts):
        topo.attach_host(h, abstract_leaf(rank // workers_per_rack))
    topo.add_multicast_group(COLL_MCAST_GROUP, [HOST(h) for h in hosts])

    # The slot protocol assumes per-sender FIFO delivery.
    qos = qos or TenantQoS(ordered=True)
    tenant = service.submit(tenant_id, topo, qos)
    workers = wire_workers(
        service.network,
        hosts,
        workers_per_rack,
        [tenant.abstract_to_gid[abstract_leaf(r)] for r in range(num_racks)],
        topo.programs[abstract_leaf(0)],
        window=window,
        exp_group=exp_group,
        timeout_ns=timeout_ns,
        stagger_ns=stagger_ns,
        reliable=True,
        on_channel=lambda rack, channel: service.register_channel(
            tenant_id, abstract_leaf(rack), channel
        ),
    )
    ct = CollectiveTenant(
        network=service.network,
        root=tenant.devices[ABSTRACT_ROOT],
        leaves=[tenant.devices[abstract_leaf(r)] for r in range(num_racks)],
        standbys=[],
        workers=workers,
        compiled=topo.programs,
        spec_reduce=workers[0].spec_reduce,
        spec_exp=workers[0].spec_exp,
        num_racks=num_racks,
        workers_per_rack=workers_per_rack,
        service=service,
        tenant_id=tenant_id,
        tenant=tenant,
    )
    tenant.on_migrate = lambda service, tenant: ct.resync()
    return ct
