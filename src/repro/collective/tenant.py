"""Run a collective as a :mod:`repro.service` tenant.

The standalone :mod:`repro.collective.tree` owns its whole fabric; here
the same :func:`~repro.collective.tree.collective_topology` is stated
over abstract ids (root device 1, one leaf per rack) and submitted to a
long-lived
:class:`~repro.service.INCService`, which places it into whatever
headroom other tenants left, enforces the tenant's QoS, and live-migrates
the slices off crashed switches.  The collective's slot streams ride the
service's ReliableChannels, so a migration is absorbed the same way a
standby failover is: the control plane retargets the channels and the
``on_migrate`` hook restarts every in-flight round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collective.protocol import resync_streams
from repro.collective.tree import CollectiveCluster, collective_topology, wire_workers
from repro.service import INCService, TenantQoS

#: abstract device ids the collective program is written against.
ABSTRACT_ROOT = 1


def abstract_leaf(rack: int) -> int:
    """The abstract device id of rack ``rack``'s leaf."""
    return 2 + rack


@dataclass(kw_only=True)
class CollectiveTenant(CollectiveCluster):
    """One admitted collective tenant: a :class:`CollectiveCluster` whose
    ``root`` and ``leaves`` are the tenant's slices of a shared fabric
    (``compiled`` is keyed by abstract device id, there are no standbys),
    so the between-job wipe touches this tenant's slices only.  Job
    lifecycle, stall diagnostics and traffic accounting are the cluster's;
    its ``deployment`` is the service's admission record (a
    :class:`~repro.service.Tenant`)."""

    tenant_id: str

    #: :meth:`CollectiveCluster.submit` under its tenant-side name
    submit_job = CollectiveCluster.submit

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
) -> CollectiveTenant:
    """Admit a collective tenant onto ``service``'s shared fabric.

    ``hosts`` are the worker hosts in rank order, split evenly into
    ``num_racks`` racks; rack ``r``'s workers attach to abstract leaf
    ``2 + r``.  Raises :class:`~repro.service.AdmissionError` if the
    fabric has no headroom for the tree.
    """
    topo = collective_topology(num_racks, hosts, root=ABSTRACT_ROOT, leaf=abstract_leaf)
    # The slot protocol assumes per-sender FIFO delivery.
    tenant = service.submit(tenant_id, topo, TenantQoS(ordered=True))
    ct = wire_workers(
        CollectiveTenant,
        tenant,
        window=8,
        exp_group=4,
        timeout_ns=400_000,
        stagger_ns=25_000,
        reliable=True,
        tenant_id=tenant_id,
    )
    tenant.on_migrate = lambda service, tenant: ct.resync()
    return ct
