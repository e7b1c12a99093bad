"""Run the RPC fabric as a :mod:`repro.service` tenant.

The standalone :mod:`repro.rpc.cluster` owns its whole fabric; here the
same :func:`~repro.rpc.cluster.rpc_topology` is stated over abstract ids
(edge device 1, spine 2, one ToR per rack from 3) and submitted to a
long-lived :class:`~repro.service.INCService`, which places them into
whatever headroom other tenants left, enforces the tenant's QoS, and
live-migrates the slices off crashed switches.  Every control-plane
handle is the service's journaling
:meth:`~repro.service.INCService.control` connection, so a migration
re-installs the edge's routing MATs and token buckets *and* the ToR's
entire memoization cache from the compacted journal; the clients' and
servers' ReliableChannels are registered with the service, which
retargets them at the replacement slice.  The ``on_migrate`` hook only
has to restart in-flight gather rounds (the spine's slot state moved);
unary calls re-resolve through their own retries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collective.protocol import resync_streams
from repro.rpc.cluster import RpcCluster, check_rpc_shape, rpc_topology, wire_rpc_apps
from repro.rpc.idl import RpcSchema
from repro.runtime.constants import DEFAULT_SLOT_TIMEOUT_NS
from repro.service import INCService, TenantQoS

#: abstract device ids the RPC program is written against.
ABSTRACT_EDGE = 1
ABSTRACT_SG = 2


def abstract_tor(rack: int) -> int:
    """The abstract device id of rack ``rack``'s ToR."""
    return 3 + rack


@dataclass(kw_only=True)
class RpcTenant(RpcCluster):
    """One admitted RPC tenant: an :class:`RpcCluster` whose ``edge``,
    ``sg`` and ``tors`` are the tenant's slices of a shared fabric
    (``compiled`` is keyed by abstract device id, there are no standbys)
    and whose control connections are the service's journaling ones; its
    ``deployment`` is the admission record (a
    :class:`~repro.service.Tenant`)."""

    tenant_id: str

    # -- migration ----------------------------------------------------------------
    def resync(self) -> None:
        """Restart every in-flight gather round.

        A migrated spine slice lost its slot merge state (bitmaps,
        partial sums, countdowns); re-sending each outstanding round's
        scatter rebuilds it — servers recompute their pure partials and
        completed rounds answer straight from the merge registers.
        Unary calls need nothing: their retry timers re-send through
        the retargeted channel.
        """
        for c in self.clients:
            # each client's stream owns its own slot range
            resync_streams([c.gather_stream])


def submit_rpc_tenant(
    service: INCService,
    tenant_id: str,
    schema: RpcSchema,
    handlers: dict,
    *,
    client_hosts: list[int],
    server_hosts: list[int],
    num_racks: int = 2,
) -> RpcTenant:
    """Admit an RPC tenant onto ``service``'s shared fabric.

    ``server_hosts`` are the replica hosts in replica-index order, split
    evenly into ``num_racks`` racks; rack ``r``'s servers attach to
    abstract ToR ``3 + r``.  Raises
    :class:`~repro.service.AdmissionError` if the fabric has no headroom
    for the three roles.
    """
    check_rpc_shape(schema, handlers)
    topo = rpc_topology(
        num_racks, client_hosts, server_hosts,
        edge=ABSTRACT_EDGE, sg=ABSTRACT_SG, tor=abstract_tor,
    )
    # No ordered mode: same argument as the standalone cluster (the
    # guarded slot merge plus the client's ver+tag checks make FIFO
    # enforcement pure stale-drop overhead).
    tenant = service.submit(tenant_id, topo, TenantQoS())
    # Every control handle is a journaling connection the migration
    # replays; MAT values stay *abstract* ids (the slice wrapper
    # translates forwarding targets back to global ids on egress).
    rt = wire_rpc_apps(
        RpcTenant,
        tenant,
        schema,
        handlers,
        memo_tag=f"{tenant_id}.",
        window=8,
        gather_rounds=64,
        timeout_ns=DEFAULT_SLOT_TIMEOUT_NS,
        refill_interval_ns=50_000,
        tenant_id=tenant_id,
    )
    tenant.on_migrate = lambda service, tenant: rt.resync()
    return rt
