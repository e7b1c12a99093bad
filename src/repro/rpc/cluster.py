"""RPC fabric construction: compile switch roles, wire the data path.

The standalone deployment is a three-tier path::

    clients -- EDGE -- SG spine ---- ToR[rack] -- servers[rack]
                  \\__________________/   |
                                      standby ToR (failover)

* the **EDGE** (device 90) runs per-method token-bucket admission for
  both computations and steers admitted traffic through managed MATs
  (``URoute``: method -> ToR, ``SRoute``: method -> spine), so a ToR
  failover is one ``managed_modify`` at the edge — clients never
  retarget;
* each rack's **ToR** (101+rack, standby 131+rack) runs the unary memo
  cache, driven by a journaling :class:`~repro.rpc.memo.MemoController`
  so promotion replays the cache;
* the **SG spine** (91) merges scatter-gather partials; no switch runs
  ``ordered`` mode — the slot merge is guarded by (version, agg index)
  compares and the client checks ver+tag, so FIFO enforcement would
  only stale-drop reordered partials (see :func:`build_rpc_cluster`).

Every switch is a :class:`~repro.reliability.ReliableNetCLDevice`: the
memo ToR rewrites packets (reflected hits need their CRC restamped) and
the same configuration is what :mod:`repro.service` gives a tenant, so
standalone and tenant deployments exercise identical device behavior.
Host-side token refills reuse the service's QoS bucket math
(:class:`TokenRefiller`).

The fabric is stated once, by :func:`rpc_topology`; this module realises
it standalone, :mod:`repro.rpc.tenant` submits it to the service and
:mod:`repro.rpc.baseline` realises its shape with transit switches.
Everything above the switches — method routing, memo controllers, the
refiller, servers and clients — is :func:`wire_rpc_apps`, on whichever
deployment came back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps import compile_app
from repro.collective.protocol import raise_stalled
from repro.collective.tree import leaf_device as tor_device, standby_device
from repro.deploy.planner import AbstractTopology
from repro.netsim import HOST, Network
from repro.reliability import ReliableNetCLDevice, reliable_device
from repro.rpc.client import RpcClient
from repro.rpc.idl import NUM_METHODS, RpcSchema
from repro.rpc.memo import MemoController
from repro.rpc.server import RpcServer
from repro.runtime import KernelSpec
from repro.runtime.constants import DEFAULT_SLOT_TIMEOUT_NS, NUM_SLOTS
from repro.runtime.control import DeviceConnection

EDGE_DEVICE = 90
SG_DEVICE = 91
SG_MCAST_GROUP = 88

#: token budget written for methods with no QoS limit (practically
#: unlimited at simulation timescales; the data plane only decrements).
UNLIMITED_TOKENS = 1 << 30


def compile_rpc_role(
    device_id: int,
    role: str,
    *,
    fanout: int,
    edge_dev: int = EDGE_DEVICE,
    sg_dev: int = SG_DEVICE,
    target: str = "tna",
):
    """Compile ``rpc.ncl`` for one switch role ("edge", "sg", or "tor")."""
    defines: dict = {
        "NUM_METHODS": NUM_METHODS,
        "FANOUT": fanout,
        "EDGE_DEV": edge_dev,
        "SG_DEV": sg_dev,
        "SG_MCAST": SG_MCAST_GROUP,
    }
    if role == "tor":
        defines["TOR_DEVS"] = str(device_id)
    return compile_app("rpc", device_id, target=target, defines=defines)


class TokenRefiller:
    """Host-side refill loop for the edge admission buckets.

    The data plane only spends (``atomic_ssub``); rate enforcement is
    the control plane's: every ``interval_ns`` the refiller accrues
    ``max_pps`` worth of fractional credit per limited method and writes
    ``min(burst, current + whole_credit)`` down — the same
    deterministic ns-clocked bucket semantics as
    :class:`repro.service.qos.TokenBucket`, expressed as managed writes.
    """

    def __init__(
        self, network, conn, schema: RpcSchema, *, interval_ns: int = 50_000
    ) -> None:
        self.network = network
        self.conn = conn
        self.interval_ns = interval_ns
        #: (register, method_id) -> (rate_pps, burst, fractional credit)
        self._limited: dict[tuple[str, int], list] = {}
        self._m_refills = network.metrics.counter("rpc.edge.refills")
        for m in schema.methods:
            reg = "UTokens" if m.kind == "unary" else "STokens"
            if m.qos is not None and m.qos.max_pps is not None:
                self._limited[(reg, m.method_id)] = [
                    float(m.qos.max_pps), int(m.qos.burst), 0.0
                ]
                conn.managed_write(reg, int(m.qos.burst), index=m.method_id)
            else:
                conn.managed_write(reg, UNLIMITED_TOKENS, index=m.method_id)

    def start(self) -> "TokenRefiller":
        if self._limited:
            self.network.sim.after(self.interval_ns, self._tick)
        return self

    def _tick(self) -> None:
        for (reg, mid), state in self._limited.items():
            rate, burst, credit = state
            credit += rate * self.interval_ns / 1e9
            whole = int(credit)
            if whole > 0:
                cur = self.conn.managed_read(reg, index=mid)
                topped = min(burst, cur + whole)
                if topped != cur:
                    self.conn.managed_write(reg, topped, index=mid)
                    self._m_refills.inc()
                credit -= whole
            state[2] = credit
        self.network.sim.after(self.interval_ns, self._tick)


@dataclass
class RpcCluster:
    """A compiled, wired RPC fabric ready to serve calls."""

    #: what the cluster was wired on (a DeploymentPlan, or a service Tenant)
    deployment: object
    network: Network
    schema: RpcSchema
    edge: ReliableNetCLDevice
    sg: ReliableNetCLDevice
    tors: list[ReliableNetCLDevice]
    standbys: list[ReliableNetCLDevice]
    clients: list[RpcClient]
    servers: list[RpcServer]
    memo: dict[int, MemoController]
    edge_conn: DeviceConnection
    refiller: TokenRefiller
    compiled: dict[int, object]
    spec_unary: KernelSpec
    spec_sg: KernelSpec
    num_racks: int
    servers_per_rack: int
    method_rack: dict[int, int]
    method_server: dict[int, int]
    _started: bool = field(default=False, repr=False)

    @property
    def fanout(self) -> int:
        return self.num_racks * self.servers_per_rack

    def run(self, until_ms: float = 50.0) -> None:
        """Drive the simulation (relative horizon, like the collectives)."""
        if not self._started:
            for c in self.clients:
                c.start()
            self._started = True
        sim = self.network.sim
        sim.run(until_ns=sim.now_ns + int(until_ms * 1e6))

    @property
    def all_done(self) -> bool:
        return all(c.all_done for c in self.clients)

    def require_done(self) -> None:
        """Raise :class:`StallError` naming every call still outstanding."""
        raise_stalled(self.stall_report(), what="client")

    def stall_report(self) -> list[str]:
        out = []
        for c in self.clients:
            r = c.stall_report()
            if r is not None:
                out.append(f"client h{c.host_id}: {r}")
        return out

    def link_bytes(self) -> int:
        return int(self.network.metrics.total("link.tx_bytes."))

    def reroute_method(self, method_id: int, device_id: int) -> None:
        """Repoint one unary method's ToR at the edge (failover path)."""
        self.edge_conn.managed_modify("URoute", method_id, device_id)


def server_host(index: int, num_clients: int) -> int:
    """Host id of global replica ``index`` (clients occupy 1..num_clients)."""
    return num_clients + 1 + index


def check_rpc_shape(schema: RpcSchema, handlers: dict) -> None:
    """Reject a schema the servers cannot serve, before any switch is
    compiled or any tenant admitted."""
    for name in (m.name for m in schema.methods):
        if name not in handlers:
            raise ValueError(f"no handler for method {name!r}")


def rpc_topology(
    num_racks: int,
    client_hosts: list[int],
    server_hosts: list[int],
    *,
    edge: int = EDGE_DEVICE,
    sg: int = SG_DEVICE,
    tor=tor_device,
    spare=None,
    target: Optional[str] = "tna",
) -> AbstractTopology:
    """The RPC fabric, stated once: ``edge`` -- ``sg`` spine, a
    ``tor(rack)`` per rack linked to both (each with a standby
    ``spare(rack)`` when given), clients on the edge, ``server_hosts`` in
    replica-index order split evenly over the racks, and the scatter
    group of all servers.  ``target=None`` declares the shape only --
    nothing is compiled -- which is the host fan-out baseline's fabric.
    """
    fanout = len(server_hosts)
    if not 1 <= fanout <= 16:
        raise ValueError("fanout must be in [1, 16] (replica bits are u16)")
    if fanout % num_racks != 0:
        raise ValueError(f"{fanout} servers do not split into {num_racks} racks")
    servers_per_rack = fanout // num_racks

    def program(device_id: int, role: str):
        if target is None:
            return None
        return compile_rpc_role(
            device_id, role, fanout=fanout, edge_dev=edge, sg_dev=sg, target=target
        )

    # RPC hosts model a single-core packet path: per-packet overhead
    # serializes, on both sides of the fan-out comparison.
    topo = AbstractTopology(serialize_overheads=True)
    topo.add_device(edge, program(edge, "edge"), "edge")
    topo.add_device(sg, program(sg, "sg"), "sg")
    topo.connect_devices(edge, sg)
    for rack in range(num_racks):
        # every ToR and standby runs the program compiled at ``tor(0)``:
        # the memo cache is the same on every rack
        topo.add_device(tor(rack), program(tor(0), "tor"), "tor")
        topo.connect_devices(tor(rack), edge)
        topo.connect_devices(tor(rack), sg)
        if spare is not None:
            topo.add_device(spare(rack), program(tor(0), "tor"), spare_of=tor(rack))
    for h in client_hosts:
        topo.attach_host(h, edge)
    for i, h in enumerate(server_hosts):
        topo.attach_host(h, tor(i // servers_per_rack))
    topo.add_multicast_group(SG_MCAST_GROUP, [HOST(h) for h in server_hosts])
    return topo


def wire_rpc_apps(
    cls,
    deployment,
    schema: RpcSchema,
    handlers: dict,
    *,
    memo_tag: str,
    window: int,
    gather_rounds: int,
    timeout_ns: int,
    refill_interval_ns: int,
    **tenant,
) -> RpcCluster:
    """The ``cls`` cluster on a realised :func:`rpc_topology`: everything
    above the switches, for any deployment of the roles.

    ``deployment`` is what realising the topology returned -- a
    standalone :class:`~repro.deploy.planner.DeploymentPlan` or a service
    :class:`~repro.service.Tenant`.  The edge's routing MATs hold the
    topology's *abstract* ids; ``deployment.address(id)`` is the
    id *hosts* put on the wire to reach that program (a tenant's
    fabric-global id under :mod:`repro.service`), ``control(id)`` its
    control connection (journaling where failover or migration must
    replay it), and every host channel is registered with the
    deployment under the role it targets.  ``memo_tag`` prefixes the
    memo controllers' metric names; ``tenant`` are the extra fields of a
    tenant ``cls``.  Unary methods are spread over racks by ``method_id
    % num_racks`` and over a rack's servers by ``method_id // num_racks``.
    """
    topo, net = deployment.topology, deployment.network
    (edge_id,), (sg_id,), tor_ids = (topo.roles[r] for r in ("edge", "sg", "tor"))
    hosts_at = topo.host_attachments
    client_hosts = [h for h, d in hosts_at.items() if d == edge_id]
    server_hosts = [h for h, d in hosts_at.items() if d != edge_id]
    num_racks = len(tor_ids)
    servers_per_rack = len(server_hosts) // num_racks
    edge_kernels = {k.computation: k for k in topo.programs[edge_id].kernels()}
    spec_unary = KernelSpec.from_kernel(edge_kernels[1])
    spec_sg = KernelSpec.from_kernel(edge_kernels[2])

    # -- control plane ------------------------------------------------------------
    edge_conn = deployment.control(edge_id)
    method_rack: dict[int, int] = {}
    method_server: dict[int, int] = {}
    for m in schema.methods:
        if m.kind == "unary":
            rack = m.method_id % num_racks
            within = (m.method_id // num_racks) % servers_per_rack
            method_rack[m.method_id] = rack
            method_server[m.method_id] = server_hosts[rack * servers_per_rack + within]
            edge_conn.managed_insert("URoute", m.method_id, tor_ids[rack])
        else:
            edge_conn.managed_insert("SRoute", m.method_id, sg_id)
    memo = {
        rack: MemoController(
            deployment.control(tor), metrics=net.metrics, tag=f"{memo_tag}r{rack}"
        )
        for rack, tor in enumerate(tor_ids)
    }
    refiller = TokenRefiller(
        net, edge_conn, schema, interval_ns=refill_interval_ns
    ).start()

    # -- applications -------------------------------------------------------------
    servers = []
    for i, h in enumerate(server_hosts):
        server = RpcServer(
            net,
            h,
            schema,
            handlers,
            replica_index=i,
            sg_device=deployment.address(sg_id),
            spec_unary=spec_unary,
            spec_sg=spec_sg,
            memo=memo[i // servers_per_rack],
        )
        deployment.register_channel(sg_id, server.channel)
        servers.append(server)
    slots_per_client = NUM_SLOTS // max(1, len(client_hosts))
    clients = []
    for c, h in enumerate(client_hosts):
        client = RpcClient(
            net,
            h,
            schema,
            edge_device=deployment.address(edge_id),
            spec_unary=spec_unary,
            spec_sg=spec_sg,
            method_servers=method_server,
            slot_base=c * slots_per_client,
            window=min(window, slots_per_client),
            gather_rounds=gather_rounds,
            timeout_ns=timeout_ns,
        )
        deployment.register_channel(edge_id, client.channel)
        clients.append(client)
    return cls(
        deployment=deployment,
        network=net,
        schema=schema,
        edge=deployment.devices[edge_id],
        sg=deployment.devices[sg_id],
        tors=[deployment.devices[d] for d in tor_ids],
        standbys=[deployment.devices[d] for d in topo.spares.values()],
        clients=clients,
        servers=servers,
        memo=memo,
        edge_conn=edge_conn,
        refiller=refiller,
        compiled=topo.programs,
        spec_unary=spec_unary,
        spec_sg=spec_sg,
        num_racks=num_racks,
        servers_per_rack=servers_per_rack,
        method_rack=method_rack,
        method_server=method_server,
        **tenant,
    )


def build_rpc_cluster(
    schema: RpcSchema,
    handlers: dict,
    *,
    num_racks: int = 2,
    servers_per_rack: int = 2,
    num_clients: int = 1,
    window: int = 8,
    gather_rounds: int = 64,
    seed: int = 7,
    standby: bool = False,
) -> RpcCluster:
    """Compile the switch roles and wire the whole RPC fabric.

    ``handlers`` maps method name -> callable: ``fn(request)`` for unary
    methods, ``fn(request, replica_index)`` for gather methods (pure —
    see :class:`~repro.rpc.server.RpcServer`).  Unary methods are spread
    over racks by ``method_id % num_racks`` and over a rack's servers by
    ``method_id // num_racks``.
    """
    check_rpc_shape(schema, handlers)
    deployment = rpc_topology(
        num_racks,
        list(range(1, num_clients + 1)),
        [server_host(i, num_clients) for i in range(num_racks * servers_per_rack)],
        spare=standby_device if standby else None,
    ).realise(
        seed=seed,
        # No ordered mode anywhere, spine included: every partial is
        # guarded by the slot's (version, agg index) compare and the
        # client checks ver+tag on results, so a late packet is harmless
        # unless it spans TWO slot generations — impossible here, since a
        # slot is only reused after its previous round completed (≥ one
        # full RTT) while in-flight delay is bounded by reorder_delay +
        # jitter.  FIFO enforcement would instead *drop* every reordered
        # partial, and each such drop costs a full re-scatter to all
        # FANOUT replicas.
        device=reliable_device(ordered=False),
    )
    return wire_rpc_apps(
        RpcCluster,
        deployment,
        schema,
        handlers,
        memo_tag="",
        window=window,
        gather_rounds=gather_rounds,
        timeout_ns=DEFAULT_SLOT_TIMEOUT_NS,
        refill_interval_ns=50_000,
    )
