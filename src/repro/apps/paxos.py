"""P4XOS host side: clients proposing values through the in-network
Paxos chain (leader switch -> 3 acceptor switches -> learner switch ->
application host).

The same NetCL program is compiled once per device (§III); ACCEPTOR_ID is
materialized per acceptor at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import compile_app
from repro.deploy.planner import AbstractTopology
from repro.netsim import DEVICE, Network
from repro.runtime import KernelSpec, Message, NetCLDevice
from repro.runtime.message import NetCLPacket, unpack_packet

LEADER_DEV = 1
ACCEPTOR_DEVS = (2, 3, 4)
LEARNER_DEV = 5
ACCEPTOR_MCAST = 43
VALUE_WORDS = 8

MSG_REQUEST, MSG_PHASE2A, MSG_PHASE2B, MSG_DELIVER = 0, 1, 2, 3


@dataclass
class Delivery:
    instance: int
    value: list[int]
    time_ns: int


class PaxosClient:
    def __init__(self, network: Network, host_id: int, app_host_id: int, spec: KernelSpec) -> None:
        self.network = network
        self.host = network.hosts[host_id]
        self.host_id = host_id
        self.app_host_id = app_host_id
        self.spec = spec
        self.proposed = 0

    def propose(self, value: list[int], round_: int = 1) -> None:
        """Submit a value for consensus; it is delivered to the app host."""
        assert len(value) <= VALUE_WORDS
        padded = list(value) + [0] * (VALUE_WORDS - len(value))
        msg = Message(src=self.host_id, dst=self.app_host_id, comp=1, to=LEADER_DEV)
        self.host.send_message(
            msg, self.spec, [MSG_REQUEST, 0, round_, None, None, padded]
        )
        self.proposed += 1


class PaxosApp:
    """The replicated application receiving the chosen sequence."""

    def __init__(self, network: Network, host_id: int, spec: KernelSpec) -> None:
        self.network = network
        self.host = network.hosts[host_id]
        self.host.on_receive = self._on_receive
        self.spec = spec
        self.deliveries: list[Delivery] = []

    def _on_receive(self, packet: NetCLPacket, now_ns: int) -> None:
        values = unpack_packet(packet, self.spec)
        mtype, instance, _round, _vround, _vote, v = values
        if mtype == MSG_DELIVER:
            self.deliveries.append(Delivery(instance, list(v), now_ns))


@dataclass
class PaxosCluster:
    network: Network
    devices: dict[int, NetCLDevice]
    client: PaxosClient
    app: PaxosApp
    spec: KernelSpec
    compiled: dict[int, object]


def paxos_topology(*, majority: int = 2) -> AbstractTopology:
    """The chain, stated once: client (host 1) - leader - acceptors -
    learner - application (host 2), the program compiled once per device."""
    topo = AbstractTopology()
    for dev_id in (LEADER_DEV, *ACCEPTOR_DEVS, LEARNER_DEV):
        acceptor_id = ACCEPTOR_DEVS.index(dev_id) if dev_id in ACCEPTOR_DEVS else 0
        topo.add_device(
            dev_id,
            compile_app(
                "paxos",
                dev_id,
                defines={"ACCEPTOR_ID": acceptor_id, "MAJORITY": majority},
            ),
        )
    for dev_id in ACCEPTOR_DEVS:
        topo.connect_devices(LEADER_DEV, dev_id)
        topo.connect_devices(dev_id, LEARNER_DEV)
    topo.attach_host(1, LEADER_DEV)
    topo.attach_host(2, LEARNER_DEV)
    topo.add_multicast_group(ACCEPTOR_MCAST, [DEVICE(d) for d in ACCEPTOR_DEVS])
    return topo


def build_paxos_cluster(*, majority: int = 2) -> PaxosCluster:
    """Compile the program once per device and build the chain topology."""
    topo = paxos_topology(majority=majority)
    deployment = topo.realise(seed=5)
    net = deployment.network
    spec = KernelSpec.from_kernel(topo.programs[LEADER_DEV].kernels()[0])
    client = PaxosClient(net, 1, 2, spec)
    app = PaxosApp(net, 2, spec)
    return PaxosCluster(net, deployment.devices, client, app, spec, topo.programs)
