"""P4XOS host side: clients proposing values through the in-network
Paxos chain (leader switch -> 3 acceptor switches -> learner switch ->
application host).

The same NetCL program is compiled once per device (§III); ACCEPTOR_ID is
materialized per acceptor at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import compile_app
from repro.netsim import DEVICE, HOST, Link, Network, pipeline_latency_ns
from repro.runtime import KernelSpec, Message, NetCLDevice
from repro.runtime.message import NetCLPacket, unpack

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
        _, values = unpack(packet.to_wire(), self.spec)
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


def build_paxos_cluster(
    *,
    target: str = "tna",
    majority: int = 2,
    link_latency_ns: int = 1000,
    seed: int = 5,
) -> PaxosCluster:
    """Compile the program once per device and build the chain topology."""
    net = Network(seed=seed)
    devices: dict[int, NetCLDevice] = {}
    compiled: dict[int, object] = {}

    def make_device(dev_id: int, acceptor_id: int = 0) -> NetCLDevice:
        cp = compile_app(
            "paxos",
            dev_id,
            target=target,
            defines={"ACCEPTOR_ID": acceptor_id, "MAJORITY": majority},
        )
        compiled[dev_id] = cp
        dev = NetCLDevice(dev_id, cp.module, cp.kernels())
        net.add_switch(dev, processing_ns=pipeline_latency_ns(cp))
        devices[dev_id] = dev
        return dev

    make_device(LEADER_DEV)
    for i, dev_id in enumerate(ACCEPTOR_DEVS):
        make_device(dev_id, acceptor_id=i)
    make_device(LEARNER_DEV)

    # Topology: client - leader - acceptors - learner - app host.
    net.add_host(1)  # client
    net.add_host(2)  # application
    net.link(HOST(1), DEVICE(LEADER_DEV), Link(latency_ns=link_latency_ns))
    for dev_id in ACCEPTOR_DEVS:
        net.link(DEVICE(LEADER_DEV), DEVICE(dev_id), Link(latency_ns=link_latency_ns))
        net.link(DEVICE(dev_id), DEVICE(LEARNER_DEV), Link(latency_ns=link_latency_ns))
    net.link(DEVICE(LEARNER_DEV), HOST(2), Link(latency_ns=link_latency_ns))
    net.add_multicast_group(ACCEPTOR_MCAST, [DEVICE(d) for d in ACCEPTOR_DEVS])

    any_cp = compiled[LEADER_DEV]
    spec = KernelSpec.from_kernel(any_cp.kernels()[0])  # type: ignore[attr-defined]
    client = PaxosClient(net, 1, 2, spec)
    app = PaxosApp(net, 2, spec)
    return PaxosCluster(net, devices, client, app, spec, compiled)
