"""CALC host side: the P4-tutorial calculator client."""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import compile_app
from repro.deploy.planner import AbstractTopology
from repro.netsim import Network
from repro.runtime import KernelSpec, Message, NetCLDevice
from repro.runtime.message import NetCLPacket, unpack_packet

CALC_DEVICE = 1

OPS = {"+": ord("+"), "-": ord("-"), "&": ord("&"), "|": ord("|"), "^": ord("^")}


class CalcClient:
    def __init__(self, network: Network, host_id: int, spec: KernelSpec) -> None:
        self.network = network
        self.host = network.hosts[host_id]
        self.host.on_receive = self._on_receive
        self.host_id = host_id
        self.spec = spec
        self.answers: list[int] = []

    def compute(self, op: str, a: int, b: int) -> None:
        msg = Message(src=self.host_id, dst=self.host_id, comp=1, to=CALC_DEVICE)
        self.host.send_message(msg, self.spec, [OPS[op], a, b, None])

    def _on_receive(self, packet: NetCLPacket, now_ns: int) -> None:
        values = unpack_packet(packet, self.spec)
        self.answers.append(values[3])


@dataclass
class CalcCluster:
    network: Network
    device: NetCLDevice
    client: CalcClient
    compiled: object


def build_calc_cluster() -> CalcCluster:
    compiled = compile_app("calc", CALC_DEVICE)
    deployment = AbstractTopology.star(CALC_DEVICE, compiled, [1]).realise(seed=3)
    net = deployment.network
    spec = KernelSpec.from_kernel(compiled.kernels()[0])
    return CalcCluster(
        net, deployment.devices[CALC_DEVICE], CalcClient(net, 1, spec), compiled
    )
