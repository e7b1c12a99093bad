"""Adapter: a handwritten P4 program as a netsim switch device.

Speaks the same NetCL wire format as the generated path (§VI-C): the
driver synthesizes Ethernet/IPv4/UDP bytes around the NetCL shim header,
feeds the packet through the P4 parser → ingress → deparser, and converts
the program's forwarding metadata back into a :class:`ForwardDecision`.

Conventions the handwritten baselines follow (we wrote both sides):

* headers named ``ethernet``/``ipv4``/``udp``/``netcl`` plus app args;
* UDP destination port ``NETCL_PORT`` (9000) marks NetCL traffic;
* ingress writes ``md.fwd_kind`` (``FWD_*``: 0 host, 1 device,
  2 multicast, 3 drop) and ``md.fwd_target``;
* the parser, ingress and deparser are named :data:`NAMES`.

The port and the codes are defined in :mod:`repro.runtime.constants`,
and the generated program follows them too.
"""

from __future__ import annotations

import functools

from repro.p4 import ast
from repro.p4.compiled import P4Engine
from repro.runtime.constants import FWD_DEVICE, FWD_DROP, FWD_HOST, FWD_MCAST, NETCL_PORT
from repro.runtime.device import ForwardDecision, ForwardKind, routed
from repro.runtime.message import NetCLPacket
from repro.telemetry import MetricRegistry

#: (parser, ingress, deparser) of a handwritten program
NAMES = ("IngressParser", "Ingress", "IngressDeparser")
_FORWARDS = {
    FWD_HOST: ForwardKind.TO_HOST, FWD_DEVICE: ForwardKind.TO_DEVICE, FWD_MCAST: ForwardKind.MULTICAST
}

_ETH = bytes(12) + (0x0800).to_bytes(2, "big")
_ENCAP_BYTES = 14 + 20 + 8


@functools.lru_cache(maxsize=64)
def _encapsulation(payload_len: int) -> bytes:
    """ETH/IPv4/UDP in front of ``payload_len`` NetCL bytes; only the two
    length fields vary, and a run sends a handful of packet sizes."""
    ipv4 = (
        b"\x45\x00" + (28 + payload_len).to_bytes(2, "big")
        + bytes([0, 0, 0, 0, 64, 17, 0, 0])  # ttl=64, proto=UDP
        + bytes([10, 0, 0, 1, 10, 0, 0, 2])
    )
    udp = (
        (40000).to_bytes(2, "big") + NETCL_PORT.to_bytes(2, "big")
        + (8 + payload_len).to_bytes(2, "big") + b"\x00\x00"
    )
    return _ETH + ipv4 + udp


def run_netcl(engine: P4Engine, packet: NetCLPacket, names: tuple[str, str, str]) -> tuple[dict, bytes]:
    """``packet``, encapsulated, through the (parser, ingress, deparser)
    ``names``: the metadata ingress left and the deparsed bytes."""
    netcl_bytes = packet.to_wire()
    parser, ingress, deparser = names
    return engine.forward(
        _encapsulation(len(netcl_bytes)) + netcl_bytes,
        parser=parser, ingress=ingress, deparser=deparser,
    )


def deparsed(out_bytes: bytes) -> NetCLPacket:
    """The NetCL packet after the encapsulation in deparsed bytes."""
    return NetCLPacket.from_wire(out_bytes[_ENCAP_BYTES:])


class P4NetCLSwitchDevice:
    """Drop-in replacement for :class:`repro.runtime.device.NetCLDevice`
    backed by a behavioral P4 program."""

    def __init__(self, program: ast.Program, device_id: int, *, seed: int = 0) -> None:
        self.program = program
        self.device_id = device_id
        self._seed = seed
        self.interp = P4Engine(program, seed=seed)
        self.metrics = MetricRegistry()
        self._seen = self.metrics.counter("kernel.dispatches")
        self._computed = self.metrics.counter("kernel.computed")

    # -- counter views (parity with NetCLDevice) -----------------------------------
    @property
    def packets_seen(self) -> int:
        return int(self._seen.value)

    @property
    def packets_computed(self) -> int:
        return int(self._computed.value)

    # -- lifecycle (parity with NetCLDevice) ---------------------------------------
    def reset_state(self) -> None:
        """Model a device reboot: registers and table entries are lost."""
        self.interp = P4Engine(self.program, seed=self._seed)
        self.metrics.counter("device.resets").inc()

    # -- control plane (used by app controllers) ---------------------------------
    def insert_entry(self, table: str, keys: list[object], action: str, args: list[int]) -> None:
        self.interp.insert_entry(table, keys, action, args)

    def register_write(self, name: str, index: int, value: int) -> None:
        self.interp.register_write(name, index, value)

    # -- packet path -----------------------------------------------------------------
    def process(self, packet: NetCLPacket) -> ForwardDecision:
        self._seen.inc()
        md, out_bytes = run_netcl(self.interp, packet, NAMES)
        kind = md.get("fwd_kind", FWD_DROP)
        target = md.get("fwd_target", 0)
        if kind == FWD_DROP:
            return ForwardDecision(ForwardKind.DROP)
        out = deparsed(out_bytes)
        if md.get("computed", 0):
            self._computed.inc()
        if kind not in _FORWARDS:
            raise ValueError(f"P4 program produced unknown fwd_kind {kind}")
        return routed(_FORWARDS[kind], target, out)
