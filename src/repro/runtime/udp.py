"""NetCL-over-UDP on real POSIX sockets (§VI-C, Fig. 10).

The paper's host runtime speaks UDP through ordinary sockets; this module
keeps that code path alive on loopback: hosts are UDP sockets, and a
switch is a background thread running a device runtime behind its own
socket.  The wire format is exactly :mod:`repro.runtime.message`'s.

This backend trades the simulator's virtual time for real OS networking;
it backs the quickstart example and the end-to-end socket tests.
"""

from __future__ import annotations

import select
import socket
import threading
from dataclasses import dataclass
from typing import Optional

from repro.runtime.device import ForwardDecision, ForwardKind, NetCLDevice
from repro.runtime.message import (
    KernelSpec,
    Message,
    NetCLPacket,
    pack,
    unpack,
)


@dataclass
class UdpEndpoint:
    host: str
    port: int

    @property
    def addr(self) -> tuple[str, int]:
        return (self.host, self.port)


class UdpSwitch:
    """A NetCL device behind a UDP socket, processing packets in a thread.

    The switch needs an address book mapping host/device ids to UDP
    endpoints (the deployment information a real operator would push).
    Multicast groups map a group id to a list of host ids.
    """

    def __init__(
        self,
        device: NetCLDevice,
        *,
        bind: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.device = device
        self.metrics = device.metrics
        self._rx = self.metrics.counter("udp.rx_packets")
        self._rx_bad = self.metrics.counter("udp.rx_bad_packets")
        self._tx = self.metrics.counter("udp.tx_packets")
        self._unroutable = self.metrics.counter("udp.unroutable")
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((bind, port))
        self.sock.settimeout(0.1)
        self.endpoint = UdpEndpoint(*self.sock.getsockname())
        self.host_addrs: dict[int, tuple[str, int]] = {}
        self.device_addrs: dict[int, tuple[str, int]] = {}
        self.multicast_groups: dict[int, list[int]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- deployment -----------------------------------------------------------
    def register_host(self, host_id: int, addr: tuple[str, int]) -> None:
        self.host_addrs[host_id] = addr

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "UdpSwitch":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2)
        self.sock.close()

    def __enter__(self) -> "UdpSwitch":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- datapath ---------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                raw, _ = self.sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                packet = NetCLPacket.from_wire(raw)
            except ValueError:
                self._rx_bad.inc()
                continue  # not a NetCL packet; base program would L2-forward
            self._rx.inc()
            decision = self.device.process(packet)
            self._forward(decision)
            drain = getattr(self.device, "drain_control", None)
            if drain is not None:
                for extra in drain():
                    self._forward(extra)

    def _send(self, packet: NetCLPacket, addr: tuple[str, int]) -> None:
        self._tx.inc()
        self.sock.sendto(packet.to_wire(), addr)

    def _forward(self, decision: ForwardDecision) -> None:
        if decision.kind == ForwardKind.DROP or decision.packet is None:
            return
        packet = decision.packet
        if decision.kind == ForwardKind.TO_HOST:
            addr = self.host_addrs.get(decision.target)
            if addr is None:
                self._unroutable.inc()
            else:
                packet.dst = decision.target
                self._send(packet, addr)
        elif decision.kind == ForwardKind.TO_DEVICE:
            addr = self.device_addrs.get(decision.target)
            if addr is None:
                self._unroutable.inc()
            else:
                self._send(packet, addr)
        elif decision.kind == ForwardKind.MULTICAST:
            for host_id in self.multicast_groups.get(decision.target, []):
                addr = self.host_addrs.get(host_id)
                if addr is None:
                    self._unroutable.inc()
                    continue
                copy = packet.copy()
                copy.dst = host_id
                self._send(copy, addr)


class UdpHost:
    """Host-side runtime endpoint: ``send()``/``recv()`` over a socket."""

    def __init__(self, host_id: int, *, bind: str = "127.0.0.1", port: int = 0) -> None:
        self.host_id = host_id
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((bind, port))
        self.endpoint = UdpEndpoint(*self.sock.getsockname())
        self.switch_addr: Optional[tuple[str, int]] = None

    def connect(self, switch: UdpSwitch) -> None:
        self.switch_addr = switch.endpoint.addr
        switch.register_host(self.host_id, self.endpoint.addr)

    def send(self, msg: Message, spec: KernelSpec, values) -> None:
        assert self.switch_addr is not None, "host not connected to a switch"
        msg.src = self.host_id
        self.sock.sendto(pack(msg, spec, values), self.switch_addr)

    def recv(self, spec: KernelSpec, *, timeout: float = 2.0, out=None):
        """Returns (message, values); raises ``socket.timeout`` on silence.

        Waits with :func:`select.select` rather than mutating the socket's
        timeout, so concurrent ``recv()`` calls with different timeouts
        (e.g. a reliability channel's retransmit loop next to an
        application receive) never clobber each other's deadline.
        """
        ready, _, _ = select.select([self.sock], [], [], timeout)
        if not ready:
            raise socket.timeout(f"no packet within {timeout}s")
        raw, _ = self.sock.recvfrom(65535)
        return unpack(raw, spec, out)

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "UdpHost":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
