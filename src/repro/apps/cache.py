"""CACHE host side: NetCache-style clients, KVS server, and controller.

The client issues GET/PUT/DEL queries; the switch serves cached GETs
directly (reflect), forwards misses and writes to the KVS server; the
controller populates and invalidates cache lines through the control
plane (managed memory) — including reacting to hot-key reports the switch
marks on forwarded misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.apps import compile_app, p4_backend
from repro.core.driver import CompiledProgram
from repro.deploy.planner import AbstractTopology
from repro.netsim import Link, Network
from repro.runtime import KernelSpec, Message, NetCLDevice
from repro.runtime.message import NetCLPacket, NO_DEVICE, unpack_packet

VALUE_WORDS = 16
NUM_LINES = 1024
CACHE_DEVICE = 1

GET_REQ, PUT_REQ, DEL_REQ, RESP = 1, 2, 3, 4


@dataclass
class QueryRecord:
    key: int
    op: int
    sent_ns: int
    done_ns: Optional[int] = None
    served_by_cache: bool = False
    value: Optional[list[int]] = None

    @property
    def latency_ns(self) -> Optional[int]:
        if self.done_ns is None:
            return None
        return self.done_ns - self.sent_ns


class KVServer:
    """The backing key-value store."""

    def __init__(self, network: Network, host_id: int, spec: KernelSpec) -> None:
        self.network = network
        self.host_id = host_id
        self.spec = spec
        self.host = network.hosts[host_id]
        self.host.on_receive = self._on_receive
        self.store: dict[int, list[int]] = {}
        #: per-query server-side work (storage lookup, app logic).
        self.service_time_ns = 12_000
        self.hot_reports: list[int] = []
        self.on_hot: Optional[Callable[[int], None]] = None
        #: optional repro.reliability channel; replies then echo the
        #: request's sequence number and are cached for replay.
        self.channel = None

    def _on_receive(self, packet: NetCLPacket, now_ns: int) -> None:
        values = unpack_packet(packet, self.spec)
        op, key, hit, hot, val = values
        if hot:
            self.hot_reports.append(key)
            if self.on_hot is not None:
                self.on_hot(key)
        if op == GET_REQ:
            data = self.store.get(key, [0] * VALUE_WORDS)
            reply_vals = [RESP, key, 1 if key in self.store else 0, 0, data]
        elif op == PUT_REQ:
            self.store[key] = list(val)
            reply_vals = [RESP, key, 1, 0, val]
        elif op == DEL_REQ:
            self.store.pop(key, None)
            reply_vals = [RESP, key, 1, 0, None]
        else:
            return
        # The response needs no in-network computation: no device requested.
        reply = Message(src=self.host_id, dst=packet.src, comp=1, to=NO_DEVICE)

        def respond() -> None:
            if self.channel is not None:
                self.channel.send_reply(packet, reply_vals)
            else:
                self.host.send_message(reply, self.spec, reply_vals)

        self.network.sim.after(self.service_time_ns, respond)


class CacheClient:
    def __init__(
        self,
        network: Network,
        host_id: int,
        spec: KernelSpec,
        *,
        device_id: int = CACHE_DEVICE,
    ) -> None:
        self.network = network
        self.host_id = host_id
        self.spec = spec
        self.device_id = device_id
        self.host = network.hosts[host_id]
        self.host.on_receive = self._on_receive
        #: per-key FIFO of outstanding queries (responses for one key come
        #: back in order: hits and misses for the same key share a path).
        self.inflight: dict[int, list[QueryRecord]] = {}
        self.completed: list[QueryRecord] = []
        #: optional repro.reliability channel; queries then carry sequence
        #: numbers and retransmit until their response arrives.
        self.channel = None

    def query(self, op: int, key: int, value: Optional[list[int]] = None) -> None:
        rec = QueryRecord(key, op, self.network.sim.now_ns)
        self.inflight.setdefault(key, []).append(rec)
        values = [op, key, None, None, value]
        if self.channel is not None:
            self.channel.request(values, dst=self._server_id)
            return
        msg = Message(src=self.host_id, dst=self._server_id, comp=1, to=self.device_id)
        self.host.send_message(msg, self.spec, values)

    _server_id = 2

    def _on_receive(self, packet: NetCLPacket, now_ns: int) -> None:
        values = unpack_packet(packet, self.spec)
        op, key, hit, _hot, val = values
        queue = self.inflight.get(key)
        if not queue:
            return
        rec = queue.pop(0)
        rec.done_ns = now_ns
        rec.served_by_cache = op != RESP and hit == 1
        rec.value = val
        self.completed.append(rec)

    def mean_latency_us(self) -> float:
        lats = [r.latency_ns for r in self.completed if r.latency_ns is not None]
        return (sum(lats) / len(lats) / 1000.0) if lats else 0.0


class CacheController:
    """Populates cache lines through the control plane (managed memory)."""

    def __init__(self, connection: DeviceConnection, server: KVServer) -> None:
        self.conn = connection
        self.server = server
        self._next_line = 0

    def install(self, key: int, value: list[int]) -> int:
        """Insert a key into the switch cache; returns the line index."""
        if self._next_line >= NUM_LINES:
            raise RuntimeError("cache full; eviction not installed")
        idx = self._next_line
        self._next_line += 1
        wmap = (1 << len(value)) - 1
        for i, word in enumerate(value):
            self.conn.managed_write("Data", word, index=i * NUM_LINES + idx)
        self.conn.managed_insert("Index", key, value=(wmap << 16) | idx)
        self.conn.managed_write("Valid", 1, index=idx)
        return idx

    def install_from_server(self, key: int) -> Optional[int]:
        value = self.server.store.get(key)
        if value is None:
            return None
        return self.install(key, value)


@dataclass
class CacheCluster:
    network: Network
    device: NetCLDevice
    client: CacheClient
    server: KVServer
    controller: CacheController
    compiled: CompiledProgram
    spec: KernelSpec


class P4CacheController:
    """Controller flavor speaking to the handwritten P4 baseline."""

    def __init__(self, device, server: KVServer) -> None:
        self.device = device
        self.server = server
        self._next_line = 0

    def install(self, key: int, value: list[int]) -> int:
        if self._next_line >= NUM_LINES:
            raise RuntimeError("cache full; eviction not installed")
        idx = self._next_line
        self._next_line += 1
        wmap = (1 << len(value)) - 1
        for i, word in enumerate(value):
            self.device.register_write(f"data_{i}", idx, word)
        self.device.insert_entry("cache_index", [key], "index_set", [wmap, idx])
        self.device.register_write("valid", idx, 1)
        return idx


def cache_topology(client: int, server: int, program, *, spare=None) -> AbstractTopology:
    """The NetCache deployment, stated once: client -- switch(cache) --
    server (``spare=(id, program)`` adds a standby switch)."""
    return AbstractTopology.star(CACHE_DEVICE, program, [client, server], spare=spare)


def build_cache_cluster(
    *,
    target: str = "tna",
    backend: str = "netcl",
    hot_thresh: int = 128,
) -> CacheCluster:
    """Client -- switch(cache) -- server, the NetCache deployment.

    ``backend="p4"`` swaps the compiled NetCL kernel for our handwritten
    P4 baseline (the paper's Fig. 14 comparison keeps the host program
    fixed across both).
    """
    compiled = compile_app(
        "cache", CACHE_DEVICE, target=target, defines={"HOT_THRESH": hot_thresh}
    )
    program, factory = (
        p4_backend("cache", "const bit<32> HOT_THRESH", hot_thresh)
        if backend == "p4"
        else (compiled, None)
    )
    deployment = cache_topology(1, 2, program).realise(
        seed=11, link=Link(latency_ns=1200), device=factory
    )
    net, device = deployment.network, deployment.devices[CACHE_DEVICE]

    spec = KernelSpec.from_kernel(compiled.kernels()[0])
    server = KVServer(net, 2, spec)
    client = CacheClient(net, 1, spec)
    # Host-side stack costs calibrated to the paper's testbed regime
    # (kernel UDP sockets on 100G NICs): all-hit responses land around
    # 9 us, all-miss around 26-27 us.
    for h in (client.host, server.host):
        h.rx_overhead_ns = 3200
        h.tx_overhead_ns = 3200
    server.service_time_ns = 10_000
    if backend == "p4":
        controller = P4CacheController(device, server)
    else:
        controller = CacheController(deployment.control(CACHE_DEVICE), server)
    return CacheCluster(net, device, client, server, controller, compiled, spec)
