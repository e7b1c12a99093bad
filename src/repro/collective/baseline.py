"""Host-based ring allreduce: the no-INC comparison point.

The same leaf/spine fabric
(:func:`~repro.collective.tree.collective_topology`, shape only), but
the switches are plain transit devices (no kernels) and the workers run the classic bandwidth-optimal ring
algorithm entirely host-to-host: ``N-1`` reduce-scatter steps followed
by ``N-1`` allgather steps, each rank exchanging one shard per step with
its ring neighbor.  Every element therefore crosses host links
``2*(N-1)/N * 2`` times, versus once up and once down for the in-network
tree — the traffic ratio the ``collective.*`` telemetry quantifies.

Values travel as raw IEEE-754 float32 bit patterns (same 4 bytes per
element as the tree's quantized mantissas) and are accumulated in
float32, so the baseline also exhibits the sequential rounding the
in-network fixed-point sum avoids.

The ring runs over a minimal reliable transport — per-packet ACKs from
the successor plus timeout retransmission — because that is what a host
ring actually pays (TCP / RDMA RC): a bare datagram ring would deadlock
on the first lost packet.  This also lets the baseline run under the
same link-fault plan as the tree, so the traffic comparison is measured
under identical conditions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.collective.job import shard_range
from repro.collective.tree import collective_topology
from repro.runtime import KernelSpec, Message
from repro.runtime.message import FieldSpec, NetCLPacket, NO_DEVICE, unpack_packet

#: float32 values per ring packet — matches the tree's SLOT_SIZE so the
#: per-packet framing overhead is comparable.
RING_CHUNK = 16

#: wire layout of one ring packet (reuses the NetCL framing so transit
#: switches and telemetry see ordinary packets).
RING_SPEC = KernelSpec(
    computation=1,
    fields=(
        FieldSpec("phase", 8),
        FieldSpec("step", 16),
        FieldSpec("pkt", 16),
        FieldSpec("shard", 16),
        FieldSpec("v", 32, count=RING_CHUNK),
    ),
)

#: the transport ACK a receiver returns for every data packet.
RING_ACK_SPEC = KernelSpec(
    computation=2,
    fields=(
        FieldSpec("phase", 8),
        FieldSpec("step", 16),
        FieldSpec("pkt", 16),
    ),
)


def _f32_bits(x: float) -> int:
    return struct.unpack("<I", struct.pack("<f", x))[0]


def _bits_f32(b: int) -> float:
    return struct.unpack("<f", struct.pack("<I", b))[0]


def _f32(x: float) -> float:
    """Round to float32, as a host summing fp32 gradients would."""
    return struct.unpack("<f", struct.pack("<f", x))[0]


@dataclass
class RingResult:
    """What one host-ring allreduce run produced."""

    results: dict[int, list[float]]
    finished_at_ns: int
    link_bytes: int
    packets_sent: int
    retransmissions: int = 0
    acks_sent: int = 0


class _RingNode:
    """One rank of the ring: buffer incoming shards, advance in order."""

    def __init__(self, runner: "_RingRun", rank: int, tensor: list[float]) -> None:
        self.runner = runner
        self.rank = rank
        self.acc = [_f32(x) for x in tensor]
        self.host = runner.net.hosts[rank + 1]
        self.host.on_receive = self._on_receive
        #: (phase, step, pkt) -> values, for packets that arrive before
        #: this rank has advanced to their step
        self._pending: dict[tuple[int, int, int], list[int]] = {}
        #: keys already folded into ``acc`` — re-ACKed but not re-applied
        self._consumed: set[tuple[int, int, int]] = set()
        #: (phase, step, pkt) -> (shard, bits) awaiting the successor's ACK
        self._unacked: dict[tuple[int, int, int], tuple[int, list[int]]] = {}
        self.phase = 0
        self.step = 0
        self._recv_pkts = 0
        self.done = False

    # phase 0 step s: rank i sends shard (i - s) % N, receives (i-1-s) % N.
    # phase 1 step s: rank i sends shard (i+1-s) % N, receives (i - s) % N.
    def _send_shard_idx(self) -> int:
        n = self.runner.num_workers
        return (self.rank - self.step + self.phase) % n

    def _recv_shard_idx(self) -> int:
        n = self.runner.num_workers
        return (self.rank - 1 - self.step + self.phase) % n

    def start(self) -> None:
        self._send_step()

    def _send_step(self) -> None:
        shard = self._send_shard_idx()
        lo, hi = shard_range(self.runner.num_elements, self.runner.num_workers, shard)
        values = self.acc[lo:hi]
        npkts = max(1, (len(values) + RING_CHUNK - 1) // RING_CHUNK)
        for pkt in range(npkts):
            chunk = values[pkt * RING_CHUNK : (pkt + 1) * RING_CHUNK]
            chunk += [0.0] * (RING_CHUNK - len(chunk))
            key = (self.phase, self.step, pkt)
            # Snapshot the bits: acc mutates as later steps fold in, but a
            # retransmission must resend what the successor was promised.
            self._unacked[key] = (shard, [_f32_bits(x) for x in chunk])
            self._transmit(key)

    def _transmit(self, key: tuple[int, int, int]) -> None:
        phase, step, pkt = key
        shard, bits = self._unacked[key]
        msg = Message(
            src=self.host.host_id,
            dst=self.runner.next_host(self.rank),
            comp=1,
            to=NO_DEVICE,
        )
        self.host.send_message(msg, RING_SPEC, [phase, step, pkt, shard, bits])
        self.runner.packets_sent += 1
        self.runner.net.sim.after(self.runner.timeout_ns, self._timeout, key)

    def _timeout(self, key: tuple[int, int, int]) -> None:
        if key in self._unacked:  # else the ACK beat the timeout
            self.runner.retransmissions += 1
            self._transmit(key)

    def _on_receive(self, packet: NetCLPacket, now_ns: int) -> None:
        if packet.comp == 2:  # transport ACK from the successor
            values = unpack_packet(packet, RING_ACK_SPEC)
            key = (values[0], values[1], values[2])
            self._unacked.pop(key, None)
            return
        values = unpack_packet(packet, RING_SPEC)
        key = (values[0], values[1], values[2])
        # Always ACK — the data may be a retransmission whose ACK was lost.
        msg = Message(
            src=self.host.host_id,
            dst=self.runner.prev_host(self.rank),
            comp=2,
            to=NO_DEVICE,
        )
        self.host.send_message(msg, RING_ACK_SPEC, list(key))
        self.runner.acks_sent += 1
        if key in self._consumed or key in self._pending:
            return
        self._pending[key] = values[4]
        self._drain()

    def _drain(self) -> None:
        while not self.done:
            shard = self._recv_shard_idx()
            lo, hi = shard_range(
                self.runner.num_elements, self.runner.num_workers, shard
            )
            npkts = max(1, (hi - lo + RING_CHUNK - 1) // RING_CHUNK)
            key = (self.phase, self.step, self._recv_pkts)
            if key not in self._pending:
                return
            bits = self._pending.pop(key)
            self._consumed.add(key)
            base = lo + self._recv_pkts * RING_CHUNK
            for i, b in enumerate(bits):
                at = base + i
                if at >= hi:
                    break
                x = _bits_f32(b)
                if self.phase == 0:
                    self.acc[at] = _f32(self.acc[at] + x)
                else:
                    self.acc[at] = x
            self._recv_pkts += 1
            if self._recv_pkts < npkts:
                continue
            # step complete: advance
            self._recv_pkts = 0
            self.step += 1
            if self.step == self.runner.num_workers - 1:
                self.step = 0
                self.phase += 1
                if self.phase == 2:
                    self.done = True
                    self.runner.node_finished(self)
                    return
            self._send_step()


class _RingRun:
    #: a step's retransmission timeout
    timeout_ns = 400_000

    def __init__(
        self,
        num_racks: int,
        workers_per_rack: int,
        tensors: list[list[float]],
        *,
        seed: int,
    ) -> None:
        self.num_workers = num_racks * workers_per_rack
        if len(tensors) != self.num_workers:
            raise ValueError(
                f"{len(tensors)} tensors for {self.num_workers} workers"
            )
        self.num_elements = len(tensors[0])
        self.packets_sent = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.finished_at_ns = 0
        self._finished = 0

        self.net = (
            collective_topology(
                num_racks, list(range(1, self.num_workers + 1)), target=None
            )
            .realise(seed=seed)
            .network
        )
        self.nodes = [
            _RingNode(self, rank, tensors[rank]) for rank in range(self.num_workers)
        ]

    def next_host(self, rank: int) -> int:
        return (rank + 1) % self.num_workers + 1

    def prev_host(self, rank: int) -> int:
        return (rank - 1) % self.num_workers + 1

    def node_finished(self, node: _RingNode) -> None:
        self._finished += 1
        if self._finished == self.num_workers:
            self.finished_at_ns = self.net.sim.now_ns

    def run(self) -> RingResult:
        """Run the ring for up to 1 s of simulated time."""
        for node in self.nodes:
            node.start()
        self.net.sim.run(until_ns=self.net.sim.now_ns + 1_000_000_000)
        if self._finished != self.num_workers:
            stuck = [n.rank for n in self.nodes if not n.done]
            raise RuntimeError(
                f"host ring stalled: ranks {stuck} incomplete "
                f"(phase/step: {[(n.phase, n.step) for n in self.nodes]})"
            )
        return RingResult(
            results={n.rank: list(n.acc) for n in self.nodes},
            finished_at_ns=self.finished_at_ns,
            link_bytes=int(self.net.metrics.total("link.tx_bytes.")),
            packets_sent=self.packets_sent,
            retransmissions=self.retransmissions,
            acks_sent=self.acks_sent,
        )


def run_host_ring(
    num_racks: int,
    workers_per_rack: int,
    tensors: list[list[float]],
    *,
    seed: int = 7,
    plan=None,
) -> RingResult:
    """Run a full ring allreduce over ``tensors`` on a transit-only fabric.

    ``plan`` (a :class:`~repro.chaos.plan.ChaosPlan`) injects link faults
    into the ring's fabric so it can be measured under the same
    conditions as the in-network tree; the transport's ACK/retransmit
    machinery absorbs them.
    """
    run = _RingRun(num_racks, workers_per_rack, tensors, seed=seed)
    if plan is not None:
        from repro.chaos.inject import ChaosController

        ChaosController(run.net, plan).arm()
    return run.run()
