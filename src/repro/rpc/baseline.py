"""Host-only scatter-gather: the no-INC comparison point.

The same fabric as :func:`repro.rpc.cluster.build_rpc_cluster` — one
:func:`~repro.rpc.cluster.rpc_topology`, here shape only — but every
switch is a plain transit device.  The client fans one logical call out as ``N`` unicast requests
(one per replica, each over the same reliable transport: fresh-sequence
requests, reply-completes, retransmission on loss) and merges the ``N``
partial replies **locally** with the bit-identical host twin of the
switch merge.  What the in-network path saves is therefore measured
honestly:

* **bytes** — the host path carries one request and one reply per
  replica end-to-end (≈ ``6N`` link crossings per call on this
  topology), the in-network path one request up, fan-out from the
  spine, partials back to the spine, and *one* merged reply down
  (≈ ``4N + 4``) — fewer bytes for ``N > 2``;
* **time** — the host client serializes ``N`` reply receives through
  its NIC overhead where the spine delivers one merged packet.

:func:`compare_gather` runs both sides over the same per-call requests
and the same link-fault plan, cross-checks that the merged results are
*identical*, and returns the byte/time ratios — the honesty check and
the headline numbers ``benchmarks/test_rpc.py`` pins in ``BENCH_paper.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.chaos.inject import ChaosController
from repro.chaos.plan import ChaosPlan, LinkFaults
from repro.reliability import ReliableChannel
from repro.rpc.idl import OP_PARTIAL, OP_REQ, SG_WORDS
from repro.rpc.policies import merge_words
from repro.runtime.message import FieldSpec, KernelSpec, NO_DEVICE, NetCLPacket, unpack_packet
from repro.rpc.cluster import rpc_topology, server_host

#: wire layout of one fan-out packet — the same fields (and widths) as
#: the kernel's computation 2, so transit switches and telemetry see
#: packets of identical size and the byte comparison is apples-to-apples.
FANOUT_SPEC = KernelSpec(
    computation=2,
    fields=(
        FieldSpec("ver", 8),
        FieldSpec("bmp_idx", 16),
        FieldSpec("agg_idx", 16),
        FieldSpec("mask", 16),
        FieldSpec("tag", 16),
        FieldSpec("op", 8),
        FieldSpec("method", 8),
        FieldSpec("policy", 8),
        FieldSpec("v", 32, count=SG_WORDS),
    ),
)


@dataclass
class FanoutResult:
    """What one host-only fan-out run produced."""

    results: dict[int, list[int]]
    finished_at_ns: int
    link_bytes: int
    requests_sent: int
    retransmissions: int


class _FanoutClient:
    """Issues calls with a bounded pipeline and merges replies locally."""

    def __init__(self, run: "_FanoutRun", host_id: int, window: int) -> None:
        self.run = run
        self.host_id = host_id
        self.window = window
        self.host = run.net.hosts[host_id]
        self.host.on_receive = self._on_receive
        self.channel = ReliableChannel(
            run.net, self.host, FANOUT_SPEC, target_device=NO_DEVICE,
            comp=2, ack=False,
        )
        self._parts: dict[int, dict[int, list[int]]] = {}
        self.results: dict[int, list[int]] = {}
        self._next = 0
        self.finished_at_ns = 0

    def start(self) -> None:
        for _ in range(min(self.window, len(self.run.queries))):
            self._issue_next()

    def _issue_next(self) -> None:
        call = self._next
        if call >= len(self.run.queries):
            return
        self._next += 1
        raw, policy_code = self.run.queries[call]
        words = list(raw) + [0] * (SG_WORDS - len(raw))
        self._parts[call] = {}
        for i, server in enumerate(self.run.server_hosts):
            self.channel.request(
                [0, 0, 0, 1 << i, call & 0xFFFF, OP_REQ, 0, policy_code, words],
                dst=server,
                retransmit=True,
            )

    def _on_receive(self, packet: NetCLPacket, now_ns: int) -> None:
        values = unpack_packet(packet, FANOUT_SPEC)
        mask, tag, op = values[3], values[4], values[5]
        if op != OP_PARTIAL:
            return
        call = tag
        parts = self._parts.get(call)
        if parts is None:
            return  # duplicate reply for a merged call
        parts[mask.bit_length() - 1] = list(values[8])
        if len(parts) == len(self.run.server_hosts):
            del self._parts[call]
            policy = self.run.policy_names[self.run.queries[call][1]]
            self.results[call] = merge_words(
                policy, [parts[i] for i in sorted(parts)]
            )
            self.finished_at_ns = now_ns
            self._issue_next()

    @property
    def done(self) -> bool:
        return len(self.results) == len(self.run.queries)


class _FanoutServer:
    """One replica: recompute the partial, reply over the same channel."""

    def __init__(self, run: "_FanoutRun", host_id: int, replica: int) -> None:
        self.run = run
        self.replica = replica
        self.host = run.net.hosts[host_id]
        self.host.on_receive = self._on_receive
        self.channel = ReliableChannel(
            run.net, self.host, FANOUT_SPEC, target_device=NO_DEVICE,
            comp=2, ack=False,
        )

    def _on_receive(self, packet: NetCLPacket, now_ns: int) -> None:
        values = unpack_packet(packet, FANOUT_SPEC)
        tag, op, policy_code = values[4], values[5], values[7]
        if op != OP_REQ:
            return
        partial = self.run.partial_fn(list(values[8]), self.replica)
        partial = [w & 0xFFFFFFFF for w in partial]
        partial += [0] * (SG_WORDS - len(partial))
        self.channel.send_reply(
            packet,
            [0, 0, 0, 1 << self.replica, tag, OP_PARTIAL, 0, policy_code, partial],
        )


class _FanoutRun:
    def __init__(
        self,
        num_racks: int,
        servers_per_rack: int,
        queries: list[tuple[list[int], int]],
        partial_fn: Callable[[list[int], int], list[int]],
        policy_names: dict[int, str],
        *,
        window: int,
        seed: int,
    ) -> None:
        self.queries = queries
        self.partial_fn = partial_fn
        self.policy_names = policy_names
        self.server_hosts = [
            server_host(i, 1) for i in range(num_racks * servers_per_rack)
        ]
        # The graph and host model the in-network cluster realises (no
        # standbys), with no program on any switch.
        self.net = (
            rpc_topology(num_racks, [1], self.server_hosts, target=None)
            .realise(seed=seed, transit_ns=400)
            .network
        )
        self.servers = [
            _FanoutServer(self, h, i) for i, h in enumerate(self.server_hosts)
        ]
        self.client = _FanoutClient(self, 1, window)

    def run(self, plan: Optional[ChaosPlan]) -> FanoutResult:
        """Run the calls for up to 500 ms of simulated time."""
        if plan is not None:
            ChaosController(self.net, plan).arm()
        self.client.start()
        sim = self.net.sim
        sim.run(until_ns=sim.now_ns + 500_000_000)
        if not self.client.done:
            raise RuntimeError(
                f"host fan-out stalled: {len(self.client.results)}/"
                f"{len(self.queries)} calls merged"
            )
        m = self.net.metrics
        return FanoutResult(
            results=self.client.results,
            finished_at_ns=self.client.finished_at_ns,
            link_bytes=int(m.total("link.tx_bytes.")),
            requests_sent=int(m.total("reliability.ch.sent.h1")),
            retransmissions=int(m.total("reliability.ch.retransmits.")),
        )


def run_host_fanout(
    num_racks: int,
    servers_per_rack: int,
    queries: list[tuple[list[int], int]],
    partial_fn: Callable[[list[int], int], list[int]],
    policy_names: dict[int, str],
    *,
    window: int = 8,
    seed: int = 7,
    plan: Optional[ChaosPlan] = None,
) -> FanoutResult:
    """Run every query as client-side fan-out + local merge."""
    run = _FanoutRun(
        num_racks,
        servers_per_rack,
        queries,
        partial_fn,
        policy_names,
        window=window,
        seed=seed,
    )
    return run.run(plan)


# -- the comparison driver --------------------------------------------------------
@dataclass
class GatherComparison:
    """In-network vs host-only scatter-gather under identical conditions."""

    fanout: int
    calls: int
    policy: str
    innetwork_bytes: int
    innetwork_ns: int
    host_bytes: int
    host_ns: int
    match: bool
    innetwork_results: dict[int, list[int]] = field(repr=False, default_factory=dict)

    @property
    def speedup_time(self) -> float:
        return self.host_ns / max(1, self.innetwork_ns)

    @property
    def speedup_bytes(self) -> float:
        return self.host_bytes / max(1, self.innetwork_bytes)


def _bench_partial(words: list[int], replica: int) -> list[int]:
    """The deterministic per-replica partial both sides compute."""
    q = words[0]
    return [
        (q * 2654435761 + replica * 40503 + i * 1013) & 0xFFFFFFFF
        for i in range(SG_WORDS)
    ]


def compare_gather(
    seed: int,
    *,
    num_racks: int = 2,
    servers_per_rack: int = 2,
    num_calls: int = 32,
    faults: Optional[LinkFaults] = None,
) -> GatherComparison:
    """Measure one ``sum`` gather workload both ways; results must be
    identical."""
    from dataclasses import dataclass as _dc

    from repro.rpc.cluster import build_rpc_cluster
    from repro.rpc.idl import RpcMethod, RpcSchema, u32, vec
    from repro.rpc.policies import POLICY_CODES

    @_dc
    class _Query:
        q: u32 = 0

    @_dc
    class _Reply:
        v: vec(SG_WORDS) = None

    policy = "sum"
    schema = RpcSchema(
        [RpcMethod("bench", 0, _Query, _Reply, kind="gather", policy=policy)]
    )

    def handler(request, replica):
        return _bench_partial([request.q], replica)

    cluster = build_rpc_cluster(
        schema,
        {"bench": handler},
        num_racks=num_racks,
        servers_per_rack=servers_per_rack,
        num_clients=1,
        gather_rounds=num_calls,
        seed=seed,
    )
    plan = (
        ChaosPlan(seed=seed, default_link=faults) if faults is not None else None
    )
    if plan is not None:
        ChaosController(cluster.network, plan).arm()
    client = cluster.clients[0]
    inner: dict[int, list[int]] = {}
    for call in range(num_calls):
        client.gather(
            "bench",
            _Query(q=seed * 1000 + call),
            on_reply=lambda c: inner.__setitem__(c.round, c.merged),
        )
    cluster.run(until_ms=500.0)
    if len(inner) != num_calls:
        raise RuntimeError(
            f"in-network gather stalled: {len(inner)}/{num_calls} merged "
            f"({cluster.stall_report()})"
        )
    in_ns = max(c.finished_ns for c in client.completed_gather)
    in_bytes = cluster.link_bytes()

    queries = [
        ([seed * 1000 + call], POLICY_CODES[policy]) for call in range(num_calls)
    ]
    host = run_host_fanout(
        num_racks,
        servers_per_rack,
        queries,
        _bench_partial,
        {POLICY_CODES[policy]: policy},
        seed=seed,
        plan=plan,
    )
    match = all(host.results.get(c) == inner.get(c) for c in range(num_calls))
    return GatherComparison(
        fanout=num_racks * servers_per_rack,
        calls=num_calls,
        policy=policy,
        innetwork_bytes=in_bytes,
        innetwork_ns=in_ns,
        host_bytes=host.link_bytes,
        host_ns=host.finished_at_ns,
        match=match,
        innetwork_results=inner,
    )
