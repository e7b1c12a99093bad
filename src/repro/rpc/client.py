"""The RPC client: unary calls with retries/deadlines, gather streams.

One :class:`RpcClient` owns one host and one
:class:`~repro.reliability.ReliableChannel` targeting the edge switch,
and multiplexes two wire computations over it:

* **Unary** (computation 1): each call gets a fresh request id; the
  client drives its own retransmissions, each attempt a *fresh* channel
  sequence number (``retransmit=False``).  Fresh sequences matter: the
  edge and ToR run device-side dedup (standalone and — always — as a
  service tenant), and a same-sequence retransmission would be swallowed
  there instead of reaching the server.  At-most-once execution is the
  *server's* job (its per-request-id reply cache); the request id also
  makes the client's reply matching immune to duplicated replies.
* **Gather** (computation 2): a :class:`RpcGatherStream` — the
  collective subsystem's windowed slot protocol — where each *round* is
  one scatter-gather call.  Concurrent clients multiplex one spine, so
  each stream owns a disjoint ``slot_base`` range of the switch's slot
  registers.

Replies steered by the switches look identical to the client: a memo
hit reflected by the ToR carries ``hit=1`` but completes the call the
same way a server reply does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.collective.protocol import SlotStream
from repro.reliability import BackoffPolicy, ReliableChannel
from repro.rpc.idl import (
    OP_REQ,
    OP_RSP,
    RPC_WORDS,
    SG_WORDS,
    RpcMethod,
    RpcSchema,
    decode,
    encode,
    request_key,
)
from repro.rpc.policies import POLICY_CODES
from repro.runtime.constants import DEFAULT_SLOT_TIMEOUT_NS
from repro.runtime.message import NetCLPacket, unpack_packet


@dataclass
class UnaryCall:
    """One in-flight (or finished) unary invocation."""

    req_id: int
    method: RpcMethod
    server: int
    words: list[int]
    key: int
    sent_ns: int
    request: object = None
    on_reply: Optional[Callable[["UnaryCall"], None]] = None
    on_fail: Optional[Callable[["UnaryCall"], None]] = None
    attempts: int = 0
    seq: int = 0
    done: bool = False
    failed: bool = False
    hit: bool = False
    response: object = None
    finished_ns: Optional[int] = None


@dataclass
class GatherCall:
    """One in-flight (or finished) scatter-gather invocation."""

    round: int
    method: RpcMethod
    words: list[int]
    policy_code: int
    sent_ns: int
    request: object = None
    on_reply: Optional[Callable[["GatherCall"], None]] = None
    done: bool = False
    merged: Optional[list[int]] = None
    finished_ns: Optional[int] = None


class RpcGatherStream(SlotStream):
    """The client's gather rounds riding the windowed slot protocol.

    Rounds are *parked* (``_chunk_payload`` returns None) until the
    application submits the corresponding call; the wire format echoes
    the round tag so stale re-deliveries are rejected exactly.
    """

    def __init__(
        self,
        client: "RpcClient",
        num_rounds: int,
        *,
        device_id: int,
        window: int,
        slot_base: int,
        timeout_ns: int,
    ) -> None:
        super().__init__(
            client.network,
            client.host_id,
            0,  # worker_index: the client contributes no mask bit itself
            client.spec_sg,
            num_rounds,
            window=window,
            timeout_ns=timeout_ns,
            device_id=device_id,
            comp=2,
            slot_base=slot_base,
            install_handler=False,
        )
        self.client = client

    def _chunk_payload(self, chunk: int) -> Optional[list]:
        call = self.client._gathers.get(chunk)
        if call is None:
            return None  # parked until gather() submits this round
        return [
            chunk & 0xFFFF,  # tag
            OP_REQ,
            call.method.method_id,
            call.policy_code,
            call.words,
        ]

    def _result_round(self, values: list) -> Optional[int]:
        return values[4]

    def _accept_result(self, chunk: int, values: list) -> None:
        self.client._gather_done(chunk, values)


class RpcClient:
    """One application host issuing RPCs through the in-network fabric."""

    def __init__(
        self,
        network,
        host_id: int,
        schema: RpcSchema,
        *,
        edge_device: int,
        spec_unary,
        spec_sg,
        method_servers: dict[int, int],
        slot_base: int = 0,
        window: int = 8,
        gather_rounds: int = 64,
        timeout_ns: int = DEFAULT_SLOT_TIMEOUT_NS,
    ) -> None:
        self.network = network
        self.host_id = host_id
        self.host = network.hosts[host_id]
        self.schema = schema
        self.spec_unary = spec_unary
        self.spec_sg = spec_sg
        #: unary method_id -> the server host answering it.
        self.method_servers = dict(method_servers)
        self.retry = BackoffPolicy()
        self._calls: dict[int, UnaryCall] = {}
        self._gathers: dict[int, GatherCall] = {}
        self._next_req = 1
        self._next_round = 0
        self._started = False
        self.completed_unary: list[UnaryCall] = []
        self.completed_gather: list[GatherCall] = []

        # Install the dispatcher, then let the channel interpose on it.
        self.host.on_receive = self._dispatch
        self.channel = ReliableChannel(
            network,
            self.host,
            spec_unary,
            target_device=edge_device,
            ack=False,
        )
        self.gather_stream = RpcGatherStream(
            self,
            gather_rounds,
            device_id=edge_device,
            window=window,
            slot_base=slot_base,
            timeout_ns=timeout_ns,
        )
        self.gather_stream.channel = self.channel

        m = network.metrics
        tag = f"h{host_id}"
        self._m_calls = m.counter(f"rpc.client.calls.{tag}")
        self._m_gathers = m.counter(f"rpc.client.gathers.{tag}")
        self._m_memo_hits = m.counter(f"rpc.client.memo_hits.{tag}")
        self._m_server_replies = m.counter(f"rpc.client.server_replies.{tag}")
        self._m_retries = m.counter(f"rpc.client.retries.{tag}")
        self._m_failed = m.counter(f"rpc.client.failed.{tag}")
        self._m_deadline = m.counter(f"rpc.client.deadline_expired.{tag}")
        self._m_late = m.counter(f"rpc.client.late_replies.{tag}")
        self._m_latency = m.histogram(f"rpc.client.latency_ns.{tag}")
        self._m_gather_latency = m.histogram(f"rpc.client.gather_latency_ns.{tag}")

    # -- unary --------------------------------------------------------------------
    def call(
        self,
        method_name: str,
        request,
        *,
        on_reply: Optional[Callable[[UnaryCall], None]] = None,
        on_fail: Optional[Callable[[UnaryCall], None]] = None,
        deadline_ns: Optional[int] = None,
    ) -> UnaryCall:
        """Invoke a unary method; completion arrives via ``on_reply``."""
        method = self.schema.by_name[method_name]
        if method.kind != "unary":
            raise ValueError(f"{method_name} is a {method.kind} method")
        server = self.method_servers[method.method_id]
        words = encode(request)
        req_id = self._next_req
        self._next_req += 1
        if method.idempotent:
            # Stable across clients and retries: the memoization identity.
            key = request_key(method.method_id, words)
        else:
            # Unique per invocation so the ToR memo can never serve it.
            key = ((self.host_id & 0xFFFFFF) << 40) | (req_id & 0xFFFFFFFFFF)
        call = UnaryCall(
            req_id=req_id,
            method=method,
            server=server,
            words=words + [0] * (RPC_WORDS - len(words)),
            key=key,
            sent_ns=self.network.sim.now_ns,
            request=request,
            on_reply=on_reply,
            on_fail=on_fail,
        )
        self._calls[req_id] = call
        self._m_calls.inc()
        self._send_attempt(call)
        if deadline_ns is not None:
            self.network.sim.after(deadline_ns, self._deadline_expired, call)
        return call

    def _send_attempt(self, call: UnaryCall) -> None:
        values = [
            OP_REQ,
            call.method.method_id,
            call.req_id,
            call.key,
            0,  # ver
            0,  # hit
            call.words,
        ]
        call.seq = self.channel.request(
            values, dst=call.server, retransmit=False, comp=1
        )
        call.attempts += 1
        self.network.sim.after(
            self.retry.timeout_ns(call.attempts - 1), self._retry, call
        )

    # Both timeouts act only on a call still outstanding: a reply, a
    # failure or the other timeout retires it from ``_calls`` first.
    def _retry(self, call: UnaryCall) -> None:
        if self._calls.get(call.req_id) is not call:
            return
        if call.attempts > self.retry.max_retries:
            self._finish_failed(call, self._m_failed)
            return
        self._m_retries.inc()
        self._send_attempt(call)

    def _deadline_expired(self, call: UnaryCall) -> None:
        if self._calls.get(call.req_id) is not call:
            return
        self._finish_failed(call, self._m_deadline)

    def _finish_failed(self, call: UnaryCall, counter) -> None:
        self._calls.pop(call.req_id, None)
        # Stop the channel from tracking the abandoned attempt.
        self.channel.forget(call.seq)
        call.failed = True
        counter.inc()
        if call.on_fail is not None:
            call.on_fail(call)

    # -- gather -------------------------------------------------------------------
    def start(self) -> None:
        """Open the gather stream (idempotent; unary needs no warm-up)."""
        if not self._started:
            self._started = True
            self.gather_stream.start()

    def gather(
        self,
        method_name: str,
        request,
        *,
        on_reply: Optional[Callable[[GatherCall], None]] = None,
    ) -> GatherCall:
        """Scatter a request to every replica; the switch merges replies."""
        method = self.schema.by_name[method_name]
        if method.kind != "gather":
            raise ValueError(f"{method_name} is a {method.kind} method")
        self.start()
        round_ = self._next_round
        self._next_round += 1
        if round_ >= self.gather_stream.num_rounds:
            raise RuntimeError(
                f"gather capacity {self.gather_stream.num_rounds} exhausted"
            )
        words = encode(request)
        call = GatherCall(
            round=round_,
            method=method,
            words=words + [0] * (SG_WORDS - len(words)),
            policy_code=POLICY_CODES[method.policy],
            sent_ns=self.network.sim.now_ns,
            request=request,
            on_reply=on_reply,
        )
        self._gathers[round_] = call
        self._m_gathers.inc()
        stream = self.gather_stream
        slot = round_ % stream.window
        if stream._slot_chunk.get(slot) == round_:
            stream._send_chunk(slot, round_)  # was parked waiting for us
        return call

    def _gather_done(self, round_: int, values: list) -> None:
        call = self._gathers.pop(round_, None)
        if call is None:
            return
        call.done = True
        call.merged = [w & 0xFFFFFFFF for w in values[8]]
        call.finished_ns = self.network.sim.now_ns
        self._m_gather_latency.observe(call.finished_ns - call.sent_ns)
        self.completed_gather.append(call)
        if call.on_reply is not None:
            call.on_reply(call)

    # -- receive ------------------------------------------------------------------
    def _dispatch(self, packet: NetCLPacket, now_ns: int) -> None:
        if packet.comp == 2:
            self.gather_stream.handle(packet, now_ns)
            return
        values = unpack_packet(packet, self.spec_unary)
        op, _method_id, req_id, _key, _ver, hit = values[:6]
        if op != OP_RSP:
            return
        call = self._calls.pop(req_id, None)
        if call is None:
            self._m_late.inc()  # duplicate or post-deadline reply
            return
        call.done = True
        call.hit = bool(hit)
        call.finished_ns = now_ns
        call.response = decode(call.method.response, values[6])
        (self._m_memo_hits if hit else self._m_server_replies).inc()
        self._m_latency.observe(call.finished_ns - call.sent_ns)
        self.completed_unary.append(call)
        if call.on_reply is not None:
            call.on_reply(call)

    # -- introspection ------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return not self._calls and not self._gathers

    def stall_report(self) -> Optional[str]:
        if self.all_done:
            return None
        gathers = sorted(self._gathers)
        unary = ", ".join(
            f"req {c.req_id} {c.method.name} after {c.attempts} attempt(s)"
            for c in self._calls.values()  # req_ids are issued in order
        )
        return (
            f"{len(self._calls)} unary + {len(gathers)} gather outstanding "
            f"(unary: {unary or 'none'}; gather rounds {gathers[:8]})"
        )
