"""The RPC server: at-most-once unary execution, idempotent partials.

One :class:`RpcServer` owns one host, a handler per schema method, and a
:class:`~repro.reliability.ReliableChannel` targeting the spine (where
its gather partials are merged).

* **Unary** requests are executed **at most once per request id**: the
  client retries with fresh channel sequence numbers (so retries survive
  the switches' device-side dedup), and this server keeps its own
  bounded reply cache keyed ``(client, req_id)`` — a retry of an
  already-executed request replays the cached reply values (re-stamped
  for the retry's sequence number) without re-running the handler.  The
  channel's own ``(sender, seq)`` reply cache still backstops pure
  network duplication of a single attempt.
* **Gather** requests arrive via the spine's multicast; the partial
  handler must be a pure function of ``(request, replica_index)``
  because straggler repair *recomputes* it — every retransmitted
  scatter re-executes the handler and re-contributes the identical
  partial, which the spine's guarded merge ignores past the first copy.
* After serving an idempotent unary miss the server installs the reply
  into its rack's ToR memo (through :class:`repro.rpc.memo.MemoController`),
  so the *next* call with the same key is answered by the switch.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.reliability import ReliableChannel
from repro.rpc.idl import (
    OP_PARTIAL,
    OP_REQ,
    OP_RSP,
    RPC_WORDS,
    SG_WORDS,
    RpcSchema,
    decode,
    encode,
)
from repro.rpc.memo import MemoController
from repro.runtime.message import NetCLPacket, unpack_packet

#: bound on the per-server at-most-once reply cache (logical replies).
REPLY_CACHE_ENTRIES = 1024


class RpcServer:
    """One replica host executing schema methods."""

    def __init__(
        self,
        network,
        host_id: int,
        schema: RpcSchema,
        handlers: dict,
        *,
        replica_index: int,
        sg_device: int,
        spec_unary,
        spec_sg,
        memo: Optional[MemoController] = None,
    ) -> None:
        self.network = network
        self.host_id = host_id
        self.host = network.hosts[host_id]
        self.schema = schema
        self.handlers = dict(handlers)
        self.replica_index = replica_index
        self.spec_unary = spec_unary
        self.spec_sg = spec_sg
        self.memo = memo
        #: (client_host, req_id) -> cached unary reply values.
        self._answered: "OrderedDict[tuple[int, int], list]" = OrderedDict()

        self.host.on_receive = self._dispatch
        self.channel = ReliableChannel(
            network, self.host, spec_unary, target_device=sg_device, ack=False
        )

        m = network.metrics
        tag = f"h{host_id}"
        self._m_exec = m.counter(f"rpc.server.executions.{tag}")
        self._m_replays = m.counter(f"rpc.server.replays.{tag}")
        self._m_partials = m.counter(f"rpc.server.partials.{tag}")
        self._m_installs = m.counter(f"rpc.server.memo_installs.{tag}")
        self._m_unknown = m.counter(f"rpc.server.unknown_dropped.{tag}")
        self._m_suppressed = m.counter(f"rpc.server.suppressed.{tag}")

    def _dispatch(self, packet: NetCLPacket, now_ns: int) -> None:
        if packet.comp == 2:
            self._handle_scatter(packet)
        else:
            self._handle_unary(packet)

    # -- unary --------------------------------------------------------------------
    def _handle_unary(self, packet: NetCLPacket) -> None:
        values = unpack_packet(packet, self.spec_unary)
        op, method_id, req_id, key = values[0], values[1], values[2], values[3]
        if op != OP_REQ:
            return
        method = self.schema.by_id.get(method_id)
        if method is None or method.kind != "unary":
            self._m_unknown.inc()
            return
        cache_key = (packet.src, req_id)
        cached = self._answered.get(cache_key)
        if cached is not None:
            # A client retry of a request we already executed: replay the
            # reply for the retry's sequence number, never the handler.
            self._answered.move_to_end(cache_key)
            self._m_replays.inc()
            self.channel.send_reply(packet, cached, comp=1)
            return
        request = decode(method.request, values[6])
        response = self.handlers[method.name](request)
        words = encode(response)
        words += [0] * (RPC_WORDS - len(words))
        reply_values = [OP_RSP, method_id, req_id, key, 0, 0, words]
        self._answered[cache_key] = reply_values
        while len(self._answered) > REPLY_CACHE_ENTRIES:
            self._answered.popitem(last=False)
        self._m_exec.inc()
        self.channel.send_reply(packet, reply_values, comp=1)
        if method.idempotent and self.memo is not None:
            self._m_installs.inc()
            self.memo.install(key, words)

    # -- gather -------------------------------------------------------------------
    def _handle_scatter(self, packet: NetCLPacket) -> None:
        values = unpack_packet(packet, self.spec_sg)
        ver, bmp_idx, agg_idx, done_mask, tag, op, method_id, policy = values[:8]
        if op != OP_REQ:
            return
        if done_mask & (1 << self.replica_index):
            # The spine stamped the slot's bitmap into the scatter: our
            # partial already merged, so this re-scatter is only chasing
            # the replicas still missing — stay silent.
            self._m_suppressed.inc()
            return
        method = self.schema.by_id.get(method_id)
        if method is None or method.kind != "gather":
            self._m_unknown.inc()
            return
        request = decode(method.request, values[8])
        partial = list(self.handlers[method.name](request, self.replica_index))
        partial = [w & 0xFFFFFFFF for w in partial]
        partial += [0] * (SG_WORDS - len(partial))
        self._m_partials.inc()
        # Echo the slot header; contribute this replica's mask bit.  The
        # partial routes to the spine (the channel's target) addressed to
        # the requesting client — packet.src: the multicast rewrote dst to
        # this host, but the scatter's source survives the copy — so the
        # spine's cnt==0 pass delivers the merged reply to the client.
        self.channel.request(
            [
                ver,
                bmp_idx,
                agg_idx,
                1 << self.replica_index,
                tag,
                OP_PARTIAL,
                method_id,
                policy,
                partial,
            ],
            dst=packet.src,
            retransmit=False,
            spec=self.spec_sg,
            comp=2,
        )
