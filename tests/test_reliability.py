"""repro.reliability: dedup windows, the wire trailer, reliable channels,
device-side at-most-once + replay, journaling, and failover."""

import select
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import compile_netcl
from repro.netsim import DEVICE, HOST, Link, Network
from repro.reliability import (
    BackoffPolicy,
    DedupWindow,
    FailoverManager,
    ReliableChannel,
    ReliableNetCLDevice,
    ReplayCache,
    ReplicatedConnection,
)
from repro.runtime import DeviceConnection, ForwardKind, KernelSpec, Message, pack
from repro.runtime.message import (
    NO_DEVICE,
    FieldSpec,
    NetCLPacket,
    REL_ACK,
    REL_DATA,
    REL_FLAG_ACK_REQ,
    REL_FLAG_REPLY,
    REL_TRAILER_SIZE,
    unpack,
)
from repro.runtime.udp import UdpHost, UdpSwitch

ECHO = "_kernel(1) void k(unsigned x, unsigned &y) { y = x + 1; return ncl::reflect(); }"
PASS = "_kernel(1) void k(unsigned x, unsigned &y) { }"


def _reliable(src=ECHO, dev_id=1, **kw):
    cp = compile_netcl(src, dev_id)
    dev = ReliableNetCLDevice(dev_id, cp.module, cp.kernels(), **kw)
    return dev, KernelSpec.from_kernel(cp.kernels()[0])


def _data_packet(spec, seq, *, src=1, dst=1, to=1, x=10, flags=0):
    msg = Message(src=src, dst=dst, comp=1, to=to)
    pkt = NetCLPacket.from_wire(pack(msg, spec, [x, 0]))
    pkt.stamp_reliability(REL_DATA, seq, flags)
    return pkt


class TestDedupWindow:
    def test_fresh_sequences_accepted_once(self):
        w = DedupWindow(64)
        assert w.check_and_add(1, 5)
        assert not w.check_and_add(1, 5)
        assert w.check_and_add(1, 6)

    def test_senders_are_independent(self):
        w = DedupWindow(64)
        assert w.check_and_add(1, 5)
        assert w.check_and_add(2, 5)

    def test_out_of_order_within_window(self):
        w = DedupWindow(64)
        assert w.check_and_add(1, 50)
        assert w.check_and_add(1, 20)  # older but unseen: accepted
        assert not w.check_and_add(1, 20)

    def test_beyond_window_is_conservatively_dup(self):
        w = DedupWindow(16)
        assert w.check_and_add(1, 100)
        assert not w.check_and_add(1, 100 - 16)

    def test_ordered_mode_enforces_fifo(self):
        w = DedupWindow(64, ordered=True)
        assert w.check_and_add(1, 10)
        assert not w.check_and_add(1, 5)  # never seen, but below high
        assert w.stale_rejected == 1
        assert w.check_and_add(1, 11)

    def test_reset_and_validation(self):
        w = DedupWindow(8)
        w.check_and_add(1, 1)
        w.reset()
        assert w.check_and_add(1, 1)
        with pytest.raises(ValueError):
            DedupWindow(0)

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_property_at_most_once(self, seqs):
        # However duplicated/reordered the arrival stream, each sequence
        # number is accepted at most once.
        w = DedupWindow(64)
        accepted = [s for s in seqs if w.check_and_add(7, s)]
        assert len(accepted) == len(set(accepted))
        assert set(accepted) == set(seqs)  # window covers the whole range

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_property_ordered_accepts_increasing_subsequence(self, seqs):
        w = DedupWindow(64, ordered=True)
        accepted = [s for s in seqs if w.check_and_add(7, s)]
        assert accepted == sorted(set(accepted))


class TestReplayCache:
    def test_put_get_and_eviction(self):
        c = ReplayCache(capacity=2)
        c.put(1, 1, "a")
        c.put(1, 2, "b")
        c.put(1, 3, "c")
        assert c.get(1, 1) is None  # evicted
        assert c.get(1, 2) == "b" and c.get(1, 3) == "c"

    def test_overwrite_refreshes(self):
        c = ReplayCache(capacity=2)
        c.put(1, 1, "a")
        c.put(1, 2, "b")
        c.put(1, 1, "a2")
        c.put(1, 3, "c")
        assert c.get(1, 1) == "a2" and c.get(1, 2) is None


class TestWireTrailer:
    def test_roundtrip_preserves_trailer(self):
        _, spec = _reliable()
        pkt = _data_packet(spec, 42, flags=REL_FLAG_ACK_REQ)
        back = NetCLPacket.from_wire(pkt.to_wire())
        assert back.rel_kind == REL_DATA
        assert back.rel_seq == 42
        assert back.rel_flags == REL_FLAG_ACK_REQ
        assert back.reliability_intact

    def test_legacy_parser_skips_trailer(self):
        # The header's len field delimits the data section, so a trailer
        # is invisible to pre-reliability unpacking.
        from repro.runtime.message import unpack

        _, spec = _reliable()
        pkt = _data_packet(spec, 7, x=99)
        _, values = unpack(pkt.to_wire(), spec)
        assert values[0] == 99

    def test_trailer_adds_fixed_bytes(self):
        _, spec = _reliable()
        plain = NetCLPacket.from_wire(pack(Message(src=1, dst=1, comp=1, to=1), spec, [1, 0]))
        stamped = _data_packet(spec, 1)
        assert len(stamped.to_wire()) == len(plain.to_wire()) + REL_TRAILER_SIZE

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=40, deadline=None)
    def test_property_any_data_corruption_detected(self, xor):
        _, spec = _reliable()
        pkt = _data_packet(spec, 3, x=0xAB)
        data = bytearray(pkt.data)
        data[0] ^= xor
        pkt.data = bytes(data)
        assert pkt.reliability_intact == (xor == 0)

    def test_restamp_after_rewrite(self):
        _, spec = _reliable()
        pkt = _data_packet(spec, 3)
        pkt.data = bytes(len(pkt.data))
        assert not pkt.reliability_intact
        pkt.restamp_crc()
        assert pkt.reliability_intact


class TestReliableDevice:
    def test_accept_then_dedup_with_replay(self):
        dev, spec = _reliable()
        d1 = dev.process(_data_packet(spec, 1))
        assert d1.kind == ForwardKind.TO_HOST
        d2 = dev.process(_data_packet(spec, 1))  # duplicate
        assert d2.kind == ForwardKind.TO_HOST  # replayed, not recomputed
        m = dev.metrics
        assert m.total("reliability.dup_drops") == 1
        assert m.total("reliability.replays") == 1
        assert m.total("reliability.accepted") == 1

    def test_replayed_response_is_a_fresh_copy(self):
        dev, spec = _reliable()
        d1 = dev.process(_data_packet(spec, 1))
        d2 = dev.process(_data_packet(spec, 1))
        assert d2.packet is not d1.packet

    def test_corrupt_data_dropped(self):
        dev, spec = _reliable()
        pkt = _data_packet(spec, 1)
        pkt.data = bytes([pkt.data[0] ^ 0xFF]) + pkt.data[1:]
        d = dev.process(pkt)
        assert d.kind == ForwardKind.DROP
        assert dev.metrics.total("reliability.corrupt_drops") == 1

    def test_ack_generated_through_control_channel(self):
        dev, spec = _reliable()
        dev.process(_data_packet(spec, 9, src=4, flags=REL_FLAG_ACK_REQ))
        extras = dev.drain_control()
        assert len(extras) == 1
        ack = extras[0]
        assert ack.kind == ForwardKind.TO_HOST and ack.target == 4
        assert ack.packet.rel_kind == REL_ACK and ack.packet.rel_seq == 9
        assert dev.drain_control() == []  # drained

    def test_ordered_mode_drops_stale_without_replay(self):
        dev, spec = _reliable(ordered=True)
        dev.process(_data_packet(spec, 10))
        d = dev.process(_data_packet(spec, 4))  # unseen but below high
        assert d.kind == ForwardKind.DROP
        assert dev.metrics.total("reliability.stale_drops") == 1
        assert dev.metrics.total("reliability.replays") == 0

    def test_transit_packets_bypass_reliability(self):
        dev, spec = _reliable(dev_id=1)
        pkt = _data_packet(spec, 1, to=5, dst=2)  # addressed elsewhere
        dev.process(pkt)
        dev.process(pkt.copy())  # same seq twice: still not deduped
        assert dev.metrics.total("reliability.dup_drops") == 0

    def test_reset_state_clears_dedup(self):
        dev, spec = _reliable()
        dev.process(_data_packet(spec, 1))
        dev.reset_state()
        d = dev.process(_data_packet(spec, 1))
        assert d.kind == ForwardKind.TO_HOST
        assert dev.metrics.total("reliability.dup_drops") == 0


def _echo_network(**channel_kw):
    dev, spec = _reliable()
    net = Network(seed=3, metrics=dev.metrics)
    net.add_switch(dev, processing_ns=200)
    host = net.add_host(1)
    net.link(HOST(1), DEVICE(1), Link(latency_ns=500))
    got = []
    host.on_receive = lambda pkt, now: got.append(pkt)
    ch = ReliableChannel(net, host, spec, target_device=1, **channel_kw)
    return net, host, ch, got


class TestReliableChannel:
    def test_request_completes_on_reflected_reply(self):
        net, host, ch, got = _echo_network()
        seq = ch.request([5, 0], dst=1)
        assert ch.outstanding == 1
        net.sim.run(until_ns=5_000_000)
        assert seq not in ch.pending and ch.outstanding == 0
        assert len(got) == 1 and got[0].rel_seq == seq  # delivered exactly once
        assert net.metrics.total("reliability.ch.completed.h1") == 1
        assert net.metrics.total("reliability.ch.expired.h1") == 0

    def test_retransmission_recovers_from_outage(self):
        net, host, ch, got = _echo_network(
            policy=BackoffPolicy(base_timeout_ns=100_000, max_retries=10)
        )
        net.set_link_up(HOST(1), DEVICE(1), False)
        ch.request([5, 0], dst=1)
        net.sim.at(400_000, lambda: net.set_link_up(HOST(1), DEVICE(1), True))
        net.sim.run(until_ns=10_000_000)
        assert ch.outstanding == 0 and len(got) == 1
        assert net.metrics.total("reliability.ch.retransmits.h1") >= 1

    def test_retries_exhausted_expires_request(self):
        net, host, ch, got = _echo_network(
            policy=BackoffPolicy(base_timeout_ns=50_000, max_retries=2)
        )
        net.set_link_up(HOST(1), DEVICE(1), False)
        ch.request([5, 0], dst=1)
        net.sim.run(until_ns=20_000_000)
        assert ch.outstanding == 0 and not got
        assert net.metrics.total("reliability.ch.retransmits.h1") == 2
        assert net.metrics.total("reliability.ch.expired.h1") == 1
        assert net.metrics.total("reliability.ch.completed.h1") == 0

    def test_reply_completes_tracking_only_request(self):
        net, host, ch, got = _echo_network()
        seq = ch.request([5, 0], dst=1, retransmit=False)
        net.sim.run(until_ns=5_000_000)
        assert seq not in ch.pending
        assert net.metrics.total("reliability.ch.completed.h1") == 1

    def test_ack_completes_tracking_only_request(self):
        # A pass kernel addressed to a host that does not exist: the only
        # thing coming back is the device ACK, which must complete a
        # tracking-only (retransmit=False) request.
        dev, spec = _reliable(PASS)
        net = Network(seed=3, metrics=dev.metrics)
        net.add_switch(dev, processing_ns=200)
        host = net.add_host(1)
        net.link(HOST(1), DEVICE(1), Link(latency_ns=500))
        ch = ReliableChannel(net, host, spec, target_device=1)
        seq = ch.request([5, 0], dst=99, retransmit=False)
        net.sim.run(until_ns=5_000_000)
        assert seq not in ch.pending
        assert net.metrics.total("reliability.ch.acks.h1") == 1

    def test_duplicate_delivery_suppressed(self):
        net, host, ch, got = _echo_network()
        ch.request([5, 0], dst=1)
        net.sim.run(until_ns=2_000_000)
        # Re-inject a copy of the reply the host already consumed.
        dup = got[0].copy()
        host.deliver(dup)
        net.sim.run(until_ns=5_000_000)
        assert len(got) == 1
        assert net.metrics.total("reliability.ch.dup_rx_dropped.h1") == 1

    def test_corrupt_reply_dropped_at_host(self):
        net, host, ch, got = _echo_network()
        ch.request([5, 0], dst=1)
        net.sim.run(until_ns=2_000_000)
        bad = got[0].copy()
        bad.stamp_reliability(REL_DATA, 999, 0)
        bad.data = bytes([bad.data[0] ^ 1]) + bad.data[1:]
        host.deliver(bad)
        net.sim.run(until_ns=5_000_000)
        assert len(got) == 1
        assert net.metrics.total("reliability.ch.corrupt_rx_dropped.h1") == 1

    def test_retarget_resends_pending_to_standby(self):
        primary, spec = _reliable(dev_id=1)
        cp2 = compile_netcl(ECHO, 2)
        standby = ReliableNetCLDevice(2, cp2.module, cp2.kernels(), metrics=primary.metrics)
        net = Network(seed=3, metrics=primary.metrics)
        net.add_switch(primary, processing_ns=200)
        net.add_switch(standby, processing_ns=200)
        host = net.add_host(1)
        net.link(HOST(1), DEVICE(1), Link(latency_ns=500))
        net.link(HOST(1), DEVICE(2), Link(latency_ns=500))
        got = []
        host.on_receive = lambda pkt, now: got.append(pkt)
        ch = ReliableChannel(net, host, spec, target_device=1)
        net.crash_switch(1)
        ch.request([5, 0], dst=1)
        tracked = ch.request([6, 0], dst=1, retransmit=False)
        net.sim.at(200_000, lambda: ch.retarget(2))
        net.sim.run(until_ns=10_000_000)
        assert ch.outstanding == 0 and len(got) == 1
        assert tracked not in ch.pending  # tracking-only pendings discarded

    def test_reply_cache_answers_duplicated_request(self):
        # Client h1 -> device (pass) -> server h2; the server's channel
        # replays its cached reply when the request is duplicated.
        dev, spec = _reliable(PASS)
        net = Network(seed=3, metrics=dev.metrics)
        net.add_switch(dev, processing_ns=200)
        h1, h2 = net.add_host(1), net.add_host(2)
        net.link(HOST(1), DEVICE(1), Link(latency_ns=500))
        net.link(HOST(2), DEVICE(1), Link(latency_ns=500))
        got1 = []
        h1.on_receive = lambda pkt, now: got1.append(pkt)
        ch1 = ReliableChannel(net, h1, spec, target_device=1)

        def serve(pkt, now):
            ch2.send_reply(pkt, [0, 77])

        h2.on_receive = serve
        ch2 = ReliableChannel(net, h2, spec, target_device=1)
        seq = ch1.request([5, 0], dst=2)
        net.sim.run(until_ns=3_000_000)
        assert len(got1) == 1
        # Duplicate the request on the wire: the server must not re-run
        # the app handler, but must re-answer.
        dup = _data_packet(spec, seq, src=1, dst=2, to=1, x=5, flags=REL_FLAG_ACK_REQ)
        h1.send_packet(dup)
        net.sim.run(until_ns=8_000_000)
        assert net.metrics.total("reliability.ch.reply_replays.h2") == 1
        replies = [p for p in got1 if p.rel_kind == REL_DATA]
        assert all(p.rel_flags & REL_FLAG_REPLY for p in replies)

    def test_cached_reply_replayed_through_failover_retarget(self):
        # Client h1 -> primary d1 (pass) -> server h2.  The primary dies
        # with the reply in flight; failover retargets both channels at
        # the standby, the client's pending request is re-driven there,
        # and the server must replay its cached reply without re-running
        # the app handler.
        primary, spec = _reliable(PASS, dev_id=1)
        cp2 = compile_netcl(PASS, 2)
        standby = ReliableNetCLDevice(2, cp2.module, cp2.kernels(), metrics=primary.metrics)
        net = Network(seed=3, metrics=primary.metrics)
        net.add_switch(primary, processing_ns=200)
        net.add_switch(standby, processing_ns=200)
        h1, h2 = net.add_host(1), net.add_host(2)
        # The standby path is slower, so pre-crash traffic (including the
        # reply) deterministically rides the primary.
        for h in (1, 2):
            net.link(HOST(h), DEVICE(1), Link(latency_ns=10_000))
            net.link(HOST(h), DEVICE(2), Link(latency_ns=40_000))
        got = []
        h1.on_receive = lambda pkt, now: got.append(pkt)
        ch1 = ReliableChannel(net, h1, spec, target_device=1, ack=False)
        executions = []

        def serve(pkt, now):
            executions.append(pkt.rel_seq)
            ch2.send_reply(pkt, [0, 100])

        h2.on_receive = serve
        ch2 = ReliableChannel(net, h2, spec, target_device=1, ack=False)
        FailoverManager(
            net, 1, 2, heartbeat_ns=50_000, channels=[ch1, ch2]
        ).start()
        seq = ch1.request([5, 0], dst=2)
        # Crash after the request reached h2 but before the reply got
        # back through d1: the reply is lost on the dead switch.
        net.sim.at(28_000, lambda: net.crash_switch(1))
        net.sim.run(until_ns=20_000_000)
        assert executions == [seq], "handler must run exactly once"
        assert net.metrics.total("reliability.ch.reply_replays.h2") == 1
        assert ch1.target_device == 2 and ch2.target_device == 2
        replies = [p for p in got if p.rel_kind == REL_DATA]
        assert [unpack(p.to_wire(), spec)[1][1] for p in replies] == [100]
        assert ch1.outstanding == 0  # the replayed reply completed the seq


MANAGED_TABLE = (
    "_managed_ unsigned regs[8];\n"
    "_managed_ _lookup_ ncl::kv<unsigned,unsigned> t[8];\n"
    "_kernel(1) void k(unsigned key, unsigned &v, unsigned &hit) {\n"
    "  hit = ncl::lookup(t, key, v); }"
)


class TestReplicatedConnection:
    def _pair(self):
        cp = compile_netcl(MANAGED_TABLE, 1)
        primary = ReliableNetCLDevice(1, cp.module, cp.kernels())
        cp2 = compile_netcl(MANAGED_TABLE, 2)
        standby = ReliableNetCLDevice(2, cp2.module, cp2.kernels())
        return ReplicatedConnection(DeviceConnection(primary)), standby

    def test_journal_compacts_by_key(self):
        rc, standby = self._pair()
        rc.managed_write("regs", 1, index=0)
        rc.managed_write("regs", 2, index=0)  # overwrites the same key
        rc.managed_write("regs", 3, index=1)
        assert rc.replay(DeviceConnection(standby)) == 2

    def test_remove_erases_journal_entry(self):
        rc, standby = self._pair()
        rc.managed_insert("t", 5, value=50)
        rc.managed_remove("t", 5)
        assert rc.replay(DeviceConnection(standby)) == 0

    def test_modify_journals_final_value(self):
        rc, standby = self._pair()
        rc.managed_insert("t", 5, value=50)
        assert rc.managed_modify("t", 5, 51)
        rc.managed_write("regs", 9, index=3)
        n = rc.replay(DeviceConnection(standby))
        assert n == 2
        conn2 = DeviceConnection(standby)
        assert conn2.managed_read("regs", index=3) == 9
        assert standby.state.snapshot()["tables"]["t"] == [(5, 5, 51)]

    def test_retarget_redirects_future_ops(self):
        rc, standby = self._pair()
        conn2 = DeviceConnection(standby)
        rc.retarget(conn2)
        rc.managed_write("regs", 4, index=0)
        assert conn2.managed_read("regs", index=0) == 4


class TestFailoverManager:
    def test_promotes_standby_and_replays_journal(self):
        cp1 = compile_netcl(MANAGED_TABLE, 1)
        cp2 = compile_netcl(MANAGED_TABLE, 2)
        primary = ReliableNetCLDevice(1, cp1.module, cp1.kernels())
        standby = ReliableNetCLDevice(2, cp2.module, cp2.kernels(), metrics=primary.metrics)
        net = Network(seed=5, metrics=primary.metrics)
        net.add_switch(primary)
        net.add_switch(standby)
        host = net.add_host(1)
        net.link(HOST(1), DEVICE(1), Link())
        net.link(HOST(1), DEVICE(2), Link())
        rc = ReplicatedConnection(DeviceConnection(primary))
        rc.managed_insert("t", 5, value=50)
        rc.managed_write("regs", 7, index=2)
        cp_spec = KernelSpec.from_kernel(cp1.kernels()[0])
        ch = ReliableChannel(net, host, cp_spec, target_device=1)
        hooks = []
        mgr = FailoverManager(
            net, 1, 2,
            heartbeat_ns=50_000,
            replicated=rc,
            channels=[ch],
            on_failover=hooks.append,
        ).start()
        net.sim.at(300_000, lambda: net.crash_switch(1))
        net.sim.run(until_ns=1_000_000)
        assert mgr.failed_over and mgr.active_id == 2
        assert hooks == [mgr]
        assert ch.target_device == 2
        conn2 = DeviceConnection(standby)
        assert conn2.managed_read("regs", index=2) == 7
        assert standby.state.snapshot()["tables"]["t"] == [(5, 5, 50)]
        assert net.metrics.total("reliability.failover.count") == 1
        assert net.metrics.total("reliability.failover.ops_replayed") == 2

    def test_no_failover_while_primary_healthy(self):
        cp = compile_netcl(PASS, 1)
        dev = ReliableNetCLDevice(1, cp.module, cp.kernels())
        net = Network(seed=5, metrics=dev.metrics)
        net.add_switch(dev)
        net.add_host(1)
        net.link(HOST(1), DEVICE(1), Link())
        mgr = FailoverManager(net, 1, 2, heartbeat_ns=50_000).start()
        net.sim.run(until_ns=500_000)
        assert not mgr.failed_over and mgr.active_id == 1
        assert net.metrics.total("reliability.failover.heartbeats") >= 5


class TestUdpTransport:
    def test_recv_timeout_does_not_mutate_socket_timeout(self):
        with UdpHost(1) as host:
            cp = compile_netcl(ECHO, 1)
            spec = KernelSpec.from_kernel(cp.kernels()[0])
            before = host.sock.gettimeout()
            with pytest.raises(socket.timeout):
                host.recv(spec, timeout=0.05)
            assert host.sock.gettimeout() == before

    def test_udp_switch_sends_ack_via_control_channel(self):
        dev, spec = _reliable()
        with UdpSwitch(dev) as switch, UdpHost(1) as host:
            host.connect(switch)
            pkt = _data_packet(spec, 3, flags=REL_FLAG_ACK_REQ)
            host.sock.sendto(pkt.to_wire(), switch.endpoint.addr)
            kinds = set()
            for _ in range(2):
                ready, _w, _x = select.select([host.sock], [], [], 2.0)
                assert ready, "expected reply + ACK from the switch"
                raw, _ = host.sock.recvfrom(65535)
                kinds.add(NetCLPacket.from_wire(raw).rel_kind)
            assert kinds == {REL_DATA, REL_ACK}


class TestDeadlineTimers:
    """A send's timeout re-arms by moving its deadline: one timer event
    per send sleeps until the current deadline, and one that outlives its
    request fires as a no-op."""

    @staticmethod
    def _send_times(net, host):
        times = []
        send = host.send_packet

        def record(packet, **kw):
            times.append(net.sim.now_ns)
            send(packet, **kw)

        host.send_packet = record
        return times

    def test_rearm_reuses_live_timer_event(self):
        net, host, ch, got = _echo_network(
            policy=BackoffPolicy(base_timeout_ns=100_000, max_retries=3)
        )
        net.set_link_up(HOST(1), DEVICE(1), False)  # force retransmits
        sends = self._send_times(net, host)
        ch.request([5, 0], dst=1)
        # a retarget re-sends at 50 us and moves the deadline to 150 us:
        # the timer armed for 100 us wakes, re-sleeps, and is the only one
        net.sim.at(50_000, ch.retarget, 1)
        net.sim.run(until_ns=60_000)
        assert net.sim.pending == 1  # two sends, one timer event
        net.sim.run(until_ns=10_000_000)
        assert sends == [0, 50_000, 150_000, 350_000, 750_000]
        assert net.metrics.total("reliability.ch.retransmits.h1") == 3
        assert net.metrics.total("reliability.ch.expired.h1") == 1
        assert ch.outstanding == 0

    def test_spurious_wake_does_not_retransmit_early(self):
        net, host, ch, got = _echo_network(
            policy=BackoffPolicy(base_timeout_ns=500_000, max_retries=3)
        )
        ch.request([5, 0], dst=1)
        net.sim.run(until_ns=5_000_000)
        # the exchange completed on the first attempt: the reply beat the
        # deadline, so the armed timer must die without retransmitting.
        assert ch.outstanding == 0
        assert net.metrics.total("reliability.ch.retransmits.h1") == 0
        assert net.sim.pending == 0

    def test_completion_cancels_deadline_timer(self):
        """Completion voids the timer: its later wake changes nothing."""
        net, host, ch, got = _echo_network(
            policy=BackoffPolicy(base_timeout_ns=500_000, max_retries=3)
        )
        seq = ch.request([5, 0], dst=1)
        net.sim.run(until_ns=100_000)
        assert seq not in ch.pending and net.sim.pending == 1  # the stale wake
        before = net.metrics.snapshot()
        net.sim.run(until_ns=5_000_000)
        assert net.sim.pending == 0
        assert net.metrics.snapshot() == before


# -- tracking entries -------------------------------------------------------------
class _TimerReference:
    """What a tracking-only (``retransmit=False``) send did when every one
    armed a timer: the entry left ``pending`` when its timer fired at the
    deadline, or earlier on completion, ``retarget`` or ``forget``."""

    def __init__(self, sim, timeout_ns: int) -> None:
        self.sim, self.timeout_ns = sim, timeout_ns
        self.pending: dict[int, int] = {}  # seq -> sent_ns
        self.acks = self.completed = self.rtt_count = self.rtt_sum = 0

    def send(self, seq: int) -> None:
        self.pending[seq] = self.sim.now_ns
        self.sim.after(self.timeout_ns, self.pending.pop, seq, None)

    def ack(self, seq: int) -> None:
        if seq in self.pending:
            self.acks += 1
            self.reply(seq)

    def reply(self, seq: int) -> None:
        sent = self.pending.pop(seq, None)
        if sent is not None:
            self.completed += 1
            self.rtt_count += 1
            self.rtt_sum += self.sim.now_ns - sent

    def counters(self) -> tuple:
        return (self.acks, self.completed, 0, self.rtt_count, self.rtt_sum)


TIMEOUT = 1_000
TWO_U32 = KernelSpec(1, (FieldSpec("x", 32), FieldSpec("y", 32)))


def _tracking_channel():
    """A channel whose sends go nowhere; the test delivers its ACKs and
    replies by hand."""
    net = Network(seed=1)
    host = net.add_host(1)
    host.send_packet = lambda packet, **kw: None
    ch = ReliableChannel(
        net, host, TWO_U32, target_device=1, policy=BackoffPolicy(base_timeout_ns=TIMEOUT)
    )
    return net, ch


def _response(kind: str, seq: int) -> NetCLPacket:
    if kind == "ack":
        return NetCLPacket(1, 1, 1, NO_DEVICE, 1, 0, b"").stamp_reliability(REL_ACK, seq)
    packet = NetCLPacket(2, 1, NO_DEVICE, NO_DEVICE, 1, 0, bytes(8))
    return packet.stamp_reliability(REL_DATA, seq, REL_FLAG_REPLY)


def _counters(net, ch) -> tuple:
    m = net.metrics
    rtt = m.histogram("reliability.ch.rtt_ns.h1")
    return tuple(
        m.value(f"reliability.ch.{name}.h1") for name in ("acks", "completed", "expired")
    ) + (rtt.count, rtt.sum)


#: arrival relative to the deadline: just before, at and after it included
offsets = st.sampled_from([-1, 0, 1]) | st.integers(-TIMEOUT, TIMEOUT)
responses = st.lists(st.tuples(st.sampled_from(["ack", "reply"]), offsets), max_size=2)
gaps = st.integers(0, 700)
steps = st.one_of(
    st.tuples(st.just("send"), gaps, responses),
    st.tuples(st.just("retarget"), gaps, st.none()),
    st.tuples(st.just("forget"), gaps, st.integers(0, 40)),
    st.tuples(st.just("probe"), st.integers(0, 2 * TIMEOUT), st.none()),
)


class TestTrackingEntries:
    """A tracking entry arms no timer; every counter and ``outstanding``
    read what the timer gave."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(steps, max_size=30))
    def test_counters_match_one_timer_per_send(self, script):
        net, ch = _tracking_channel()
        ref = _TimerReference(net.sim, TIMEOUT)
        sent: list[int] = []

        def deliver(kind, seq):
            ch.host.on_receive(_response(kind, seq), net.sim.now_ns)
            getattr(ref, kind)(seq)

        def act(what, arg):
            if what == "send":
                seq = ch.request([1, 2], dst=1, retransmit=False)
                ref.send(seq)
                sent.append(seq)
                for kind, offset in arg:
                    net.sim.after(TIMEOUT + offset, deliver, kind, seq)
            elif what == "retarget":
                ch.retarget(1)
                ref.pending.clear()
            elif what == "forget" and sent:
                seq = sent[arg % len(sent)]
                ch.forget(seq)
                ref.pending.pop(seq, None)

        now = 0
        for what, gap, arg in script:
            now += gap
            net.sim.at(now, act, what, arg)
            net.sim.run(until_ns=now)
            assert _counters(net, ch) == ref.counters()
            if what == "probe":
                assert ch.outstanding == len(ref.pending)
        net.sim.run()
        assert _counters(net, ch) == ref.counters()
        assert ch.outstanding == len(ref.pending) == 0

    def test_a_reply_at_the_deadline_does_not_complete(self):
        for offset, completed in ((-1, 1), (0, 0)):
            net, ch = _tracking_channel()
            seq = ch.request([1, 2], dst=1, retransmit=False)
            net.sim.at(TIMEOUT + offset, ch.host.on_receive, _response("reply", seq), 0)
            net.sim.run()
            assert net.metrics.value("reliability.ch.completed.h1") == completed

    def test_a_late_ack_is_not_counted(self):
        net, ch = _tracking_channel()
        seq = ch.request([1, 2], dst=1, retransmit=False)
        net.sim.at(TIMEOUT + 1, ch.host.on_receive, _response("ack", seq), 0)
        net.sim.run()
        assert net.metrics.value("reliability.ch.acks.h1") == 0
        assert net.metrics.value("reliability.ch.completed.h1") == 0

    def test_outstanding_drops_at_the_deadline_without_a_send(self):
        net, ch = _tracking_channel()
        ch.request([1, 2], dst=1, retransmit=False)
        net.sim.run(until_ns=TIMEOUT - 1)
        assert ch.outstanding == 1
        net.sim.run(until_ns=TIMEOUT + 1)
        assert ch.outstanding == 0 and not ch.pending

    def test_a_tracking_send_schedules_only_its_send(self):
        net, host, ch, got = _echo_network()
        ch.request([5, 0], dst=1, retransmit=False)
        assert net.sim.pending == 1  # the host's transmit, and no timer
        net.sim.run()
        assert len(got) == 1
        assert net.metrics.value("reliability.ch.completed.h1") == 1

