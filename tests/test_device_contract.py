"""The device runtime's contract, pinned from the outside.

What :meth:`NetCLDevice.process` does with one packet: the forwarding
decision and output header of every Table II action, ``repeat()`` and its
limit, the zero-filled message tail, malformed data sections, no-op
forwarding, and the ``kernel.*`` counters a registry reports.  Only the
public surface is used, so any faster device step must pass unchanged.
"""

from __future__ import annotations

import pytest

from repro.core import compile_netcl
from repro.runtime import ACT_CODES, ForwardKind, KernelSpec, Message, NetCLDevice, NetCLPacket
from repro.runtime.device import DeviceRuntimeError
from repro.runtime.message import NO_DEVICE

ME = 1
SRC, DST = 11, 22

TABLE_II = r"""
_kernel(1) _at(1) void k(uint8_t op, uint16_t t, unsigned &r) {
  r = r + 1;
  if (op == 1) return ncl::drop();
  if (op == 2) return ncl::send_to_host(t);
  if (op == 3) return ncl::send_to_device(t);
  if (op == 4) return ncl::multicast(t);
  if (op == 6) return ncl::reflect();
  if (op == 7) return ncl::reflect_long();
}
"""

REPEAT = r"""
_net_ unsigned runs;
_kernel(1) _at(1) void k(unsigned stop, unsigned &n) {
  n = ncl::atomic_inc_new(&runs);
  if (n < stop) return ncl::repeat();
  return ncl::reflect();
}
"""

TAIL = r"""
_kernel(1) _at(1) void k(unsigned a, unsigned &seen, _tail_ unsigned _spec(2) *v) {
  seen = a + v[0] + v[1];
  v[1] = a;
  return ncl::reflect();
}
"""


def _device(src: str, **kwargs) -> NetCLDevice:
    cp = compile_netcl(src, ME, program_name="contract")
    return NetCLDevice(ME, cp.module, cp.kernels(), **kwargs)


def _packet(dev: NetCLDevice, values, *, from_=NO_DEVICE, to=ME, comp=1) -> NetCLPacket:
    spec = KernelSpec.from_kernel(next(iter(dev.kernels.values())))
    msg = Message(src=SRC, dst=DST, comp=comp, to=to, from_=from_)
    return NetCLPacket.from_message(msg, spec, values)


def _kernel_counters(dev: NetCLDevice) -> dict[str, int]:
    return {i.name: i.value for i in dev.metrics if i.name.startswith("kernel.")}


class TestTableII:
    @pytest.fixture
    def dev(self):
        return _device(TABLE_II)

    @pytest.mark.parametrize(
        "op,t,from_,decision,header",
        [
            # header: (to, from_, act, dst)
            (0, 0, NO_DEVICE, (ForwardKind.TO_HOST, DST), (NO_DEVICE, ME, "pass", DST)),
            (2, 33, NO_DEVICE, (ForwardKind.TO_HOST, 33), (NO_DEVICE, ME, "send_to_host", DST)),
            (3, 5, NO_DEVICE, (ForwardKind.TO_DEVICE, 5), (5, ME, "send_to_device", DST)),
            (4, 7, NO_DEVICE, (ForwardKind.MULTICAST, 7), (NO_DEVICE, ME, "multicast", DST)),
            # reflect: the previous computing device, else the source host
            (6, 0, NO_DEVICE, (ForwardKind.TO_HOST, SRC), (NO_DEVICE, ME, "reflect", DST)),
            (6, 0, 6, (ForwardKind.TO_DEVICE, 6), (6, ME, "reflect", DST)),
            (6, 0, ME, (ForwardKind.TO_HOST, SRC), (NO_DEVICE, ME, "reflect", DST)),
            # reflect_long: the source host even after another device
            (7, 0, 6, (ForwardKind.TO_HOST, SRC), (NO_DEVICE, ME, "reflect_long", DST)),
        ],
    )
    def test_decision_and_output_header(self, dev, op, t, from_, decision, header):
        packet = _packet(dev, [op, t, 41], from_=from_)
        sent = packet.copy()
        d = dev.process(packet)
        assert (d.kind, d.target) == decision
        out = d.packet
        to, from_out, act, dst = header
        assert (out.to, out.from_, out.act, out.dst) == (to, from_out, ACT_CODES[act], dst)
        assert (out.src, out.comp) == (SRC, 1)
        assert out.data == bytes([op]) + t.to_bytes(2, "big") + (42).to_bytes(4, "big")
        assert out is not packet and packet == sent  # the input is never rewritten

    def test_drop_forwards_nothing(self, dev):
        d = dev.process(_packet(dev, [1, 0, 41]))
        assert (d.kind, d.packet) == (ForwardKind.DROP, None)
        assert dev.packets_computed == 1

    def test_counters_name_each_action_and_forward_that_happened(self, dev):
        for op, from_ in ((0, NO_DEVICE), (0, NO_DEVICE), (1, NO_DEVICE), (3, NO_DEVICE),
                          (4, NO_DEVICE), (6, 6), (6, NO_DEVICE), (7, 6)):
            dev.process(_packet(dev, [op, 5, 0], from_=from_))
        dev.process(_packet(dev, [0, 0, 0], to=9))  # transit
        dev.process(_packet(dev, [0, 0, 0], comp=3))  # no such computation here
        assert _kernel_counters(dev) == {
            "kernel.dispatches": 10,
            "kernel.computed": 8,
            "kernel.noop_forwards": 2,
            "kernel.repeats": 0,
            "kernel.action.pass": 2,
            "kernel.action.drop": 1,
            "kernel.action.send_to_device": 1,
            "kernel.action.multicast": 1,
            "kernel.action.reflect": 2,
            "kernel.action.reflect_long": 1,
            "kernel.forward.to_host": 4,
            "kernel.forward.drop": 1,
            "kernel.forward.to_device": 2,
            "kernel.forward.multicast": 1,
        }


class TestRepeat:
    def test_each_repeat_re_executes_and_is_counted(self):
        dev = _device(REPEAT)
        d = dev.process(_packet(dev, [3, 0]))
        assert d.kind == ForwardKind.TO_HOST
        assert d.packet.data[4:] == (3).to_bytes(4, "big")  # ran three times
        assert dev.metrics.value("kernel.repeats") == 2
        assert dev.packets_computed == 1
        assert dev.metrics.value("kernel.action.reflect") == 1
        assert "kernel.action.repeat" not in dev.metrics.snapshot()

    def test_past_max_repeats_is_a_named_error(self):
        dev = _device(REPEAT, max_repeats=4)
        with pytest.raises(DeviceRuntimeError, match="exceeded 4 repeats"):
            dev.process(_packet(dev, [100, 0]))
        assert dev.state.snapshot()["registers"]["runs"] == [5]  # 1 + max_repeats runs
        assert dev.packets_computed == 0 and dev.metrics.value("kernel.repeats") == 0
        # the limit itself is allowed
        dev = _device(REPEAT, max_repeats=4)
        assert dev.process(_packet(dev, [5, 0])).kind == ForwardKind.TO_HOST
        assert dev.metrics.value("kernel.repeats") == 4


class TestMessageLayout:
    def test_an_omitted_tail_reads_as_zero_and_is_appended(self):
        dev = _device(TAIL)
        short = _packet(dev, [5, 0, None])
        assert len(short.data) == 8
        out = dev.process(short).packet
        words = [int.from_bytes(out.data[i : i + 4], "big") for i in range(0, 16, 4)]
        assert words == [5, 5, 0, 5]

    def test_a_short_data_section_is_dropped_and_counted(self):
        dev = _device(TABLE_II)
        packet = _packet(dev, [0, 0, 0])
        packet.data = packet.data[:-1]
        d = dev.process(packet)
        assert (d.kind, d.packet) == (ForwardKind.DROP, None)
        assert dev.metrics.value("kernel.malformed") == 1
        assert dev.packets_computed == 0
        assert "kernel.forward.drop" not in dev.metrics.snapshot()

    def test_a_long_data_section_is_dropped_not_truncated(self):
        dev = _device(TABLE_II)
        packet = _packet(dev, [0, 0, 0])
        packet.data += b"\x00"
        d = dev.process(packet)
        assert (d.kind, d.packet) == (ForwardKind.DROP, None)
        assert dev.metrics.value("kernel.malformed") == 1
        assert dev.packets_computed == 0


class TestNoOp:
    def test_another_devices_computation_is_forwarded_untouched(self):
        dev = _device(TABLE_II)
        packet = _packet(dev, [0, 0, 0], to=9)
        d = dev.process(packet)
        assert (d.kind, d.target) == (ForwardKind.TO_DEVICE, 9) and d.packet is packet
        assert dev.metrics.value("kernel.noop_forwards") == 1 and dev.packets_computed == 0

    def test_an_unknown_computation_continues_to_its_destination(self):
        dev = _device(TABLE_II)
        packet = _packet(dev, [0, 0, 0], comp=3)
        d = dev.process(packet)
        assert (d.kind, d.target) == (ForwardKind.TO_HOST, DST) and d.packet is packet
        assert dev.metrics.value("kernel.noop_forwards") == 1 and dev.packets_computed == 0
