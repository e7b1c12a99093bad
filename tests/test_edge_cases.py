"""Edge cases across the stack: empty placements, odd widths, emitter
microprograms, partitioned managed memory."""


from repro.core import compile_netcl
from repro.ir import GlobalState, IRInterpreter, KernelMessage
from repro.runtime import DeviceConnection, NetCLDevice
from tests.conftest import FIG4_CACHE


class TestEmptyPlacements:
    def test_device_with_no_kernels(self):
        src = "_kernel(1) _at(7) void k(unsigned x) { }"
        cp = compile_netcl(src, device_id=3)
        assert cp.kernels() == []
        assert cp.report is not None  # base program still fits
        dev = NetCLDevice(3, cp.module, cp.kernels())
        from repro.runtime.message import NetCLPacket, NO_DEVICE

        # everything is a no-op transit
        pkt = NetCLPacket(src=1, dst=2, from_=NO_DEVICE, to=7, comp=1, act=0, data=b"\0\0\0\0")
        d = dev.process(pkt)
        assert d.kind.value == "to_device" and d.target == 7

    def test_module_with_only_memory(self):
        cp = compile_netcl("_managed_ unsigned cfg[16];", device_id=1)
        assert "cfg" in cp.module.globals and cp.kernels() == []


class TestOddWidths:
    def test_one_bit_fields(self):
        src = "_kernel(1) void k(bool b, unsigned &r) { r = b ? 7 : 9; }"
        cp = compile_netcl(src, 1, fit=False)
        interp = IRInterpreter(cp.module, GlobalState())
        for b, expected in ((1, 7), (0, 9)):
            msg = KernelMessage({"b": b, "r": 0})
            interp.run_kernel(cp.kernels()[0], msg)
            assert msg.fields["r"] == expected

    def test_u64_arithmetic_wraps(self):
        src = "_kernel(1) void k(uint64_t a, uint64_t &r) { r = a + 1; }"
        cp = compile_netcl(src, 1, fit=False)
        interp = IRInterpreter(cp.module, GlobalState())
        msg = KernelMessage({"a": (1 << 64) - 1, "r": 0})
        interp.run_kernel(cp.kernels()[0], msg)
        assert msg.fields["r"] == 0

    def test_u8_counter_wraps_in_register(self):
        src = (
            "_net_ uint8_t c;\n"
            "_kernel(1) void k(unsigned &r) { r = ncl::atomic_add_new(&c, 200); }"
        )
        cp = compile_netcl(src, 1, fit=False)
        interp = IRInterpreter(cp.module, GlobalState())
        outs = []
        for _ in range(2):
            msg = KernelMessage({"r": 0})
            interp.run_kernel(cp.kernels()[0], msg)
            outs.append(msg.fields["r"])
        assert outs == [200, (400) & 0xFF]


class TestEmitterMicroprograms:
    def _p4(self, src):
        return compile_netcl(src, 1, fit=False).p4_source

    def test_conditional_atomic_single_salu_program(self):
        src = (
            "_net_ unsigned m[8];\n"
            "_kernel(1) void k(unsigned c, unsigned v, unsigned &r) {\n"
            "  r = ncl::atomic_cond_add_new(&m[0], c != 0, v); }"
        )
        p4 = self._p4(src)
        # condition handled inside the RegisterAction (one stage, §V-D)
        assert "if (" in p4 and "mem = mem + " in p4 and "rv = mem;" in p4

    def test_cas_microprogram(self):
        src = (
            "_net_ unsigned m;\n"
            "_kernel(1) void k(unsigned exp, unsigned v, unsigned &old) {\n"
            "  old = ncl::atomic_cas(&m, exp, v); }"
        )
        p4 = self._p4(src)
        assert "if (mem ==" in p4

    def test_saturating_microprogram_uses_p4_saturation(self):
        src = (
            "_net_ unsigned m;\n"
            "_kernel(1) void k(unsigned v, unsigned &r) { r = ncl::atomic_sadd_new(&m, v); }"
        )
        assert "|+|" in self._p4(src)

    def test_range_table_entries(self):
        src = (
            "_net_ _lookup_ ncl::rv<int,int> t[2] = {{{1,10},1}, {{11,20},2}};\n"
            "_kernel(1) void k(int x, int &v, unsigned &h) { h = ncl::lookup(t, x, v); }"
        )
        p4 = self._p4(src)
        assert ": range;" in p4 and "1 .. 10" in p4


class TestPartitionedManagedMemory:
    def test_host_writes_reach_partitioned_rows(self):
        """After partitioning cms -> cms.part0..2, control-plane writes by
        base name land where the kernel reads them."""
        cp = compile_netcl(FIG4_CACHE, 1, program_name="fig4")
        assert "cms.part1" in cp.module.globals
        dev = NetCLDevice(1, cp.module, cp.kernels())
        conn = DeviceConnection(dev)
        # row 1, column 5 in the original [3][65536] layout
        conn.managed_write("cms", 1234, index=1 * 65536 + 5)
        gv = cp.module.globals["cms.part1"]
        assert dev.state.read(gv, [5]) == 1234

    def test_reset_sketch_via_control_plane(self):
        cp = compile_netcl(FIG4_CACHE, 1, program_name="fig4")
        dev = NetCLDevice(1, cp.module, cp.kernels())
        from repro.runtime import KernelSpec, Message, pack
        from repro.runtime.message import NetCLPacket

        spec = KernelSpec.from_kernel(cp.kernels()[0])
        for _ in range(3):
            raw = pack(Message(src=1, dst=2, comp=1, to=1), spec, [1, 77, None, None, None])
            dev.process(NetCLPacket.from_wire(raw))
        snapshot = dev.state.snapshot()["registers"]["cms"]
        assert sum(snapshot) == 9  # 3 rows x 3 misses
        # host resets the sketch (a slow-path managed operation, §V-B)
        for i in range(len(snapshot)):
            if snapshot[i]:
                dev.state.cp_register_write("cms", 0, i)
        assert sum(dev.state.snapshot()["registers"]["cms"]) == 0
