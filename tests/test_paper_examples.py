"""The remaining worked examples of §V, executed verbatim.

Each test takes a code fragment from the paper's programming-model section
and checks the documented semantics.
"""

import pytest

from repro.core import compile_netcl
from repro.ir import GlobalState, IRInterpreter, KernelMessage
from repro.runtime import DeviceConnection, NetCLDevice


class TestSectionVB_ManagedThreshold:
    """§V-B: a runtime-configurable count-min-sketch threshold."""

    SRC = r"""
_managed_ unsigned thresh;
_managed_ unsigned cms[65536];

_kernel(1) void probe(unsigned k, unsigned &hot) {
  unsigned c = ncl::atomic_sadd_new(&cms[ncl::crc16(k)], 1);
  hot = c > thresh ? 1 : 0;
}
"""

    def test_threshold_reconfigurable_without_new_messages(self):
        cp = compile_netcl(self.SRC, 1)
        dev = NetCLDevice(1, cp.module, cp.kernels())
        conn = DeviceConnection(dev)
        conn.managed_write("thresh", 2)  # ncl::managed_write(c, &thresh, 2)
        from repro.runtime import KernelSpec, pack, Message
        from repro.runtime.message import NetCLPacket

        spec = KernelSpec.from_kernel(cp.kernels()[0])

        def probe():
            raw = pack(Message(src=1, dst=2, comp=1, to=1), spec, [7, None])
            return dev.process(NetCLPacket.from_wire(raw)).packet.data[-4:]

        results = [int.from_bytes(probe(), "big") for _ in range(4)]
        assert results == [0, 0, 1, 1]  # hot only once count exceeds 2
        # raise the threshold through the control plane: hot goes quiet
        conn.managed_write("thresh", 100)
        assert int.from_bytes(probe(), "big") == 0


class TestSectionVC_PerDeviceCopies:
    """§V-C: multi-location _managed_ memory has one copy per device."""

    SRC = "_net_ _managed_ _at(1,2) unsigned m;\n_kernel(1) _at(1,2) void k(unsigned &r) { r = m; }"

    def test_writes_are_local_per_device(self):
        devices = {}
        for dev_id in (1, 2):
            cp = compile_netcl(self.SRC, dev_id)
            devices[dev_id] = NetCLDevice(dev_id, cp.module, cp.kernels())
        conn1 = DeviceConnection(devices[1])
        conn2 = DeviceConnection(devices[2])
        conn1.managed_write("m", 1)  # managed_write(dev1, &m, 1)
        conn2.managed_write("m", 2)  # managed_write(dev2, &m, 2)
        assert conn1.managed_read("m") == 1  # a = 1, per the paper
        assert conn2.managed_read("m") == 2


class TestSectionVB_LookupSemantics:
    """§V-B: set membership and kv/rv lookup, verbatim values."""

    def _run(self, src, fields):
        cp = compile_netcl(src, 1, fit=False)
        interp = IRInterpreter(cp.module, GlobalState(), device_id=1)
        msg = KernelMessage(dict(fields))
        interp.run_kernel(cp.kernels()[0], msg)
        return msg.fields

    def test_scalar_lookup_array_acts_as_set(self):
        src = (
            "_net_ _lookup_ unsigned a[] = {1,2,3};\n"
            "_kernel(1) void k(unsigned &h2, unsigned &h5) {\n"
            "  h2 = ncl::lookup(a, 2);\n"
            "  h5 = ncl::lookup(a, 5); }"
        )
        out = self._run(src, {"h2": 9, "h5": 9})
        assert out["h2"] == 1 and out["h5"] == 0

    def test_kv_and_rv_lookup_paper_values(self):
        src = (
            "_net_ _lookup_ ncl::kv<int,int> a[] = { {1,2}, {2,3} };\n"
            "_net_ _lookup_ ncl::rv<int,int> b[] = { {{1,10},1}, {{11,20},2} };\n"
            "_kernel(1) void k(int &x, int &y, unsigned &ha, unsigned &hb) {\n"
            "  ha = ncl::lookup(a, 2, x);\n"
            "  hb = ncl::lookup(b, 21, y); }"
        )
        out = self._run(src, {"x": 42, "y": 42, "ha": 0, "hb": 0})
        assert out["ha"] == 1 and out["x"] == 3  # true, x = 3
        assert out["hb"] == 0 and out["y"] == 42  # false, y = 42


class TestSectionVD_PaperRejections:
    """§V-D: the exact example kernels the paper marks valid/invalid."""

    def test_mutually_exclusive_kernel_valid(self):
        compile_netcl(
            "_net_ int m[42];\n"
            "_kernel(1) void b(int x, int &r) { r = (x > 10) ? m[0] : m[1]; }",
            1,
        )

    def test_same_path_kernel_invalid(self):
        from repro.passes.memcheck import MemoryCheckError

        with pytest.raises(MemoryCheckError):
            compile_netcl(
                "_net_ int m[42];\n"
                "_kernel(2) void a(int x, int &r) { r = m[0] + m[1]; }",
                1,
            )

    def test_fig4_kernel_full_fidelity(self, fig4_compiled):
        """The complete Fig. 4 cache compiles, fits, and behaves."""
        assert fig4_compiled.report.stages_used <= 12
        interp = IRInterpreter(fig4_compiled.module, GlobalState(), device_id=1)
        fn = fig4_compiled.kernels()[0]
        # all four static entries hit with value 42
        for key in (1, 2, 3, 4):
            msg = KernelMessage({"op": 1, "k": key, "v": 0, "hit": 0, "hot": 0})
            out = interp.run_kernel(fn, msg)
            assert out.kind.value == "reflect" and msg.fields["v"] == 42
