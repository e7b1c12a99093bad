"""Cross-cutting integration edges: UDP device chains, simplify/CFG
invariants, structurizer verification, AGG protocol corner cases."""


from repro.core import compile_netcl
from repro.ir import verify_function
from repro.lang import analyze, lower_to_ir, parse_source
from repro.passes import mem2reg, simplify_function
from repro.runtime import KernelSpec, Message, NetCLDevice
from repro.runtime.udp import UdpHost, UdpSwitch

CHAIN = r"""
_at(1) _kernel(1) void first(unsigned &trail) {
  trail = trail * 10 + 1;
  return ncl::send_to_device(2);
}
_at(2) _kernel(1) void second(unsigned &trail) {
  trail = trail * 10 + 2;
  return ncl::pass();
}
"""


class TestUdpDeviceChain:
    def test_two_udp_switches_chain(self):
        cp1 = compile_netcl(CHAIN, 1, program_name="chain")
        cp2 = compile_netcl(CHAIN, 2, program_name="chain")
        d1 = NetCLDevice(1, cp1.module, cp1.kernels())
        d2 = NetCLDevice(2, cp2.module, cp2.kernels())
        spec = KernelSpec.from_kernel(cp1.kernels()[0])
        with UdpSwitch(d1) as s1, UdpSwitch(d2) as s2:
            s1.device_addrs[2] = s2.endpoint.addr
            with UdpHost(1) as client, UdpHost(2) as sink:
                client.connect(s1)
                sink.connect(s2)
                # chain: h1 -> d1 (computes) -> d2 (computes) -> h2
                client.send(Message(src=1, dst=2, comp=1, to=1), spec, [0])
                _, values = sink.recv(spec)
                assert values == [12]
                assert d1.packets_computed == 1 and d2.packets_computed == 1


class TestSimplifyInvariants:
    def test_verify_after_every_stage(self):
        src = (
            "_net_ unsigned g[8];\n"
            "_kernel(1) void k(unsigned a, unsigned b, unsigned &r) {\n"
            "  unsigned t = 0;\n"
            "  if (a > b) { t = a - b; } else { t = b - a; }\n"
            "  if (t > 100) { r = ncl::atomic_add_new(&g[a & 7], t); }\n"
            "  else { r = t; } }"
        )
        fn = lower_to_ir(analyze(parse_source(src))).kernels()[0]
        verify_function(fn)
        mem2reg(fn)
        verify_function(fn)
        simplify_function(fn)
        verify_function(fn)

    def test_dead_diamond_collapses_to_line(self):
        src = (
            "_kernel(1) void k(unsigned &r) {\n"
            "  unsigned t;\n"
            "  if (3 > 2) t = 1; else t = 2;\n"
            "  r = t; }"
        )
        fn = lower_to_ir(analyze(parse_source(src))).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        assert len(fn.blocks) == 1


class TestStructurizerVerification:
    def test_tree_covers_every_reachable_block(self, fig4_module):
        from repro.passes import (
            PassManager,
            PassOptions,
            eliminate_phis,
            structurize,
        )
        from repro.passes.structurize import LeafNode, SeqNode, IfNode

        PassManager(PassOptions()).run_pipeline(fig4_module)
        fn = fig4_module.functions["query"]
        eliminate_phis(fn)
        tree = structurize(fn)

        seen = set()

        def walk(node):
            if isinstance(node, LeafNode) and node.block is not None:
                seen.add(id(node.block))
            elif isinstance(node, SeqNode):
                for i in node.items:
                    walk(i)
            elif isinstance(node, IfNode):
                walk(node.then)
                if node.els:
                    walk(node.els)

        walk(tree)
        from repro.ir.dominators import postorder

        assert seen == {id(bb) for bb in postorder(fn)}


class TestAggProtocolCorners:
    def _device(self, workers=2):
        from repro.apps import compile_app

        cp = compile_app("agg", 1, defines={"NUM_WORKERS": workers})
        return NetCLDevice(1, cp.module, cp.kernels()), KernelSpec.from_kernel(cp.kernels()[0])

    def _pkt(self, spec, worker, ver, slot, vals, exp=1):
        from repro.runtime.message import NetCLPacket, pack

        raw = pack(
            Message(src=worker + 1, dst=worker + 1, comp=1, to=1),
            spec,
            [ver, slot, ver * 256 + slot, 1 << worker, exp, vals],
        )
        from repro.runtime.message import NetCLPacket

        return NetCLPacket.from_wire(raw)

    def test_early_spurious_retransmission_dropped(self):
        dev, spec = self._device()
        # worker 0 contributes; retransmits before worker 1 arrives
        assert dev.process(self._pkt(spec, 0, 0, 3, [5] * 32)).kind.value == "drop"
        d = dev.process(self._pkt(spec, 0, 0, 3, [5] * 32))
        assert d.kind.value == "drop"  # not a bogus multicast (cnt==1 case)
        # worker 1 completes the slot
        d2 = dev.process(self._pkt(spec, 1, 0, 3, [7] * 32))
        assert d2.kind.value == "multicast"

    def test_duplicate_contribution_does_not_double_count(self):
        dev, spec = self._device(workers=3)
        dev.process(self._pkt(spec, 0, 0, 1, [1] * 32))
        dev.process(self._pkt(spec, 0, 0, 1, [1] * 32))  # duplicate
        dev.process(self._pkt(spec, 1, 0, 1, [1] * 32))
        d = dev.process(self._pkt(spec, 2, 0, 1, [1] * 32))
        assert d.kind.value == "multicast"
        from repro.runtime.message import unpack

        _, values = unpack(d.packet.to_wire(), spec)
        assert values[5] == [3] * 32  # exactly one contribution per worker

    def test_version_flip_reuses_slot(self):
        dev, spec = self._device()
        for ver in (0, 1, 0, 1):
            dev.process(self._pkt(spec, 0, ver, 9, [2] * 32))
            d = dev.process(self._pkt(spec, 1, ver, 9, [3] * 32))
            assert d.kind.value == "multicast", ver
            from repro.runtime.message import unpack

            _, values = unpack(d.packet.to_wire(), spec)
            assert values[5] == [5] * 32
