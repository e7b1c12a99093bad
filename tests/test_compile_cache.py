"""The compile cache inside ``compile_netcl`` and the kernel code shared
per program (ISSUE 14).

``compile_netcl`` is a memoised pure function: what it returns is shared
by reference between identical calls and therefore frozen.  The last
class checks that contract against the flagship scenarios instead of
trusting it.
"""

from __future__ import annotations

import dataclasses
from enum import Enum

import pytest

from repro.analysis import DiagnosticEngine
from repro.analysis.tvalid import PassValidator
from repro.core import (
    compile_cache_clear,
    compile_cache_info,
    compile_netcl,
    driver,
)
from repro.deploy import AbstractTopology, PhysicalFabric
from repro.ir.blocks import BasicBlock
from repro.ir.instructions import Value
from repro.lang.errors import CompileError
from repro.netsim import DEVICE, HOST
from repro.passes.manager import PassOptions
from repro.runtime import KernelSpec, NetCLDevice
from repro.runtime.message import NO_DEVICE, NetCLPacket
from repro.service import INCService
from repro.telemetry import Profiler, render_profile_text
from repro.tofino.allocator import FitError

from tests.conftest import MINI_KERNEL

#: registers, a managed lookup table and the device rng in one kernel
STATEFUL = """
_net_ unsigned hits[4];
_managed_ _lookup_ ncl::kv<unsigned, unsigned> routes[8];
_kernel(1) void roll(unsigned k, unsigned &r, unsigned &n, unsigned &v, char &found) {
  r = ncl::rand<unsigned>();
  n = ncl::atomic_add_new(&hits[0], 1);
  found = ncl::lookup(routes, k, v);
  return ncl::reflect();
}
"""

DEAD_STORE = """
_kernel(1) void k(uint32_t &x) {
  uint32_t t = x;
  t = x + 1;
  x = t;
  return ncl::pass();
}
"""


def _too_big() -> str:
    decls = "\n".join(f"_net_ unsigned m{i};" for i in range(64))
    body = "\n".join(f"  s = ncl::atomic_add_new(&m{i}, s & 255);" for i in range(64))
    return f"{decls}\n_kernel(1) void k(unsigned &s) {{\n{body}\n}}"


def _specs(cp):
    return [KernelSpec.from_kernel(fn) for fn in cp.kernels()]


# ---------------------------------------------------------------------------
# hits and misses
# ---------------------------------------------------------------------------

class TestHit:
    def test_second_identical_call_is_served_by_reference(self):
        first = compile_netcl(MINI_KERNEL, 1, program_name="mini")
        again = compile_netcl(MINI_KERNEL, 1, program_name="mini")

        assert not first.cache_hit and first.timings.total_seconds > 0
        assert again.cache_hit
        assert again.timings == driver.CompileTimings()
        assert again is not first
        assert again.module is first.module
        assert again.spec is first.spec and again.kernel_stats is first.kernel_stats
        assert again.p4_source == first.p4_source
        assert again.report is first.report
        assert _specs(again) == _specs(first)
        assert compile_cache_info() == (1, 1, 0, 1)

    def test_clear_forgets_programs_and_counters(self):
        compile_netcl(MINI_KERNEL, 1)
        compile_netcl(MINI_KERNEL, 1)
        compile_cache_clear()
        assert compile_cache_info() == (0, 0, 0, 0)
        assert not compile_netcl(MINI_KERNEL, 1).cache_hit

    def test_a_hit_records_one_cache_span_even_when_profiled(self):
        compile_netcl(MINI_KERNEL, 1, profiler=Profiler())
        prof = Profiler()
        again = compile_netcl(MINI_KERNEL, 1, profiler=prof)

        assert again.cache_hit and again.profile is prof
        assert [s.name for s in prof.phases()] == ["cache"]
        assert prof.passes() == []
        assert " cache " in render_profile_text(prof)  # what ncc --profile prints

    def test_a_profiled_miss_has_no_cache_span(self):
        prof = Profiler()
        compile_netcl(MINI_KERNEL, 1, profiler=prof)
        assert [s.name for s in prof.phases()] == ["frontend", "passes", "codegen", "fitter"]


BASE = dict(
    source=MINI_KERNEL,
    device_id=1,
    target="tna",
    options=None,
    defines={"SPARE": 1},
    fit=True,
    program_name="mini",
)


def _flipped(field: dataclasses.Field) -> PassOptions:
    value = getattr(PassOptions(), field.name)
    return dataclasses.replace(
        PassOptions(), **{field.name: (not value) if isinstance(value, bool) else value + 1}
    )


KEY_VARIANTS = {
    "source by one comment byte": dict(source=MINI_KERNEL + "//"),
    "device_id": dict(device_id=2),
    "target": dict(target="v1model"),
    "one more define": dict(defines={"SPARE": 1, "OTHER": 1}),
    "define value": dict(defines={"SPARE": 2}),
    "1 vs True define": dict(defines={"SPARE": True}),
    "fit": dict(fit=False),
    "program_name": dict(program_name="mini2"),
    **{
        f"options.{f.name}": dict(options=_flipped(f))
        for f in dataclasses.fields(PassOptions)
        # target is an argument of its own; verify_passes never caches
        if f.name not in ("target", "verify_passes")
    },
}


def _compile(**overrides):
    args = {**BASE, **overrides}
    return compile_netcl(args.pop("source"), args.pop("device_id"), **args)


class TestKey:
    @pytest.mark.parametrize("what", KEY_VARIANTS)
    def test_changing_one_component_misses(self, what):
        base = _compile()
        variant = _compile(**KEY_VARIANTS[what])
        assert not variant.cache_hit, what
        assert variant.module is not base.module
        assert compile_cache_info() == (0, 2, 0, 2)
        # ... and each is its own entry from then on
        assert _compile(**KEY_VARIANTS[what]).module is variant.module
        assert _compile().module is base.module

    def test_every_pass_option_is_covered(self):
        flags = {f.name for f in dataclasses.fields(PassOptions)}
        covered = {k.split(".", 1)[1] for k in KEY_VARIANTS if k.startswith("options.")}
        assert flags - covered == {"target", "verify_passes"}

    def test_define_order_and_equal_options_do_not_matter(self):
        a = compile_netcl(MINI_KERNEL, 1, defines={"A": 1, "B": 2})
        b = compile_netcl(MINI_KERNEL, 1, defines={"B": 2, "A": 1}, options=PassOptions())
        assert b.cache_hit and b.module is a.module


class TestOptionsAreCopied:
    """Satellite bug: ``compile_netcl`` used to write ``target`` into the
    caller's PassOptions."""

    def test_callers_options_are_not_written_to(self):
        options = PassOptions(target="tna")
        cp = compile_netcl(MINI_KERNEL, 1, target="v1model", options=options)
        assert options.target == "tna"
        assert cp.options.target == "v1model"
        assert cp.options is not options

    def test_mutating_options_afterwards_reaches_neither_entry_nor_key(self):
        options = PassOptions()
        first = compile_netcl(MINI_KERNEL, 1, options=options)
        options.speculation = False
        options.distance_threshold += 1

        assert first.options == PassOptions()
        assert compile_netcl(MINI_KERNEL, 1).module is first.module  # key intact
        changed = compile_netcl(MINI_KERNEL, 1, options=options)
        assert not changed.cache_hit and not changed.options.speculation


# ---------------------------------------------------------------------------
# what always compiles, what is never stored
# ---------------------------------------------------------------------------

class TestBypass:
    def test_lint_compiles_every_time_and_fills_its_engine(self):
        plain = compile_netcl(DEAD_STORE, 1)
        before = compile_cache_info()
        for _ in range(2):
            cp = compile_netcl(DEAD_STORE, 1, diagnostics=DiagnosticEngine())
            assert not cp.cache_hit and cp.module is not plain.module
            assert [d.code for d in cp.diagnostics.diagnostics] == ["NCL004"]
        assert compile_cache_info() == before  # neither read nor filled
        assert compile_netcl(DEAD_STORE, 1).diagnostics is None

    def test_a_diagnostics_engine_compiles_every_time(self):
        for _ in range(2):
            engine = DiagnosticEngine()
            cp = compile_netcl(DEAD_STORE, 1, diagnostics=engine)
            assert not cp.cache_hit and cp.diagnostics is engine
            assert [d.code for d in engine.diagnostics] == ["NCL004"]
        assert compile_cache_info() == (0, 0, 0, 0)

    def test_verify_passes_validates_every_time(self, monkeypatch):
        checked = []
        real = PassValidator.check_engine
        monkeypatch.setattr(
            PassValidator,
            "check_engine",
            lambda self, fn: (checked.append(fn.name), real(self, fn))[1],
        )
        for _ in range(2):
            cp = compile_netcl(MINI_KERNEL, 1, options=PassOptions(verify_passes=True))
            assert not cp.cache_hit
        assert checked == ["bump", "bump"]
        assert compile_cache_info() == (0, 0, 0, 0)

    @pytest.mark.parametrize(
        "source, error",
        [
            ("_net_ _at(2) int m;\n_kernel(1) _at(1) void k(int &r) { r = m; }", CompileError),
            (_too_big(), FitError),
        ],
    )
    def test_errors_are_raised_again_not_cached(self, source, error):
        for _ in range(2):
            with pytest.raises(error):
                compile_netcl(source, 1)
        assert compile_cache_info() == (0, 2, 0, 0)


class TestLru:
    @staticmethod
    def _nth(n: int):
        return compile_netcl(f"{MINI_KERNEL}// {n}\n", 1, fit=False)

    def test_the_33rd_program_evicts_the_least_recently_used(self):
        capacity = driver._CompileCache.CAPACITY
        assert capacity == 32
        for n in range(capacity):
            self._nth(n)
        assert self._nth(0).cache_hit  # refreshes recency: 1 is now the oldest
        self._nth(capacity)
        assert compile_cache_info() == (1, capacity + 1, 1, capacity)
        assert self._nth(0).cache_hit
        assert not self._nth(1).cache_hit  # was evicted; evicts 2 on its way in
        assert compile_cache_info() == (2, capacity + 2, 2, capacity)


# ---------------------------------------------------------------------------
# one program, many devices
# ---------------------------------------------------------------------------

def _roll(dev, key=5):
    spec = dev.specs[1]
    packet = NetCLPacket(
        src=1, dst=2, from_=NO_DEVICE, to=dev.device_id, comp=1, act=0,
        data=key.to_bytes(4, "big") + bytes(spec.plan.data_bytes - 4),
    )
    return dev.process(packet).packet.data


def _hits(dev) -> list[int]:
    return dev.state.snapshot()["registers"]["hits"]


class TestDevicesShareCodeNotState:
    def test_two_devices_and_a_reboot(self):
        first = compile_netcl(STATEFUL, 1)
        again = compile_netcl(STATEFUL, 1)
        a = NetCLDevice(1, first.module, first.kernels(), seed=3)
        b = NetCLDevice(1, again.module, again.kernels(), seed=3)
        fn = a.kernels[1]

        a.state.cp_table_insert("routes", 5, value=77)
        rolls_a = [_roll(a) for _ in range(3)]
        assert _hits(a) == [3, 0, 0, 0]
        assert _hits(b) == [0, 0, 0, 0]  # untouched by a's traffic

        # b has its own rng (same seed, same stream from the start), its
        # own registers and its own, empty, table
        rolls_b = [_roll(b) for _ in range(3)]
        assert [r[4:12] for r in rolls_b] == [r[4:12] for r in rolls_a]
        assert [r[12:] for r in rolls_a] == [(77).to_bytes(4, "big") + b"\x01"] * 3
        assert [r[12:] for r in rolls_b] == [bytes(5)] * 3
        assert first.module.globals["routes"].entries == []

        code = a.interp.kernel_code(fn)
        assert code is not None and b.interp.kernel_code(fn) is code
        assert a.interp.interpreted == b.interp.interpreted == 0

        a.reset_state()
        assert a.interp.kernel_code(fn) is code  # bound again, not regenerated
        assert [_roll(a) for _ in range(3)] == rolls_b  # rebooted: b's fresh start
        assert _hits(b) == [3, 0, 0, 0]

    def test_two_tenant_devices(self):
        fab = PhysicalFabric()
        fab.add_switch(1, free_stages=12)
        for host in (1, 2):
            fab.add_host(host)
            fab.link(HOST(host), DEVICE(1))
        svc = INCService(fab)
        for host, tenant in enumerate("ab", start=1):
            cp = compile_netcl(STATEFUL, 1, program_name="stateful")
            topo = AbstractTopology()
            topo.add_device(1, cp)
            topo.attach_host(host, 1)
            svc.submit(tenant, topo)
        assert compile_cache_info().hits == 1

        dev_a, dev_b = (
            svc.network.switches[svc.device_id_of(t, 1)].device.inner for t in ("a", "b")
        )
        assert dev_a.module is dev_b.module
        _roll(dev_a)
        assert (_hits(dev_a), _hits(dev_b)) == ([1, 0, 0, 0], [0, 0, 0, 0])
        _roll(dev_b)
        fn = dev_a.kernels[1]
        assert dev_a.interp.kernel_code(fn) is dev_b.interp.kernel_code(fn)


# ---------------------------------------------------------------------------
# the frozen contract
# ---------------------------------------------------------------------------

def _atom(v):
    if isinstance(v, BasicBlock):
        return v.name
    if isinstance(v, Value):
        return v.short()
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, (list, tuple)):
        return [_atom(x) for x in v]
    return repr(v)


def fingerprint(cp) -> dict:
    """Everything a device, planner or tool could have changed: per-block
    opcodes with every field, global shapes and entries, P4 text, report."""
    module = cp.module
    return {
        "functions": {
            name: [
                (
                    bb.name,
                    [
                        (type(i).__name__, sorted(
                            (k, _atom(v)) for k, v in vars(i).items() if k != "parent"
                        ))
                        for i in bb.instructions
                    ],
                )
                for bb in fn.blocks
            ]
            for name, fn in module.functions.items()
        },
        "globals": {
            name: (
                repr(gv),
                getattr(gv, "fixed_outer", None),
                [(e.key_lo, e.key_hi, e.value) for e in gv.entries],
            )
            for name, gv in module.globals.items()
        },
        "kernels": [fn.name for fn in cp.kernels()],
        "specs": _specs(cp),
        "p4": cp.p4_source,
        "report": cp.report.row() if cp.report is not None else None,
        "options": dataclasses.astuple(cp.options),
    }


def _collective():
    from repro.collective.scenarios import run_collective_chaos

    return run_collective_chaos(seed=7, tensor_elements=512, baseline=False)


def _rpc():
    from repro.rpc.scenarios import run_rpc_chaos

    return run_rpc_chaos(seed=7, baseline=False)


def _chaos_agg():
    from repro.chaos.scenarios import run_agg_chaos

    return run_agg_chaos(seed=7)


def _service():
    from repro.service import default_service_plan, run_service_plan

    return run_service_plan(default_service_plan(7))


class TestFrozenAfterReturn:
    @pytest.mark.parametrize("scenario", [_collective, _rpc, _chaos_agg, _service])
    def test_scenarios_leave_cached_programs_as_compiled(self, scenario, monkeypatch):
        as_compiled = {}
        put = driver._CACHE.put

        def recording_put(key, compiled):
            as_compiled[key] = fingerprint(compiled)
            put(key, compiled)

        monkeypatch.setattr(driver._CACHE, "put", recording_put)
        result = scenario()
        assert result.ok, result.errors
        again = scenario()  # now against programs the first run has used
        assert again.digest == result.digest

        info = compile_cache_info()
        assert info.evictions == 0 and info.size == len(as_compiled) == info.misses
        assert info.hits >= info.misses  # the second run compiled nothing
        for key, entry in driver._CACHE.entries.items():
            assert fingerprint(entry) == as_compiled[key], entry.kernels()
            for (fn, _), code in entry.module.kernel_code.items():
                assert code is not None, fn.name  # engine.interpreted stays 0
