"""Outside-in tracing: spans around the calls into each layer.

A traced run replaces, *at class level and in its own process only*, the
public functions each layer is entered through with
:meth:`bench.tracer.Tracer.wrap` versions of themselves.  Nothing in
``src/`` knows: an untraced run never imports this module's effects and
``uninstall()`` puts every original back.

Span name -> layer is the identity except that ``host_app.issue`` is the
part of ``host_app`` that issues work (``submit`` / ``call`` / ``gather``
/ first window), and that anything under ``Simulator.run`` which no
wrapper claims (scheduler, hop/link/route path, untracked timers) is
``netsim`` self time.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from bench.tracer import Tracer, self_times, span_counts

#: (module, class, method, span name)
METHOD_SPANS = (
    ("repro.netsim.sim", "Simulator", "run", "netsim"),
    ("repro.chaos.inject", "ChaosController", "on_transmit", "chaos"),
    ("repro.chaos.inject", "ChaosController", "_fire", "chaos"),
    ("repro.runtime.device", "NetCLDevice", "process", "runtime.device"),
    ("repro.ir.interp", "IRInterpreter", "run_kernel", "ir.interp"),
    ("repro.p4.switch", "P4NetCLSwitchDevice", "process", "p4"),
    ("repro.reliability.device", "ReliableNetCLDevice", "process", "reliability.device"),
    ("repro.reliability.channel", "ReliableChannel", "request", "reliability.channel"),
    ("repro.reliability.channel", "ReliableChannel", "send_reply", "reliability.channel"),
    ("repro.reliability.channel", "ReliableChannel", "_timer_fire", "reliability.channel"),
    ("repro.reliability.channel", "ReliableChannel", "retarget", "reliability.channel"),
    ("repro.reliability.failover", "FailoverManager", "_tick", "reliability.failover"),
    ("repro.netsim.net", "Host", "send_message", "host_app"),
    ("repro.collective.protocol", "SlotStream", "_send_chunk", "host_app"),
    ("repro.collective.protocol", "SlotStream", "start", "host_app.issue"),
    ("repro.collective.tree", "CollectiveCluster", "submit", "host_app.issue"),
    ("repro.rpc.client", "RpcClient", "call", "host_app.issue"),
    ("repro.rpc.client", "RpcClient", "gather", "host_app.issue"),
    ("repro.rpc.client", "RpcClient", "_retry", "host_app"),
    ("repro.rpc.cluster", "TokenRefiller", "_tick", "host_app"),
    ("repro.apps.cache", "CacheClient", "query", "host_app.issue"),
    ("repro.service.workload", "AggDriver", "build", "host_app"),
    ("repro.service.workload", "CacheDriver", "build", "host_app"),
    ("repro.service.workload", "EchoDriver", "build", "host_app"),
    ("repro.service.workload", "BulkDriver", "build", "host_app"),
    ("repro.service.workload", "AggDriver", "launch", "host_app.issue"),
    ("repro.service.workload", "CacheDriver", "launch", "host_app.issue"),
    ("repro.service.workload", "EchoDriver", "launch", "host_app.issue"),
    ("repro.service.orchestrator", "INCService", "submit", "service.submit"),
    ("repro.service.orchestrator", "INCService", "evict", "service.evict"),
    ("repro.service.orchestrator", "INCService", "migrate", "service.migrate"),
    ("repro.service.placement", "IncrementalPlanner", "plan_incremental", "service.placement"),
    ("repro.service.orchestrator", "TenantDevice", "process", "service.tenant_device"),
)

#: module-level functions, re-bound in every ``repro`` module that holds
#: a ``from ... import`` copy: (module, function, span name)
FUNCTION_SPANS = (
    ("repro.core.driver", "compile_netcl", "compile"),
    ("repro.p4.parser", "parse_p4", "p4.parse"),
)

PASS_METRICS = {
    "mem2reg": ("mem2reg",),
    "hoist": ("hoist",),
    "simplify": ("simplify", "simplify-postsel", "simplify2"),
}


class CompileStats:
    """Sums of the compiler's own ``CompileTimings`` and pass records."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.phase_s: dict[str, float] = defaultdict(float)
        self.pass_s: dict[str, float] = defaultdict(float)
        self.ir_instrs_out = 0

    def add(self, compiled) -> None:
        self.calls += 1
        t = compiled.timings
        self.phase_s["frontend"] += t.frontend_seconds
        self.phase_s["passes"] += t.passes_seconds
        self.phase_s["codegen"] += t.codegen_seconds
        self.phase_s["fitter"] += t.fitter_seconds
        last_size: dict[str, int] = {}
        for sp in compiled.profile.passes():
            self.pass_s[sp.name] += sp.seconds
            if sp.meta.get("function") != "<module>":
                last_size[sp.meta["function"]] = sp.meta["instrs_after"]
        self.ir_instrs_out += sum(last_size.values())


class Layers:
    """Installs the wrappers, owns what they record."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.compile = CompileStats()
        #: every Network constructed while installed (source of counters)
        self.networks: list = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def installed(self):
        """Forget the previous rep, wrap for the length of this one."""
        self.tracer.reset()
        self.compile.reset()
        self.networks.clear()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- install / uninstall --------------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("layers already installed")
        for module, cls_name, method, span in METHOD_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, self.tracer.wrap(vars(cls)[method], span))
        for module, fn_name, span in FUNCTION_SPANS:
            orig = getattr(importlib.import_module(module), fn_name)
            new = self.tracer.wrap(orig, span)
            if fn_name == "compile_netcl":
                new = self._profiled_compile(new)
            sites = self._rebind(orig, new)
            if not sites:
                raise RuntimeError(f"no binding of {module}.{fn_name} found")
        self._install_receive_property()
        self._install_network_capture()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            if orig is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def _rebind(self, orig, new) -> list:
        sites = []
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, new)
                    sites.append((mod.__name__, attr))
        return sites

    def _profiled_compile(self, spanned):
        from repro.telemetry import Profiler

        stats = self.compile

        def compile_netcl(*args, **kwargs):
            if kwargs.get("profiler") is None:
                kwargs["profiler"] = Profiler()
            compiled = spanned(*args, **kwargs)
            stats.add(compiled)
            return compiled

        return compile_netcl

    def _install_receive_property(self) -> None:
        """``Host.on_receive`` is an instance attribute the apps assign a
        bound method to; a class-level property wraps whatever lands
        there, named by who owns the handler."""
        from repro.netsim.net import Host
        from repro.reliability import ReliableChannel

        tracer = self.tracer

        def get(host):
            return host.__dict__.get("_traced_on_receive")

        def set_(host, fn) -> None:
            if fn is not None and not hasattr(fn, "__wrapped__"):
                owner = getattr(fn, "__self__", None)
                span = (
                    "reliability.channel"
                    if isinstance(owner, ReliableChannel)
                    else "host_app"
                )
                fn = tracer.wrap(fn, span)
            host.__dict__["_traced_on_receive"] = fn

        self._patch(Host, "on_receive", property(get, set_))

    def _install_network_capture(self) -> None:
        from repro.netsim.net import Network

        init = Network.__init__
        seen = self.networks

        def __init__(net, *args, **kwargs):
            init(net, *args, **kwargs)
            seen.append(net)

        self._patch(Network, "__init__", __init__)


_ABSENT = object()


# ---------------------------------------------------------------------------
# counters the program keeps itself
# ---------------------------------------------------------------------------

def program_counts(networks) -> dict[str, float]:
    """Sums over the public ``MetricRegistry`` / ``Simulator`` counters of
    every network (and every device registry) the rep created."""
    from repro.p4 import P4NetCLSwitchDevice

    regs: dict[int, object] = {}
    p4_regs: dict[int, object] = {}
    for net in networks:
        regs[id(net.metrics)] = net.metrics
        for sw in net.switches.values():
            dev = getattr(sw.device, "inner", sw.device)
            bucket = p4_regs if isinstance(dev, P4NetCLSwitchDevice) else regs
            bucket[id(dev.metrics)] = dev.metrics

    def value(name: str, group=regs) -> float:
        return sum(r.value(name) for r in group.values())

    def total(prefix: str) -> float:
        return sum(r.total(prefix) for r in regs.values())

    worst_p99 = 0.0
    for r in regs.values():
        for inst in r:
            if inst.name.startswith("tenant.") and inst.name.endswith(".latency_ns"):
                if getattr(inst, "count", 0):
                    worst_p99 = max(worst_p99, inst.quantile(0.99) / 1000.0)
    return {
        "events": sum(n.sim.events_processed for n in networks),
        "route_rebuilds": sum(n.route_rebuilds for n in networks),
        "link_tx_packets": total("link.tx_packets."),
        # a kernel's own drop() is protocol behaviour, not a network drop
        "dropped": total("net.drop.") - value("net.drop.kernel") + value("net.lost"),
        "hops_saved": value("net.multicast.hops_saved"),
        "chaos.lost": value("chaos.lost"),
        "chaos.duplicated": value("chaos.duplicated"),
        "chaos.reordered": value("chaos.reordered"),
        "dispatches": value("kernel.dispatches"),
        "computed": value("kernel.computed"),
        "repeats": value("kernel.repeats"),
        "noops": value("kernel.noop_forwards"),
        "p4.dispatches": value("kernel.dispatches", p4_regs),
        "accepted": value("reliability.accepted"),
        "dup_drops": value("reliability.dup_drops"),
        "stale_drops": value("reliability.stale_drops"),
        "corrupt_drops": value("reliability.corrupt_drops"),
        "acks_sent": value("reliability.acks_sent"),
        "ch_retransmits": total("reliability.ch.retransmits."),
        "rpc_retries": total("rpc.client.retries."),
        "failovers": value("reliability.failover.count"),
        "ops_replayed": value("reliability.failover.ops_replayed")
        + value("service.ops_replayed"),
        "host_tx": total("node.tx_packets.h"),
        "host_rx": total("node.rx_packets.h"),
        "service.submissions": value("service.submissions"),
        "service.migrations": value("service.migrations"),
        "service.admission_rejects": value("service.admission_rejects"),
        "service.worst_p99_us": worst_p99,
    }


def message_costs(sample, calls: int = 10_000) -> tuple[float, float]:
    """µs per ``pack`` / ``unpack`` on the workload's own KernelSpec."""
    if sample is None:
        return 0.0, 0.0
    from repro.runtime import Message
    from repro.runtime.message import pack, unpack

    spec, values = sample
    msg = Message(src=1, dst=1, comp=spec.computation, to=1)
    t0 = time.perf_counter()
    for _ in range(calls):
        raw = pack(msg, spec, values)
    t1 = time.perf_counter()
    for _ in range(calls):
        unpack(raw, spec)
    t2 = time.perf_counter()
    return (t1 - t0) / calls * 1e6, (t2 - t1) / calls * 1e6


# ---------------------------------------------------------------------------
# per-layer metrics of one traced rep
# ---------------------------------------------------------------------------

def check_integrity(spans, counts: dict, compile_calls: int, setup_compiles: int) -> list[str]:
    """Span counts must equal the program's own counters: a wrapper lost
    to ``reset_state()`` or to an import-time binding fails here."""
    n = span_counts(spans)
    run_start = next(start for name, start, _, parent in spans if name == "run" and parent < 0)
    in_setup = sum(1 for name, start, *_ in spans if name == "compile" and start < run_start)
    checks = (
        ("ir.interp", n.get("ir.interp", 0), counts["computed"] + counts["repeats"]),
        ("runtime.device", n.get("runtime.device", 0), counts["dispatches"]),
        ("p4", n.get("p4", 0), counts["p4.dispatches"]),
        ("compile", n.get("compile", 0), compile_calls),
        ("compile in set-up", in_setup, setup_compiles),
    )
    return [
        f"{what}: {got} spans, the program counted {want}"
        for what, got, want in checks
        if got != want
    ]


def rep_metrics(spans, counts: dict, compile: CompileStats, facts: dict) -> dict[str, float]:
    """Every per-layer metric of one traced rep, by name."""
    roots = self_times(spans)
    run = roots.get("run", {})
    setup = roots.get("setup", {})
    n = span_counts(spans)
    run_ns = sum(run.values())

    def self_s(*names: str) -> float:
        return sum(run.get(name, 0) for name in names) / 1e9

    def per_call_us(seconds: float, calls: float) -> float:
        return seconds / calls * 1e6 if calls else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    host_calls = n.get("host_app", 0) + n.get("host_app.issue", 0)
    arrivals = sum(
        counts[k] for k in ("accepted", "dup_drops", "stale_drops", "corrupt_drops")
    )
    m = {
        "netsim.self_s": self_s("netsim"),
        "netsim.events": counts["events"],
        "netsim.ns_per_event": share(run.get("netsim", 0), counts["events"]),
        "netsim.link_tx_packets": counts["link_tx_packets"],
        "netsim.route_rebuilds": counts["route_rebuilds"],
        "netsim.dropped": counts["dropped"],
        "netsim.multicast_hops_saved": counts["hops_saved"],
        "chaos.self_s": self_s("chaos"),
        "chaos.lost": counts["chaos.lost"],
        "chaos.duplicated": counts["chaos.duplicated"],
        "chaos.reordered": counts["chaos.reordered"],
        "runtime.device.calls": n.get("runtime.device", 0),
        "runtime.device.self_s": self_s("runtime.device"),
        "runtime.device.us_per_call": per_call_us(
            self_s("runtime.device"), n.get("runtime.device", 0)
        ),
        "runtime.device.noop_share": share(counts["noops"], counts["dispatches"]),
        "ir.interp.calls": n.get("ir.interp", 0),
        "ir.interp.self_s": self_s("ir.interp"),
        "ir.interp.us_per_call": per_call_us(self_s("ir.interp"), n.get("ir.interp", 0)),
        "ir.interp.share": share(run.get("ir.interp", 0), run_ns),
        "p4.calls": n.get("p4", 0),
        "p4.self_s": self_s("p4"),
        "p4.us_per_call": per_call_us(self_s("p4"), n.get("p4", 0)),
        "p4.parse_s": (setup.get("p4.parse", 0) + run.get("p4.parse", 0)) / 1e9,
        "reliability.device.calls": n.get("reliability.device", 0),
        "reliability.device.self_s": self_s("reliability.device"),
        "reliability.channel.self_s": self_s("reliability.channel"),
        "reliability.failover.self_s": self_s("reliability.failover"),
        "reliability.retransmits": counts["ch_retransmits"]
        + counts["rpc_retries"]
        + facts.get("slot_retransmits", 0),
        "reliability.dup_drops": counts["dup_drops"],
        "reliability.acks_sent": counts["acks_sent"],
        "reliability.failovers": counts["failovers"],
        "reliability.ops_replayed": counts["ops_replayed"],
        "reliability.useful_share": share(counts["accepted"], arrivals),
        "runtime.message.packs": counts["host_tx"],
        "runtime.message.unpacks": counts["host_rx"],
        "host_app.calls": host_calls,
        "host_app.self_s": self_s("host_app", "host_app.issue"),
        "host_app.us_per_call": per_call_us(
            self_s("host_app", "host_app.issue"), host_calls
        ),
        "host_app.issue_s": self_s("host_app.issue"),
        "service.submits": counts["service.submissions"],
        "service.submit_s": self_s("service.submit"),
        "service.evict_s": self_s("service.evict"),
        "service.migrate_s": self_s("service.migrate"),
        "service.migrations": counts["service.migrations"],
        "service.admission_rejects": counts["service.admission_rejects"],
        "service.placement_s": self_s("service.placement"),
        "service.tenant_device.self_s": self_s("service.tenant_device"),
        "service.worst_tenant_p99_us": counts["service.worst_p99_us"],
        "compile.self_s": self_s("compile"),
        "compile.calls": compile.calls,
        "compile.total_s": sum(compile.phase_s.values()),
        "compile.frontend_s": compile.phase_s["frontend"],
        "compile.passes_s": compile.phase_s["passes"],
        "compile.codegen_s": compile.phase_s["codegen"],
        "compile.fitter_s": compile.phase_s["fitter"],
        "compile.ir_instrs_out": compile.ir_instrs_out,
    }
    for metric, passes in PASS_METRICS.items():
        m[f"compile.pass.{metric}_s"] = sum(compile.pass_s[p] for p in passes)
    m["trace.unattributed_share"] = share(run.get("run", 0), run_ns)
    return m


def median_metrics(reps: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in reps) for k in reps[0]}
