"""The six benchmark workloads.

Every workload has the same three steps, driven by :mod:`bench.harness`:

* ``build(seed, scale)`` — set-up, timed as ``setup_s``: generate every
  input (tensors, call sequences, fault plan, tenant plan) from the seed,
  compile the switch programs and wire the fabric.  The program receives
  only the generated inputs.
* ``run(state)`` — the timed section (``wall_s``).
* ``check(state)`` — untimed: compare every output with a reference
  computed on the host, and collect the facts that must repeat exactly
  for one seed (simulated time, bytes on links, generated P4 size).

``scale`` multiplies the workload's *count* only (elements, calls,
packets, waves, rounds); the fabric and the per-op shape stay fixed.
The ``why`` of each workload is in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import statistics
from dataclasses import dataclass, field
from types import SimpleNamespace

#: every repro module a workload enters through; importing them is the
#: one-off part of ``setup_s``.
PROGRAM_MODULES = (
    "repro.core",
    "repro.apps.agg",
    "repro.p4",
    "repro.collective",
    "repro.rpc",
    "repro.rpc.scenarios",
    "repro.chaos.inject",
    "repro.reliability",
    "repro.service.workload",
    "repro.ir.verifier",
)

#: simulated-time cap for the closed-loop RPC run; a call still open
#: then is reported as failed.
RPC_SIM_CAP_NS = 60_000_000_000


def load_program() -> None:
    """Import the program under test (timed once per process)."""
    for name in PROGRAM_MODULES:
        importlib.import_module(name)


def digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def scaled(count: int, scale: float, *, floor: int = 1) -> int:
    return max(floor, round(count * scale))


@dataclass
class Outcome:
    """What one rep produced, judged against the host reference."""

    attempted: int
    failed: int
    #: evidence: one line per failed op or broken workload invariant
    errors: list[str] = field(default_factory=list)
    #: values that must be identical on every rep of one seed
    facts: dict[str, int] = field(default_factory=dict)
    #: sha256 over the outputs themselves
    digest: str = ""


def _link_bytes(net) -> int:
    return int(net.metrics.total("link.tx_bytes."))


# ---------------------------------------------------------------------------
# allreduce_clean
# ---------------------------------------------------------------------------

class AllreduceClean:
    """Closed loop: 8 ranks x window 8 slots, a slot advances when its
    result returns."""

    name = "allreduce_clean"
    #: compile_netcl calls build() makes (a guard for the traced run)
    setup_compiles = 9
    elements = 4096

    def build(self, seed: int, scale: float):
        from repro.collective import build_collective_cluster

        n = scaled(self.elements, scale, floor=64)
        rng = random.Random(f"{seed}:allreduce")
        cluster = build_collective_cluster(
            4, 2, window=8, exp_group=4, standby=True, reliable=True, seed=seed
        )
        tensors = [
            [rng.uniform(-50.0, 50.0) for _ in range(n)]
            for _ in range(cluster.num_workers)
        ]
        return SimpleNamespace(cluster=cluster, tensors=tensors, job=None)

    def run(self, state) -> None:
        state.job = state.cluster.submit("allreduce", state.tensors)
        state.cluster.run(until_ms=1000.0)

    def check(self, state) -> Outcome:
        cluster, job, tensors = state.cluster, state.job, state.tensors
        errors = [f"stalled {line}" for line in cluster.stall_report()]
        exact = [sum(col) for col in zip(*tensors)]
        slot = cluster.workers[0].slot_size
        failed = 0
        for w in cluster.workers:
            if not w.done:
                failed += 1
                continue
            got = job.results[w.rank]
            bad = next(
                (
                    i
                    for i, (a, e) in enumerate(zip(got, exact))
                    if abs(a - e) > job.error_bound(i // slot)
                ),
                None,
            )
            if bad is not None or len(got) != len(exact):
                failed += 1
                errors.append(
                    f"rank {w.rank}: element {bad} is {got[bad] if bad is not None else '?'}, "
                    f"exact sum {exact[bad] if bad is not None else '?'} "
                    f"({len(got)}/{len(exact)} elements)"
                )
        done = [w.finished_at_ns for w in cluster.workers if w.done]
        return Outcome(
            attempted=cluster.num_workers,
            failed=failed,
            errors=errors,
            facts={
                "sim_done_ns": max(done, default=0),
                "sim_link_bytes": cluster.link_bytes(),
                "slot_retransmits": sum(w.retransmissions for w in cluster.workers),
            },
            digest=digest(
                {
                    "results": {
                        str(r): [x.hex() for x in v]
                        for r, v in sorted(job.results.items())
                    },
                    "exponents": job.exponents,
                }
            ),
        )

    def message_sample(self, state):
        w = state.cluster.workers[0]
        return state.cluster.spec_reduce, [0, 1, 1, 1, 7, 130, list(range(w.slot_size))]


# ---------------------------------------------------------------------------
# rpc_chaos
# ---------------------------------------------------------------------------

HOT_KEYS = 64
COLD_KEYS = 2048
RPC_DEPTH = 4


def rpc_ops(seed: int, client: int, count: int) -> list[tuple]:
    """One client's call sequence: exactly 60% get (of which 70% from the
    hot keys, 30% from the cold), 10% bump, 30% gather rotating
    sum/min/max, in a seeded order.  The mix is exact, not drawn per call:
    a gather costs 16 replicas' kernel runs, so a binomial count of them
    would make the work, not just the faults, depend on the seed."""
    rng = random.Random(f"{seed}:rpc:{client}")
    gets = round(count * 0.60)
    bumps = round(count * 0.10)
    hot = round(gets * 0.70)
    ops: list[tuple] = [("get", 1 + rng.randrange(HOT_KEYS)) for _ in range(hot)]
    ops += [("get", 1000 + rng.randrange(COLD_KEYS)) for _ in range(gets - hot)]
    ops += [("bump", client * 1_000_000 + i + 1) for i in range(bumps)]
    ops += [
        ("gather", ("msum", "mmin", "mmax")[i % 3], rng.randrange(1 << 20))
        for i in range(count - gets - bumps)
    ]
    rng.shuffle(ops)
    return ops


class _ClosedLoop:
    """One client's closed loop: ``RPC_DEPTH`` calls outstanding; the next
    call is issued from the completion callback of an earlier one."""

    def __init__(self, client, ops: list[tuple]) -> None:
        self.client = client
        self.ops = ops
        self.calls: list = []
        self.resolved = 0

    def start(self) -> None:
        for _ in range(RPC_DEPTH):
            self._issue()

    def _issue(self) -> None:
        from repro.rpc.scenarios import BumpReq, GetReq, QueryReq

        if len(self.calls) >= len(self.ops):
            return
        op = self.ops[len(self.calls)]
        if op[0] == "gather":
            call = self.client.gather(op[1], QueryReq(q=op[2]), on_reply=self._done)
        elif op[0] == "get":
            call = self.client.call(
                "get", GetReq(key=op[1]), on_reply=self._done, on_fail=self._done
            )
        else:
            call = self.client.call(
                "bump", BumpReq(token=op[1]), on_reply=self._done, on_fail=self._done
            )
        self.calls.append(call)

    def _done(self, _call) -> None:
        self.resolved += 1
        self._issue()

    @property
    def finished(self) -> bool:
        return self.resolved == len(self.ops)


class RpcChaos:
    """Closed loop: 2 clients x 4 calls outstanding."""

    name = "rpc_chaos"
    setup_compiles = 6
    calls_per_client = 200

    def build(self, seed: int, scale: float):
        from repro.chaos.inject import ChaosController
        from repro.reliability import FailoverManager
        from repro.rpc import build_rpc_cluster, standby_device, tor_device
        from repro.rpc.scenarios import (
            default_rpc_plan,
            scenario_handlers,
            scenario_schema,
        )

        count = scaled(self.calls_per_client, scale, floor=12)
        ops = [rpc_ops(seed, c, count) for c in range(2)]
        bump_counts: dict[int, int] = {}
        cluster = build_rpc_cluster(
            scenario_schema(),
            scenario_handlers(bump_counts),
            num_racks=2,
            servers_per_rack=8,
            num_clients=2,
            gather_rounds=max(
                1, max(sum(op[0] == "gather" for op in seq) for seq in ops)
            ),
            seed=seed,
            standby=True,
        )
        net = cluster.network
        managers = []
        for rack in range(cluster.num_racks):
            methods = [m for m, r in cluster.method_rack.items() if r == rack]

            def promote(mgr, methods=methods) -> None:
                for mid in methods:
                    cluster.reroute_method(mid, mgr.standby_id)

            managers.append(
                FailoverManager(
                    net,
                    tor_device(rack),
                    standby_device(rack),
                    replicated=cluster.memo[rack].conn,
                    on_failover=promote,
                ).start()
            )
        ChaosController(net, default_rpc_plan(seed)).arm()
        loops = [_ClosedLoop(c, seq) for c, seq in zip(cluster.clients, ops)]
        return SimpleNamespace(
            cluster=cluster, loops=loops, managers=managers, bump_counts=bump_counts
        )

    def run(self, state) -> None:
        for loop in state.loops:
            loop.start()
        sim = state.cluster.network.sim
        while not all(l.finished for l in state.loops) and sim.now_ns < RPC_SIM_CAP_NS:
            state.cluster.run(until_ms=0.5)

    def check(self, state) -> Outcome:
        from repro.rpc import merge_words
        from repro.rpc.scenarios import get_value, query_partial

        cluster = state.cluster
        errors: list[str] = []
        failed = 0
        latencies: list[int] = []
        outputs: list = []
        bumps_sent = 0
        for loop in state.loops:
            tag = f"h{loop.client.host_id}"
            if not loop.finished:
                errors.append(
                    f"{tag}: {len(loop.ops) - loop.resolved} calls never issued or "
                    f"resolved ({loop.client.stall_report()})"
                )
                failed += len(loop.ops) - len(loop.calls)
            for op, call in zip(loop.ops, loop.calls):
                why = None
                if op[0] == "gather":
                    want = merge_words(
                        call.method.policy,
                        [query_partial(op[2], r) for r in range(cluster.fanout)],
                    )
                    if not call.done:
                        why = "unresolved"
                    elif call.merged != want:
                        why = "merged reply differs from merge_words twin"
                    outputs.append(call.merged)
                else:
                    bumps_sent += op[0] == "bump"
                    if call.failed:
                        why = f"failed after {call.attempts} attempts"
                    elif not call.done:
                        why = "unresolved"
                    elif op[0] == "get" and list(call.response.v) != get_value(op[1]):
                        why = f"wrong value {list(call.response.v)}"
                    elif op[0] == "bump" and (
                        call.response.applied != 1
                        or state.bump_counts.get(op[1]) != 1
                    ):
                        why = f"token applied {state.bump_counts.get(op[1])} times"
                    outputs.append(
                        [int(w) for w in getattr(call.response, "v", None) or []]
                    )
                if why is not None:
                    failed += 1
                    errors.append(f"{tag} {op}: {why}")
                elif call.finished_ns is not None:
                    latencies.append(call.finished_ns - call.sent_ns)
        over = {t: n for t, n in state.bump_counts.items() if n != 1}
        if over or len(state.bump_counts) > bumps_sent:
            errors.append(f"bump tokens applied other than once: {over}")
        m = cluster.network.metrics
        if not m.total("rpc.client.memo_hits."):
            errors.append("no get was answered by the ToR memo")
        if not state.managers[0].failed_over:
            errors.append("the ToR crash never triggered a failover")
        latencies.sort()
        done = [
            c.finished_ns
            for loop in state.loops
            for c in loop.calls
            if c.finished_ns is not None
        ]
        return Outcome(
            attempted=sum(len(l.ops) for l in state.loops),
            failed=failed,
            errors=errors,
            facts={
                "sim_done_ns": max(done, default=0),
                "sim_link_bytes": cluster.link_bytes(),
                "slot_retransmits": sum(
                    c.gather_stream.stats.retransmissions for c in cluster.clients
                ),
                "sim_op_p50_ns": int(statistics.median(latencies)) if latencies else 0,
                "sim_op_p99_ns": (
                    latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
                    if latencies
                    else 0
                ),
            },
            digest=digest(outputs),
        )

    def message_sample(self, state):
        return state.cluster.spec_unary, [1, 0, 7, 12345, 0, 0, [1, 2, 3, 4, 0, 0, 0, 0]]


# ---------------------------------------------------------------------------
# forward_storm
# ---------------------------------------------------------------------------

#: a kernel the storm never addresses: every packet is a no-op forward.
STORM_KERNEL = "_kernel(1) void idle(uint32_t x) { }"
STORM_BATCH = 10_000
STORM_GAP_NS = 100
#: (source host, sink host): every flow crosses ToR -> spine -> ToR.
STORM_FLOWS = ((1, 3), (2, 4), (3, 1), (4, 2))


class ForwardStorm:
    """Open loop: one packet per 100 ns of simulated time, 4 flows
    round-robin."""

    name = "forward_storm"
    setup_compiles = 3
    packets = 30_000

    def build(self, seed: int, scale: float):
        from repro.core import compile_netcl
        from repro.netsim import DEVICE, HOST, Link, Network
        from repro.runtime import NetCLDevice

        rng = random.Random(f"{seed}:storm")
        payloads = [rng.randbytes(64) for _ in STORM_FLOWS]
        net = Network(seed=seed)
        for dev in (1, 2, 3):  # ToR, ToR, spine
            cp = compile_netcl(STORM_KERNEL, dev, program_name="idle")
            net.add_switch(
                NetCLDevice(dev, cp.module, cp.kernels(), metrics=net.metrics),
                processing_ns=int(cp.report.latency.total_ns),
            )
        net.link(DEVICE(1), DEVICE(3), Link())
        net.link(DEVICE(2), DEVICE(3), Link())
        for host, tor in ((1, 1), (2, 1), (3, 2), (4, 2)):
            net.add_host(host)
            net.link(HOST(host), DEVICE(tor), Link())
        return SimpleNamespace(
            network=net,
            payloads=payloads,
            count=scaled(self.packets, scale, floor=len(STORM_FLOWS)),
        )

    def run(self, state) -> None:
        from repro.runtime.message import NO_DEVICE, NetCLPacket

        net = state.network
        hosts = net.hosts
        sent = 0
        while sent < state.count:
            batch = min(STORM_BATCH, state.count - sent)
            for i in range(sent, sent + batch):
                flow = i % len(STORM_FLOWS)
                src, dst = STORM_FLOWS[flow]
                hosts[src].send_packet(
                    NetCLPacket(
                        src, dst, NO_DEVICE, NO_DEVICE, 0, 0, state.payloads[flow]
                    ),
                    delay_ns=(i - sent) * STORM_GAP_NS,
                )
            sent += batch
            net.sim.run()

    def check(self, state) -> Outcome:
        net = state.network
        delivered = 0
        last_ns = 0
        per_sink = []
        for flow, (src, dst) in enumerate(STORM_FLOWS):
            good = sum(
                1
                for _, p in net.hosts[dst].received
                if p.src == src and p.data == state.payloads[flow]
            )
            delivered += good
            per_sink.append(good)
            if net.hosts[dst].received:
                last_ns = max(last_ns, net.hosts[dst].received[-1][0])
        failed = state.count - delivered
        errors = []
        if failed:
            errors.append(
                f"sent {state.count}, delivered intact per sink {per_sink}, "
                f"dropped {net.packets_dropped}, lost {net.packets_lost}"
            )
        if net.metrics.total("kernel.computed"):
            errors.append("a storm packet executed a kernel")
        return Outcome(
            attempted=state.count,
            failed=failed,
            errors=errors,
            facts={"sim_done_ns": last_ns, "sim_link_bytes": _link_bytes(net)},
            digest=digest(per_sink),
        )

    def message_sample(self, state):
        return None


# ---------------------------------------------------------------------------
# service_churn
# ---------------------------------------------------------------------------

WAVE_US = 3000


def service_plan(seed: int, waves: int):
    """``waves`` rounds of submit / serve / evict on the default ring."""
    from repro.service.workload import ServicePlan, default_service_plan

    events: list[dict] = []
    for w in range(waves):
        t0 = w * WAVE_US
        events += [
            {
                "at_us": t0 + 10, "kind": "submit", "tenant": f"agg{w}", "app": "agg",
                "hosts": [1, 2], "tensor_elements": 2048, "window": 8,
                "qos": {"priority": 2, "ordered": True},
            },
            {
                "at_us": t0 + 20, "kind": "submit", "tenant": f"cache{w}",
                "app": "cache", "hosts": [3, 4],
                "qos": {"priority": 1, "max_latency_us": 4000.0},
            },
            {
                "at_us": t0 + 30, "kind": "submit", "tenant": f"echo{w}",
                "app": "echo", "hosts": [5], "requests": 200, "spacing_us": 5,
            },
        ]
        if w % 5 == 4:
            # After agg and cache hold their stages (so the three
            # full-pipeline devices cannot fit), before echo takes host 5.
            events.append(
                {
                    "at_us": t0 + 25, "kind": "submit", "tenant": f"bulk{w}",
                    "app": "bulk", "hosts": [5], "devices": 3, "expect": "reject",
                }
            )
        if w % 3 == 1:
            events.append({"at_us": t0 + 400, "kind": "crash", "switch": 3})
            events.append({"at_us": t0 + 1500, "kind": "restart", "switch": 3})
        for i, app in enumerate(("agg", "cache", "echo")):
            events.append(
                {"at_us": t0 + WAVE_US - 30 + 10 * i, "kind": "evict", "tenant": f"{app}{w}"}
            )
    return ServicePlan(
        seed=seed,
        horizon_ms=waves * WAVE_US / 1000.0 + 1.0,
        heartbeat_us=150,
        fabric=default_service_plan(seed).fabric,
        events=events,
    )


class ServiceChurn:
    """Open loop: tenants arrive on a fixed simulated schedule; echo and
    cache requests are sent on a schedule, agg slots are a closed loop."""

    name = "service_churn"
    setup_compiles = 0
    waves = 6

    def build(self, seed: int, scale: float):
        return SimpleNamespace(
            plan=service_plan(seed, scaled(self.waves, scale, floor=2)), result=None
        )

    def run(self, state) -> None:
        from repro.service.workload import run_service_plan

        state.result = run_service_plan(state.plan)

    def check(self, state) -> Outcome:
        result = state.result
        attempted = failed = 0
        errors: list[str] = []
        for tenant, out in sorted(result.tenants.items()):
            expected = max(1, int(out.get("expected", 0)))
            attempted += expected
            if not out["ok"] or out.get("queued"):
                failed += max(1, expected - int(out.get("completed", 0)))
                errors.append(f"{tenant}: {out.get('errors') or 'never admitted'}")
        facts = {
            "sim_done_ns": result.sim_ns,
            "sim_link_bytes": int(
                sum(
                    v
                    for k, v in result.metrics.items()
                    if k.startswith("link.tx_bytes.")
                )
            ),
            "slot_retransmits": sum(
                int(out.get("retransmissions", 0)) for out in result.tenants.values()
            ),
        }
        return Outcome(attempted, failed, errors, facts, digest=result.digest)

    def message_sample(self, state):
        return None


# ---------------------------------------------------------------------------
# agg_p4
# ---------------------------------------------------------------------------

class AggP4:
    """Closed loop: 4 workers x window 32 slots."""

    name = "agg_p4"
    setup_compiles = 1
    elements = 12_288

    def build(self, seed: int, scale: float):
        from repro.apps.agg import build_agg_cluster

        return SimpleNamespace(
            cluster=build_agg_cluster(
                num_workers=4,
                tensor_elements=scaled(self.elements, scale, floor=64),
                backend="p4",
                window=32,
                seed=seed,
            )
        )

    def run(self, state) -> None:
        state.cluster.run(until_ms=1000.0)

    def check(self, state) -> Outcome:
        from repro.apps.agg import expected_sum

        cluster = state.cluster
        want = expected_sum(cluster)
        errors = [f"stalled {line}" for line in cluster.stall_report()]
        failed = 0
        for w in cluster.workers:
            if not w.done or w.result != want:
                failed += 1
                if w.done:
                    bad = next(i for i, (a, e) in enumerate(zip(w.result, want)) if a != e)
                    errors.append(
                        f"worker {w.worker_index}: element {bad} is {w.result[bad]}, "
                        f"want {want[bad]}"
                    )
        done = [w.stats.finished_at_ns for w in cluster.workers if w.done]
        return Outcome(
            attempted=len(cluster.workers),
            failed=failed,
            errors=errors,
            facts={
                "sim_done_ns": max(done, default=0),
                "sim_link_bytes": _link_bytes(cluster.network),
                "slot_retransmits": sum(
                    w.stats.retransmissions for w in cluster.workers
                ),
            },
            digest=digest([w.result for w in cluster.workers]),
        )

    def message_sample(self, state):
        return state.cluster.workers[0].spec, [0, 1, 1, 1, 16, list(range(32))]


# ---------------------------------------------------------------------------
# compile_all
# ---------------------------------------------------------------------------

def compile_units() -> list[tuple]:
    """(label, app, device, target, defines) for the 17 units of one round:
    Table IV's six programs on both targets, then the collective and RPC
    switch roles as their cluster builders define them."""
    from repro.collective import COLL_MCAST_GROUP, ROOT_DEVICE, leaf_device
    from repro.rpc import (
        EDGE_DEVICE,
        NUM_METHODS,
        SG_DEVICE,
        SG_MCAST_GROUP,
        tor_device,
    )

    units = []
    for target in ("tna", "v1model"):
        for app, dev in (
            ("agg", 1), ("cache", 1), ("paxos", 2), ("paxos", 5), ("paxos", 1), ("calc", 1),
        ):
            units.append((f"{app}@{dev}/{target}", app, dev, target, None))
    coll = {
        "LOCAL_WORKERS": 2, "NUM_RACKS": 4,
        "ROOT_DEV": ROOT_DEVICE, "COLL_MCAST_GROUP": COLL_MCAST_GROUP,
    }
    leaf = leaf_device(0)
    units.append(("collective-root/tna", "collective", ROOT_DEVICE, "tna", coll))
    units.append(
        (
            "collective-leaf/tna", "collective", leaf, "tna",
            {**coll, "LEAVES": str(leaf), "RACK_MASK": 1},
        )
    )
    rpc = {
        "NUM_METHODS": NUM_METHODS, "FANOUT": 16, "EDGE_DEV": EDGE_DEVICE,
        "SG_DEV": SG_DEVICE, "SG_MCAST": SG_MCAST_GROUP,
    }
    units.append(("rpc-edge/tna", "rpc", EDGE_DEVICE, "tna", rpc))
    units.append(("rpc-sg/tna", "rpc", SG_DEVICE, "tna", rpc))
    tor = tor_device(0)
    units.append(("rpc-tor/tna", "rpc", tor, "tna", {**rpc, "TOR_DEVS": str(tor)}))
    return units


class CompileAll:
    """Batch: no simulator, units compile one after another."""

    name = "compile_all"
    setup_compiles = 0
    rounds = 2

    def __init__(self) -> None:
        #: bumped per build so no source text ever repeats within a process
        self._builds = 0

    def build(self, seed: int, scale: float):
        from repro.apps import netcl_source

        self._builds += 1
        units = compile_units()
        sources = {app: netcl_source(app) for _, app, *_ in units}
        return SimpleNamespace(
            units=units,
            sources=sources,
            rounds=scaled(self.rounds, scale),
            stamp=f"{seed}.{self._builds}",
            compiled=[],
            raised=[],
        )

    def run(self, state) -> None:
        from repro.core import compile_netcl

        for r in range(state.rounds):
            for label, app, dev, target, defines in state.units:
                # A source text no earlier compile has seen: a compile
                # cache must not be able to answer from here.
                src = f"{state.sources[app]}\n// bench {state.stamp}.{r} {label}\n"
                try:
                    cp = compile_netcl(
                        src, dev, target=target, defines=defines, program_name=app
                    )
                except Exception as exc:  # reported by name in check()
                    state.raised.append(f"round {r} {label}: {type(exc).__name__}: {exc}")
                    cp = None
                state.compiled.append((r, label, target, cp))

    def check(self, state) -> Outcome:
        from repro.ir.verifier import verify_module

        errors = list(state.raised)
        failed = len(state.raised)
        first: dict[str, str] = {}
        p4_bytes = stages = 0
        for r, label, target, cp in state.compiled:
            if cp is None:
                continue
            why = None
            try:
                verify_module(cp.module)
            except Exception as exc:
                why = f"verify_module: {exc}"
            if why is None and cp.report is None:
                why = "no fit report"
            if why is None and first.setdefault(label, cp.p4_source) != cp.p4_source:
                why = "P4 text differs from round 0"
            if why is not None:
                failed += 1
                errors.append(f"round {r} {label}: {why}")
            elif r == 0:
                p4_bytes += len(cp.p4_source)
                if target == "tna":
                    stages += cp.report.stages_used
        return Outcome(
            attempted=state.rounds * len(state.units),
            failed=failed,
            errors=errors,
            facts={"p4_bytes": p4_bytes, "stages_used": stages},
            digest=digest({k: hashlib.sha256(v.encode()).hexdigest() for k, v in first.items()}),
        )

    def message_sample(self, state):
        return None


#: name -> class; the harness makes one instance per process.
WORKLOADS = {
    cls.name: cls
    for cls in (AllreduceClean, RpcChaos, ForwardStorm, ServiceChurn, AggP4, CompileAll)
}
