"""Simulator hot-path throughput (ISSUE 7 tentpole tracking).

Measures what every end-to-end number in the bench trajectory is gated
on: the pure `repro.netsim` forwarding path.  Three series land in
``BENCH_netsim.json`` (written directly, so the CI regression gate can
compare against the committed baseline within the same job):

* ``packets_per_sec`` / ``events_per_sec`` — a no-op transit storm on
  the Fig. 14 AGG topology (worker -> ToR switch -> worker) with no
  application handler on the sink: nothing but the scheduler, links, and
  the device's no-op dispatch.
  ``events_per_packet`` is the scheduler work behind one packet: inject,
  the switch hop and the host receive, one event each (3).  Fewer events
  per packet is a gain, so CI gates ``packets_per_sec``, not
  ``events_per_sec``.
* ``route_rebuilds`` under crash/restart/flap churn — each change clears
  every table, but only the sources that forward afterwards rebuild, so
  the count stays below recomputing all pairs per change.
* ``agg_e2e_wall_s`` / ``agg_e2e_events_per_sec`` — the full AGG run,
  kernel execution included, as the end-to-end series (best of three).
  ``pre_engine_agg_e2e_events_per_sec`` is the same run with devices on
  ``IRInterpreter`` (commit 1d4bc71, same host), before
  :mod:`repro.ir.compiled` — the denominator of
  ``agg_e2e_speedup_vs_interpreter``.

* ``agg_pack_us`` / ``agg_unpack_us`` — one ``pack`` / ``unpack`` of an
  AGG message (five scalars and 32 words; the spec ``bench``'s ``agg_p4``
  samples), best of three.  ``pre_plan_agg_pack_us`` /
  ``pre_plan_agg_unpack_us`` are the same calls on the per-element codec
  (commit 4c2ee2c, same host), before ``CodecPlan``.

``pre_overhaul_packets_per_sec`` is the same storm measured on the
pre-overhaul simulator (commit b881573, same host) — the denominator of
``speedup_vs_pre_overhaul``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.apps.agg import build_agg_cluster
from repro.netsim import DEVICE, HOST, Link, Network
from repro.runtime.message import NO_DEVICE, Message, NetCLPacket, pack, unpack

#: no-op storm packets/sec on the pre-overhaul simulator (see docstring).
PRE_OVERHAUL_PPS = 34_093

#: AGG end-to-end events/sec with interpreted kernels (see docstring).
PRE_ENGINE_AGG_EPS = 13_931

#: µs per AGG pack / unpack on the per-element codec (see docstring).
PRE_PLAN_AGG_PACK_US, PRE_PLAN_AGG_UNPACK_US = 10.69, 12.33

STORM_PACKETS = 20_000
CODEC_CALLS = 20_000
REPEATS = 3


def _storm_once() -> tuple[float, float, int]:
    cluster = build_agg_cluster(num_workers=2, tensor_elements=2048)
    net = cluster.network
    h1 = net.hosts[1]
    net.hosts[2].on_receive = None  # pure forwarding path, no app decode
    payload = bytes(64)
    t = 0
    for _ in range(STORM_PACKETS):
        pkt = NetCLPacket(1, 2, NO_DEVICE, NO_DEVICE, 0, 0, payload)
        h1.send_packet(pkt, delay_ns=t)
        t += 100
    t0 = time.perf_counter()
    net.sim.run()
    wall = time.perf_counter() - t0
    assert len(net.hosts[2].received) == STORM_PACKETS
    events = net.sim.events_processed
    return STORM_PACKETS / wall, events / wall, events, net.route_rebuilds


def test_noop_forwarding_storm():
    best_pps, best_eps = 0.0, 0.0
    for _ in range(REPEATS):
        pps, eps, events, rebuilds = _storm_once()
        best_pps, best_eps = max(best_pps, pps), max(best_eps, eps)
        # steady traffic on a static topology: 3 forwarding sources, each
        # computed exactly once
        assert rebuilds <= 4
    _record(
        packets_per_sec=round(best_pps),
        events_per_sec=round(best_eps),
        events_per_packet=events / STORM_PACKETS,
        pre_overhaul_packets_per_sec=PRE_OVERHAUL_PPS,
        speedup_vs_pre_overhaul=round(best_pps / PRE_OVERHAUL_PPS, 2),
    )
    print(
        f"\nno-op storm: {best_pps:,.0f} pkts/s, {best_eps:,.0f} events/s "
        f"({best_pps / PRE_OVERHAUL_PPS:.2f}x pre-overhaul)"
    )


def test_route_churn_rebuild_count():
    """Crash/restart/flap churn with live traffic: after each change only
    the sources that forward again rebuild their tables."""
    from repro.core import compile_netcl
    from repro.runtime import KernelSpec, Message, NetCLDevice

    cp = compile_netcl("_kernel(1) void k(unsigned x) { }", 1)
    cp2 = compile_netcl("_kernel(1) _at(2) void k(unsigned x) { }", 2)
    net = Network(seed=7)
    net.add_switch(NetCLDevice(1, cp.module, cp.kernels()))
    net.add_switch(NetCLDevice(2, cp2.module, cp2.kernels()))
    spec = KernelSpec.from_kernel(cp.kernels()[0])
    hosts = []
    for h in range(1, 9):
        hosts.append(net.add_host(h))
        net.link(HOST(h), DEVICE(1), Link(latency_ns=500))
        net.link(HOST(h), DEVICE(2), Link(latency_ns=500))
    net.link(DEVICE(1), DEVICE(2))

    t = 0
    for round_ in range(40):
        for i, h in enumerate(hosts):
            dst = (i + 1) % len(hosts) + 1
            h.send_message(
                Message(src=h.host_id, dst=dst, comp=1, to=1), spec, [round_],
                delay_ns=t,
            )
        t += 50_000
    # churn: flap one link, crash + restart the standby, every ~400 us
    for k in range(5):
        base = 200_000 + k * 400_000
        net.sim.at(base, net.set_link_up, HOST(1), DEVICE(2), False)
        net.sim.at(base + 100_000, net.set_link_up, HOST(1), DEVICE(2), True)
        net.sim.at(base + 200_000, net.crash_switch, 2)
        net.sim.at(base + 300_000, net.restart_switch, 2)
    net.sim.run()

    n_sources = len(net.graph)
    _record(
        churn_route_rebuilds=net.route_rebuilds,
        churn_nodes=n_sources,
    )
    # The old simulator recomputed every source on every one of the 20
    # churn events (plus the initial build): >= 21 * nodes rebuilds.
    assert net.route_rebuilds < 21 * n_sources
    print(
        f"\nchurn: {net.route_rebuilds} single-source rebuilds "
        f"(all-pairs would be {21 * n_sources}+)"
    )


def test_agg_end_to_end():
    wall, events = float("inf"), 0
    for _ in range(REPEATS):
        cluster = build_agg_cluster(num_workers=2, tensor_elements=2048, window=32)
        t0 = time.perf_counter()
        cluster.run(until_ms=2000)
        wall = min(wall, time.perf_counter() - t0)
        cluster.require_done()
        events = cluster.network.sim.events_processed
    _record(
        agg_e2e_wall_s=round(wall, 4),
        agg_e2e_events=events,
        agg_e2e_events_per_sec=round(events / wall),
        pre_engine_agg_e2e_events_per_sec=PRE_ENGINE_AGG_EPS,
        agg_e2e_speedup_vs_interpreter=round(events / wall / PRE_ENGINE_AGG_EPS, 2),
    )


def test_message_codec_cost():
    spec = build_agg_cluster(num_workers=2, tensor_elements=2048).workers[0].spec
    msg = Message(src=1, dst=1, comp=spec.computation, to=1)
    values = [0, 1, 1, 1, 16, list(range(32))]
    pack_us = unpack_us = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(CODEC_CALLS):
            raw = pack(msg, spec, values)
        t1 = time.perf_counter()
        for _ in range(CODEC_CALLS):
            decoded = unpack(raw, spec)[1]
        t2 = time.perf_counter()
        pack_us = min(pack_us, (t1 - t0) / CODEC_CALLS * 1e6)
        unpack_us = min(unpack_us, (t2 - t1) / CODEC_CALLS * 1e6)
    assert decoded == values
    _record(
        agg_pack_us=round(pack_us, 2),
        agg_unpack_us=round(unpack_us, 2),
        pre_plan_agg_pack_us=PRE_PLAN_AGG_PACK_US,
        pre_plan_agg_unpack_us=PRE_PLAN_AGG_UNPACK_US,
    )
    print(
        f"\nAGG message: pack {pack_us:.2f} us (was {PRE_PLAN_AGG_PACK_US}), "
        f"unpack {unpack_us:.2f} us (was {PRE_PLAN_AGG_UNPACK_US})"
    )


def _record(**metrics) -> None:
    """Merge metrics into BENCH_netsim.json at the repo root."""
    path = Path(__file__).resolve().parent.parent / "BENCH_netsim.json"
    data = {}
    if path.exists():
        data = json.loads(path.read_text())
    data.update(metrics)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
