"""The per-packet work budget of the device step, on a real collective run.

A computed packet costs exactly one data-section decode, at most one pack
of the results, at most one packet copy and no interpreted kernel run.
Each outermost device ``process`` call is measured on its own, so host
encoding and the network's multicast copies are not counted.
"""

from __future__ import annotations

import random

from repro.collective import build_collective_cluster
from repro.reliability import ReliableNetCLDevice
from repro.runtime import NetCLDevice
from repro.runtime.message import CodecPlan, NetCLPacket


def test_a_computed_packet_stays_inside_its_budget(monkeypatch):
    calls = {"decode": 0, "encode": 0, "copy": 0}
    depth = [0]
    per_call: list[tuple[int, dict]] = []
    devices: set = set()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if depth[0]:
                calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(CodecPlan, "decode", counted("decode", CodecPlan.decode))
    monkeypatch.setattr(CodecPlan, "pack", counted("encode", CodecPlan.pack))
    monkeypatch.setattr(CodecPlan, "encode", counted("encode", CodecPlan.encode))
    monkeypatch.setattr(NetCLPacket, "copy", counted("copy", NetCLPacket.copy))

    def measured(process):
        def wrapper(self, packet):
            if depth[0]:  # a subclass's process calling the base one
                return process(self, packet)
            devices.add(self)
            calls.update(decode=0, encode=0, copy=0)
            before = self.packets_computed
            depth[0] += 1
            try:
                return process(self, packet)
            finally:
                depth[0] -= 1
                per_call.append((self.packets_computed - before, dict(calls)))

        return wrapper

    for cls in (NetCLDevice, ReliableNetCLDevice):
        monkeypatch.setattr(cls, "process", measured(vars(cls)["process"]))

    cluster = build_collective_cluster(
        4, 2, window=8, exp_group=4, standby=True, reliable=True, seed=7
    )
    rng = random.Random("budget")
    tensors = [[rng.uniform(-50.0, 50.0) for _ in range(64)] for _ in range(cluster.num_workers)]
    cluster.submit("allreduce", tensors)
    cluster.run(until_ms=1000.0)
    assert all(w.done for w in cluster.workers)

    computed = [c for n, c in per_call if n == 1]
    assert len(computed) >= 50 and all(n in (0, 1) for n, _ in per_call)
    for c in computed:
        assert c["decode"] == 1 and c["encode"] <= 1 and c["copy"] <= 1, c
    for n, c in per_call:
        if n == 0:
            assert c["decode"] == 0 and c["encode"] == 0, c
    assert devices and all(d.interp.interpreted == 0 for d in devices)
