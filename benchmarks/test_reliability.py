"""Reliability under loss — goodput and recovery cost vs loss rate.

The paper's testbed is lossless, so this benchmark characterizes our
reliability extension rather than a paper figure: a pipelined
request/response workload over a reliable channel, swept across link
loss rates.  Claims checked:

* every request eventually completes at every swept loss rate
  (at-most-once, ACK/retransmit recovery);
* goodput degrades as loss grows — lost packets cost backoff time —
  and the retransmission overhead grows with the loss rate;
* the lossless run retransmits (essentially) nothing.

The results are pinned in ``BENCH_paper.json``.
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.chaos import LinkFaults, apply_faults
from repro.core import compile_netcl
from repro.netsim import DEVICE, HOST, Link, Network
from repro.reliability import BackoffPolicy, ReliableChannel, ReliableNetCLDevice
from repro.runtime import KernelSpec

ECHO = "_kernel(1) void k(unsigned x, unsigned &y) { y = x + 1; return ncl::reflect(); }"

REQUESTS = 200
WINDOW = 8
LOSS_SWEEP = (0.0, 0.01, 0.05, 0.10, 0.20)


def run_one(loss: float, *, seed: int = 7) -> dict:
    """Run REQUESTS echo exchanges with WINDOW outstanding; returns stats."""
    cp = compile_netcl(ECHO, 1)
    dev = ReliableNetCLDevice(1, cp.module, cp.kernels())
    net = Network(seed=seed, metrics=dev.metrics)
    net.add_switch(dev, processing_ns=400)
    host = net.add_host(1)
    net.link(HOST(1), DEVICE(1), Link(latency_ns=1000))
    if loss > 0:
        apply_faults(LinkFaults(loss=loss), net)

    spec = KernelSpec.from_kernel(cp.kernels()[0])
    state = {"sent": 0, "done": 0, "last_done_ns": 0}

    def pump() -> None:
        while state["sent"] < REQUESTS and ch.outstanding < WINDOW:
            state["sent"] += 1
            ch.request([state["sent"], 0], dst=1)

    def on_reply(_packet, now_ns: int) -> None:
        # the channel hands each reply over once, after completing its seq
        state["done"] += 1
        state["last_done_ns"] = now_ns
        pump()

    host.on_receive = on_reply  # installed first: the channel wraps it
    ch = ReliableChannel(
        net, host, spec, target_device=1,
        policy=BackoffPolicy(base_timeout_ns=100_000, max_retries=20),
    )
    pump()
    net.sim.run(until_ns=2_000_000_000)
    m = net.metrics
    return {
        "completed": state["done"],
        "goodput_rps_per_us": state["done"] * 1000 / state["last_done_ns"],
        "retransmits": m.total("reliability.ch.retransmits.h1"),
        "dup_drops": m.total("reliability.dup_drops"),
        "elapsed_ns": state["last_done_ns"],
    }


def test_reliability_goodput_vs_loss(fact):
    sweep = {loss: run_one(loss) for loss in LOSS_SWEEP}
    for loss, r in sweep.items():
        tag = f"loss{int(loss * 100):02d}"
        fact(f"elapsed_ns_{tag}", r["elapsed_ns"])
        fact(f"retransmits_{tag}", r["retransmits"])
        fact(f"dup_drops_{tag}", r["dup_drops"])
    rows = [
        [f"{loss:.0%}", r["completed"], r["retransmits"],
         f"{r['elapsed_ns'] / 1000:.0f}", f"{r['goodput_rps_per_us']:.4f}"]
        for loss, r in sweep.items()
    ]
    print_table(
        "Reliable echo: goodput vs loss rate",
        ["loss", "completed", "retransmits", "elapsed_us", "goodput/us"],
        rows,
    )
    # every request completes at every loss rate
    for loss, r in sweep.items():
        assert r["completed"] == REQUESTS, f"incomplete at loss={loss}"
    # lossless run needs no recovery; recovery cost grows with loss
    assert sweep[0.0]["retransmits"] == 0
    assert sweep[0.20]["retransmits"] > sweep[0.01]["retransmits"]
    # loss costs goodput: lossless beats the heaviest loss clearly
    assert sweep[0.0]["goodput_rps_per_us"] > 1.5 * sweep[0.20]["goodput_rps_per_us"]
