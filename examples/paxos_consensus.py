#!/usr/bin/env python3
"""Consensus as a network service: in-network Paxos (the paper's P4XOS).

One NetCL program, three kernels at three locations (Fig. 11): a leader
switch sequences client proposals, three acceptor switches vote (each
compiled with its own ACCEPTOR_ID), and a learner switch detects majority
and delivers to the application host.  The example drives a replicated
log and then knocks out an acceptor to show majority still carrying.

Run:  python examples/paxos_consensus.py
"""

from repro.apps.paxos import ACCEPTOR_DEVS, build_paxos_cluster
from repro.chaos import LinkFaults, apply_faults
from repro.netsim import DEVICE


def main() -> None:
    cluster = build_paxos_cluster()
    print("devices:", sorted(cluster.devices))
    for dev_id, cp in sorted(cluster.compiled.items()):
        kernels = ", ".join(k.name for k in cp.kernels())  # type: ignore[attr-defined]
        print(f"  device {dev_id}: kernel(s) [{kernels}]")

    commands = [f"SET x{i} {i * i}" for i in range(6)]
    for cmd in commands:
        words = [ord(c) for c in cmd[:8]]
        cluster.client.propose(words + [0] * (8 - len(words)))
    cluster.network.sim.run()

    print("\nreplicated log (chosen order):")
    for d in sorted(cluster.app.deliveries, key=lambda d: d.instance):
        text = "".join(chr(v) for v in d.value if 32 <= v < 127)
        print(f"  instance {d.instance}: {text!r}  (+{d.time_ns / 1000:.1f} us)")
    assert len(cluster.app.deliveries) == len(commands)

    # Fail one acceptor entirely: 2-of-3 is still a majority.
    apply_faults(
        LinkFaults(loss=1.0), cluster.network, (DEVICE(1), DEVICE(ACCEPTOR_DEVS[0]))
    )
    before = len(cluster.app.deliveries)
    cluster.client.propose([ord("!")] * 8)
    cluster.network.sim.run()
    print(
        f"\nwith acceptor {ACCEPTOR_DEVS[0]} down: "
        f"{len(cluster.app.deliveries) - before} proposal(s) still chosen "
        "(2-of-3 majority)"
    )
    assert len(cluster.app.deliveries) == before + 1


if __name__ == "__main__":
    main()
