#!/usr/bin/env python3
"""The operator's side of NetCL: deploying an application onto a fabric.

The programmer wrote kernels against an *abstract* topology (Fig. 3/§IV);
the network operator owns a real fabric with partially-occupied switches.
`repro.deploy` maps one onto the other: it finds switches with enough
resource headroom for each compiled program, places devices near the
hosts that talk to them, and brings up the live network — unused switches
forward NetCL traffic as no-ops.

Run:  python examples/operator_deployment.py
"""

from repro.core import compile_netcl
from repro.deploy import AbstractTopology, DeploymentPlanner, PhysicalFabric
from repro.netsim import DEVICE, HOST
from repro.runtime import KernelSpec, Message
from repro.runtime.message import unpack_packet

COUNTER_SERVICE = r"""
// a tiny in-network counter service: each request gets a unique ticket
_net_ unsigned next_ticket;

_kernel(1) void take_ticket(unsigned &ticket) {
  ticket = ncl::atomic_inc_new(&next_ticket);
  return ncl::reflect_long();
}
"""


def main() -> None:
    # -- the programmer's artifact: one compiled program, one device -------
    compiled = compile_netcl(COUNTER_SERVICE, device_id=1, program_name="tickets")
    print(
        f"program needs {compiled.report.stages_used} stages, "
        f"{compiled.report.sram_pct:.2f}% SRAM"
    )

    # -- the operator's fabric: a 5-switch ring, two busy switches ---------
    fabric = PhysicalFabric()
    for sid in range(1, 6):
        # switches 1 and 2 already run a large tenant program
        fabric.add_switch(sid, free_stages=2 if sid <= 2 else 10)
    for a, b in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]:
        fabric.link(DEVICE(a), DEVICE(b))
    for host_id, switch in ((1, 1), (2, 4)):
        fabric.add_host(host_id)
        fabric.link(HOST(host_id), DEVICE(switch))

    # -- deployment ---------------------------------------------------------
    topology = AbstractTopology()
    topology.add_device(1, compiled)
    topology.attach_host(2, 1)  # host 2 is the service's main client
    plan = DeploymentPlanner(fabric).deploy(topology)
    print(f"abstract device 1 -> physical switch {plan.physical_for(1)} "
          f"(switches 1-2 were too full)")

    # -- the service works from both hosts ----------------------------------
    net = plan.network
    spec = KernelSpec.from_kernel(compiled.kernels()[0])
    tickets = []
    for host_id in (2, 1, 2, 1):
        host = net.hosts[host_id]
        host.on_receive = lambda p, t: tickets.append(unpack_packet(p, spec)[0])
        host.send_message(Message(src=host_id, dst=host_id, comp=1, to=1), spec, [None])
        net.sim.run()
    print("tickets issued in order:", tickets)
    assert tickets == [1, 2, 3, 4]


if __name__ == "__main__":
    main()
