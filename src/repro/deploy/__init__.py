"""Application deployment — Fig. 3 step 3, the paper's future work (§VIII).

The NetCL workflow ends with "the assumed (abstract) topology gets mapped
to the real network, via a deployment system managed by the network
operator".  The paper implements steps 1-2 (compiler, runtimes) and
leaves deployment open; this package is that step, and the one place a
fabric is described, built and placed:

* :class:`AbstractTopology` — what the *programmer* assumed, stated
  once per application by a shape function (``collective_topology``,
  ``rpc_topology``, ``agg_topology``, ...): device ids, programs and
  roles, device-device edges, which hosts talk through which device,
  multicast groups, standby spares and the host model (§IV: "the
  abstract topology captures the INC traffic patterns of an application
  and can later be used to drive deployment");
* :meth:`AbstractTopology.realise` — the one realiser; every live
  :class:`~repro.netsim.Network` is a realisation of a description.
  **Identity**: the topology's own graph — a standalone cluster, or a
  host baseline when the devices carry no program.  **Planned**
  (:meth:`DeploymentPlanner.deploy`): the operator's fabric under a
  planned assignment, unused switches forwarding as transit devices.
  **Service** (:meth:`repro.service.INCService.submit`): a tenant's
  slices join a running network that was realised with nothing placed.
  What comes back — a :class:`DeploymentPlan` or a service ``Tenant`` —
  offers ``network``, ``address(dev)``, ``control(dev)`` and
  ``register_channel(dev, ch)``: all an application's wiring needs to
  know about where it runs;
* :class:`PhysicalFabric` — what the *operator* has: switches with
  per-switch resource headroom, hosts, links;
* :class:`DeploymentPlanner` — the one placement search, so that every
  program fits its switch's remaining resources (§VIII: "switches with
  enough available resources in the base program to fit the NetCL code")
  and hosts sit close to their devices.  :meth:`DeploymentPlanner.plan`
  runs it over the pristine fabric with demands from the fit reports,
  the service's ``plan_incremental`` over the residual other tenants
  left, with ``exclude`` and ``pinned``.

The search replaced a greedy planner with the same metric, no
backtracking and ties to the first switch; the surviving tie-break is
the service's ``(distance, -free stages, switch id)``.  On 400 seeded
random fabrics (<= 6 switches), with every switch's headroom untouched
— every ``plan()`` caller in ``tests/`` and ``examples/`` — the two
return the same assignment whenever the greedy places at all (371 of
371; the search also places 3 the greedy dead-ends on); with mixed
headroom they differ on 23 of 168, and the greedy never places a
topology the search cannot.
"""

from repro.deploy.planner import (
    AbstractTopology,
    DeploymentError,
    DeploymentPlan,
    DeploymentPlanner,
    PhysicalFabric,
    PhysicalSwitch,
    PlacementBreakdown,
    SwitchResidual,
)

__all__ = [
    "AbstractTopology",
    "DeploymentError",
    "DeploymentPlan",
    "DeploymentPlanner",
    "PhysicalFabric",
    "PhysicalSwitch",
    "PlacementBreakdown",
    "SwitchResidual",
]
