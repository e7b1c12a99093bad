"""``repro.service`` — multi-tenant INC-as-a-Service control plane.

The NetCL paper leaves deployment to "a deployment system managed by the
network operator" (§VIII); :mod:`repro.deploy` built that system for one
program at a time.  This package makes it a *service* (the ClickINC /
NetRPC operating model): one long-lived :class:`INCService` owns a
physical fabric and its live network, and tenants submit abstract
topologies against whatever headroom earlier tenants left behind.

* :mod:`repro.service.admission` — residual-headroom bookkeeping against
  per-switch demand read from the fitter's reports;
* :mod:`repro.service.placement` — incremental backtracking placement
  into residual headroom;
* :mod:`repro.service.qos` — per-tenant priorities, ingress rate limits
  (deterministic token bucket), and latency SLO targets;
* :mod:`repro.service.orchestrator` — the tenant lifecycle: submit /
  evict / crash-driven live migration (journal replay + channel
  retargeting) / defragmentation, with per-tenant telemetry;
* :mod:`repro.service.workload` — JSON event plans replayed through the
  simulator (``python -m repro.service``).
"""

from repro.deploy.planner import DeviceDemand, demand_of
from repro.service.admission import AdmissionController, AdmissionError
from repro.service.orchestrator import (
    GROUP_BASE,
    INCService,
    TENANT_BASE,
    TENANT_BLOCK,
    TRANSIT_BASE,
    Tenant,
    TenantDevice,
    TenantState,
)
from repro.service.placement import IncrementalPlanner
from repro.service.qos import TenantQoS, TokenBucket
from repro.service.workload import (
    ServicePlan,
    ServiceRunResult,
    default_service_plan,
    run_service_plan,
)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "DeviceDemand",
    "GROUP_BASE",
    "INCService",
    "IncrementalPlanner",
    "ServicePlan",
    "ServiceRunResult",
    "TENANT_BASE",
    "TENANT_BLOCK",
    "TRANSIT_BASE",
    "Tenant",
    "TenantDevice",
    "TenantQoS",
    "TenantState",
    "TokenBucket",
    "default_service_plan",
    "demand_of",
    "run_service_plan",
]
