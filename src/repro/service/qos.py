"""Per-tenant quality of service: rate limits, priorities, SLO targets.

A :class:`TenantQoS` travels with every submission.  The service enforces
``max_pps`` at the tenant's ingress devices with a deterministic token
bucket (packets beyond the budget are dropped and counted under
``tenant.<id>.rate_limited``), uses ``priority`` to order admission-queue
draining and headroom-shrink victim selection, and reports the
``max_latency_us`` target against the tenant's observed p99 in the SLO
section of :meth:`repro.service.INCService.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TenantQoS:
    """What one tenant is entitled to."""

    #: higher drains from the admission queue first; lower is migrated or
    #: evicted first when headroom shrinks.
    priority: int = 0
    #: ingress rate limit in packets per simulated second (None = none).
    max_pps: Optional[float] = None
    #: SLO target: the tenant's p99 request latency in microseconds
    #: (None = no latency SLO).
    max_latency_us: Optional[float] = None
    #: burst allowance of the ingress token bucket, in packets.
    burst: int = 32
    #: queue instead of rejecting when the fabric can't fit the tenant.
    queue_on_reject: bool = False
    #: require per-sender FIFO delivery at the tenant's devices: the
    #: reliable device runtime drops out-of-order packets and lets the
    #: sender's retransmission recover them (slot-reuse protocols such as
    #: the aggregation app assume this).
    ordered: bool = False

    @classmethod
    def from_dict(cls, d: Optional[dict]) -> "TenantQoS":
        d = d or {}
        return cls(
            priority=int(d.get("priority", 0)),
            max_pps=d.get("max_pps"),
            max_latency_us=d.get("max_latency_us"),
            burst=int(d.get("burst", 32)),
            queue_on_reject=bool(d.get("queue_on_reject", False)),
            ordered=bool(d.get("ordered", False)),
        )


class TokenBucket:
    """A deterministic ns-clocked token bucket.

    Integer-free of wall time: refills are computed from simulated
    nanoseconds, so two runs with the same seed admit and drop the exact
    same packets.
    """

    def __init__(self, rate_pps: float, burst: int, now_ns: int) -> None:
        self.rate_pps = float(rate_pps)
        self.burst = max(1, int(burst))
        self.tokens = float(self.burst)
        self._last_ns = now_ns

    def admit(self, now_ns: int) -> bool:
        elapsed = now_ns - self._last_ns
        if elapsed > 0:
            self.tokens = min(
                float(self.burst), self.tokens + elapsed * self.rate_pps / 1e9
            )
            self._last_ns = now_ns
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False
