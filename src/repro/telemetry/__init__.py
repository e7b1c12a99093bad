"""``repro.telemetry`` — end-to-end observability.

Four pillars, mirroring how real INC deployments are observed:

* :mod:`repro.telemetry.metrics` — counters, gauges, ns-resolution
  histograms in a :class:`MetricRegistry`; no-ops when disabled.
* :mod:`repro.telemetry.trace` — INT-style per-packet hop tracing for
  the network simulator (opt-in).
* :mod:`repro.telemetry.profile` — wall-clock span profiling for the
  compiler (``ncc --profile``).
* :mod:`repro.telemetry.export` — text and JSON renderers for the
  compile profile.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_INSTRUMENT,
)
from repro.telemetry.profile import NULL_PROFILER, Profiler, ProfileSpan
from repro.telemetry.trace import PacketTrace, PacketTracer, TraceHop, node_name
from repro.telemetry.export import (
    profile_to_json,
    render_profile_text,
    write_profile_json,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_INSTRUMENT",
    "Profiler",
    "ProfileSpan",
    "NULL_PROFILER",
    "PacketTrace",
    "PacketTracer",
    "TraceHop",
    "node_name",
    "render_profile_text",
    "profile_to_json",
    "write_profile_json",
]
