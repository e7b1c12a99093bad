"""``repro.telemetry`` — end-to-end observability.

Three pillars, mirroring how real INC deployments are observed:

* :mod:`repro.telemetry.metrics` — counters, gauges, ns-resolution
  histograms in a :class:`MetricRegistry`; no-ops when disabled.  The
  simulator's per-link and per-node counters and its drops by cause live
  here; a run is bit-identical per seed, so a run is explained by
  re-running it, not by per-packet hop records.
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
    "render_profile_text",
    "profile_to_json",
    "write_profile_json",
]
