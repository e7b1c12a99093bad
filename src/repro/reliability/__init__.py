"""``repro.reliability`` — reliable in-network message delivery.

The paper's testbed is lossless; real deployments are not.  This package
layers NetRPC-style reliability over :mod:`repro.runtime` so NetCL
applications survive loss, duplication, reordering, corruption, and
switch failure (exercise them with :mod:`repro.chaos`):

* wire: a backward-compatible sequence/CRC trailer on NetCL packets
  (:mod:`repro.runtime.message`);
* :mod:`repro.reliability.dedup` — sliding-window at-most-once state and
  reply caches;
* :mod:`repro.reliability.device` — :class:`ReliableNetCLDevice`, the
  device runtime with dedup, decision replay, integrity checks, and ACKs;
* :mod:`repro.reliability.channel` — :class:`ReliableChannel`, the
  host-side sender with ACK tracking and exponential-backoff retransmit;
* :mod:`repro.reliability.failover` — journaled control-plane
  replication and standby-switch promotion.

Everything reports through :mod:`repro.telemetry` (``reliability.*``
counters), so degradation is observable rather than silent.
"""

from repro.reliability.channel import BackoffPolicy, ReliableChannel
from repro.reliability.dedup import DedupWindow, ReplayCache
from repro.reliability.device import ReliableNetCLDevice, reliable_device
from repro.reliability.failover import FailoverManager, ReplicatedConnection

__all__ = [
    "BackoffPolicy",
    "ReliableChannel",
    "DedupWindow",
    "ReplayCache",
    "ReliableNetCLDevice",
    "FailoverManager",
    "ReplicatedConnection",
    "reliable_device",
]
