"""Control-plane failover: standby switches and state re-installation.

Real INC deployments treat switch failure as a service-level event
(ClickINC): a spare switch takes over the computation, the control plane
re-installs the managed state the program needs, and senders are
rerouted.  Two pieces model that here:

* :class:`ReplicatedConnection` — a drop-in wrapper around
  :class:`~repro.runtime.control.DeviceConnection` that journals every
  control-plane mutation (register writes, table inserts/modifies/
  removes).  The journal is compacted by key, so replaying it onto a
  standby reproduces the *final* managed state in one pass.
* :class:`FailoverManager` — heartbeats the primary through the
  simulator; when the primary stops responding it replays the journal
  onto the standby, retargets every registered
  :class:`~repro.reliability.channel.ReliableChannel`, and invokes an
  application hook for protocol-specific resynchronization (AGG's slot
  restart).  Failovers and time-to-recover are reported through the
  network's telemetry registry.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.netsim.net import DEVICE, Network
from repro.runtime.control import DeviceConnection


class ReplicatedConnection:
    """A DeviceConnection wrapper that journals control-plane mutations."""

    def __init__(self, conn: DeviceConnection) -> None:
        self._conn = conn
        #: op key -> journal entry, insertion-ordered, last write wins.
        self._journal: dict[tuple, tuple] = {}

    # -- register memory -------------------------------------------------------
    def managed_write(self, name: str, value: int, index: int = 0) -> None:
        self._conn.managed_write(name, value, index=index)
        self._journal[("reg", name, index)] = ("write", name, value, index)

    def managed_read(self, name: str, index: int = 0) -> int:
        return self._conn.managed_read(name, index=index)

    # -- lookup memory ---------------------------------------------------------
    def managed_insert(
        self, name: str, key: int, value: Optional[int] = None,
        key_hi: Optional[int] = None,
    ) -> None:
        self._conn.managed_insert(name, key, value=value, key_hi=key_hi)
        self._journal[("tbl", name, key)] = ("insert", name, key, value, key_hi)

    def managed_modify(self, name: str, key: int, value: int) -> bool:
        ok = self._conn.managed_modify(name, key, value)
        if ok:
            prev = self._journal.get(("tbl", name, key))
            key_hi = prev[4] if prev is not None and prev[0] == "insert" else None
            self._journal[("tbl", name, key)] = ("insert", name, key, value, key_hi)
        return ok

    def managed_remove(self, name: str, key: int) -> bool:
        ok = self._conn.managed_remove(name, key)
        self._journal.pop(("tbl", name, key), None)
        return ok

    # -- replication -----------------------------------------------------------
    def replay(self, conn: DeviceConnection) -> int:
        """Re-apply the compacted journal onto another device; returns the
        number of operations replayed."""
        n = 0
        for entry in self._journal.values():
            if entry[0] == "write":
                _, name, value, index = entry
                conn.managed_write(name, value, index=index)
            else:
                _, name, key, value, key_hi = entry
                conn.managed_insert(name, key, value=value, key_hi=key_hi)
            n += 1
        return n

    def retarget(self, conn: DeviceConnection) -> None:
        """Future control-plane operations go to ``conn`` (the standby)."""
        self._conn = conn


class FailoverManager:
    """Detect a dead primary switch and promote a standby."""

    def __init__(
        self,
        network: Network,
        primary_id: int,
        standby_id: int,
        *,
        heartbeat_ns: int = 100_000,
        replicated: Optional[ReplicatedConnection] = None,
        channels: Sequence = (),
        on_failover: Optional[Callable[["FailoverManager"], None]] = None,
    ) -> None:
        self.network = network
        self.primary_id = primary_id
        self.standby_id = standby_id
        self.active_id = primary_id
        self.heartbeat_ns = heartbeat_ns
        self.replicated = replicated
        self.channels = list(channels)
        self.on_failover = on_failover
        self.failed_over = False
        self._last_up_ns = network.sim.now_ns
        m = network.metrics
        self._failovers = m.counter("reliability.failover.count")
        self._heartbeats = m.counter("reliability.failover.heartbeats")
        self._recover = m.histogram("reliability.failover.time_to_recover_ns")
        self._replayed = m.counter("reliability.failover.ops_replayed")

    def start(self) -> "FailoverManager":
        self._schedule()
        return self

    def _schedule(self) -> None:
        self.network.sim.after(self.heartbeat_ns, self._tick)

    def _tick(self) -> None:
        if self.failed_over:
            return
        self._heartbeats.inc()
        if self.network.is_up(DEVICE(self.primary_id)):
            self._last_up_ns = self.network.sim.now_ns
            self._schedule()
            return
        self._failover()

    def _failover(self) -> None:
        self.failed_over = True
        self.active_id = self.standby_id
        now = self.network.sim.now_ns
        self._failovers.inc()
        self._recover.observe(now - self._last_up_ns)
        if self.replicated is not None:
            standby = self.network.switches[self.standby_id].device
            conn = DeviceConnection(standby)
            self._replayed.inc(self.replicated.replay(conn))
            self.replicated.retarget(conn)
        for ch in self.channels:
            ch.retarget(self.standby_id)
        if self.on_failover is not None:
            self.on_failover(self)
