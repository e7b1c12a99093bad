"""Control-plane driver for the ToR's memoization cache.

The kernel side (``rpc_memo`` in ``rpc.ncl``) is read-only: it looks a
request key up in the ``MemoIndex`` MAT, version-checks the line, and
either reflects the memoized reply or passes through.  *This* class owns
every mutation, over a journaling
:class:`~repro.reliability.ReplicatedConnection` so a ToR failover
replays the cache onto the standby:

* :meth:`install` — write the reply words and the line's live version
  *before* publishing the MAT entry (a concurrent lookup between the
  two steps sees either no entry or a fully consistent line, never a
  torn one).  The MAT value carries the version the entry was installed
  at: ``(version << 16) | line``.
* :meth:`invalidate` — remove the MAT entry *and* bump the line's live
  version register, so even an in-flight packet that resolved the old
  MAT entry fails the kernel's version compare (counted ``MemoStale``).

Line allocation is host-side LRU; evicting a line removes the victim's
MAT entry before the line is reused.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.reliability import ReplicatedConnection
from repro.rpc.idl import MEMO_LINES, RPC_WORDS


class MemoController:
    """Host-side owner of one ToR's memo lines."""

    def __init__(
        self, conn: ReplicatedConnection, *, metrics, lines: int = MEMO_LINES,
        tag: str = "tor",
    ) -> None:
        self.conn = conn
        self.lines = lines
        #: key -> line, LRU-ordered (most recently installed last).
        self._key_line: "OrderedDict[int, int]" = OrderedDict()
        self._line_ver = [0] * lines
        self._free = list(range(lines - 1, -1, -1))
        self._installs = metrics.counter(f"rpc.memo.installs.{tag}")
        # never incremented (writes bump the version instead); registered
        # because the scenario digests hash the full counter snapshot
        metrics.counter(f"rpc.memo.invalidations.{tag}")
        self._evictions = metrics.counter(f"rpc.memo.evictions.{tag}")

    def install(self, key: int, words: list[int]) -> int:
        """Memoize ``words`` under ``key``; returns the line used."""
        if len(words) > RPC_WORDS:
            raise ValueError(f"{len(words)} words exceed RPC_WORDS={RPC_WORDS}")
        line = self._key_line.get(key)
        update = line is not None
        if line is None:
            if self._free:
                line = self._free.pop()
            else:
                victim, line = self._key_line.popitem(last=False)
                self.conn.managed_remove("MemoIndex", victim)
                self._evictions.inc()
        ver = (self._line_ver[line] + 1) & 0xFFFF
        self._line_ver[line] = ver
        for i in range(RPC_WORDS):
            w = words[i] if i < len(words) else 0
            self.conn.managed_write("MemoData", w & 0xFFFFFFFF, index=i * self.lines + line)
        self.conn.managed_write("MemoVer", ver, index=line)
        meta = (ver << 16) | line
        if update:
            self.conn.managed_modify("MemoIndex", key, meta)
            self._key_line.move_to_end(key)
        else:
            self.conn.managed_insert("MemoIndex", key, meta)
            self._key_line[key] = line
        self._installs.inc()
        return line

