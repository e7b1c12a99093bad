"""The scheduler fires events in global ``(time_ns, seq)`` order.

Random programs — ``after`` / ``at`` / handle-free ``defer`` schedules,
cancels, and callbacks that schedule and cancel further work — run on the
real :class:`Simulator` and on a reference model that keeps a plain list
and picks ``min((time, seq))``; the two must agree on which callback
fires when, and on ``now_ns`` / ``pending`` / ``events_processed`` after
every ``run()``, ``run(until_ns=…)`` and ``run(max_events=…)``.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Simulator


class _ModelHandle:
    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class ModelSimulator:
    """The semantics, with no heap, no laziness and no compaction."""

    def __init__(self) -> None:
        self.now_ns = 0
        self.events_processed = 0
        self._seq = 0
        self._entries: list[tuple[int, int, object, tuple, _ModelHandle]] = []

    def _add(self, time_ns, fn, args) -> _ModelHandle:
        handle = _ModelHandle()
        self._entries.append((time_ns, self._seq, fn, args, handle))
        self._seq += 1
        return handle

    def at(self, time_ns, fn, *args):
        if time_ns < self.now_ns:
            raise ValueError("past")
        return self._add(math.ceil(time_ns), fn, args)

    def after(self, delay_ns, fn, *args):
        return self._add(self.now_ns + max(0, math.ceil(delay_ns)), fn, args)

    def defer(self, delay_ns, fn, *args) -> None:
        self.after(delay_ns, fn, *args)

    @property
    def pending(self) -> int:
        return sum(1 for e in self._entries if not e[4].cancelled)

    def run(self, until_ns=None, max_events=None) -> None:
        n = 0
        while True:
            live = [e for e in self._entries if not e[4].cancelled]
            if not live:
                break
            entry = min(live, key=lambda e: e[:2])
            if until_ns is not None and entry[0] > until_ns:
                self.now_ns = until_ns
                return
            self._entries.remove(entry)
            self.now_ns = entry[0]
            entry[2](*entry[3])
            self.events_processed += 1
            n += 1
            if max_events is not None and n >= max_events:
                return
        if until_ns is not None:
            self.now_ns = max(self.now_ns, until_ns)


class Program:
    """Interprets one generated program against either scheduler."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.handles: list = []
        self.fired: list[tuple[int, int]] = []
        self._idents = 0

    def perform(self, ops) -> None:
        sim = self.sim
        for verb, amount, children in ops:
            if verb == "cancel":
                if self.handles:
                    self.handles[amount % len(self.handles)].cancel()
                continue
            ident = self._idents
            self._idents += 1
            if verb == "after":
                self.handles.append(sim.after(amount, self._fire, ident, children))
            elif verb == "at":
                self.handles.append(sim.at(sim.now_ns + amount, self._fire, ident, children))
            else:
                assert sim.defer(amount, self._fire, ident, children) is None

    def _fire(self, ident: int, children) -> None:
        self.fired.append((ident, self.sim.now_ns))
        self.perform(children)

    def observe(self):
        sim = self.sim
        return self.fired, sim.now_ns, sim.pending, sim.events_processed


#: small ints make same-nanosecond ties common; the floats round up.
AMOUNTS = st.one_of(st.integers(0, 4), st.sampled_from([0.4, 1.5, 3.0]))


def _op_lists(children):
    schedule = st.tuples(st.sampled_from(["after", "at", "defer"]), AMOUNTS, children)
    cancel = st.tuples(st.just("cancel"), st.integers(0, 50), st.just(()))
    return st.lists(st.one_of(schedule, schedule, cancel), max_size=6).map(tuple)


OPS = st.recursive(st.just(()), _op_lists, max_leaves=40)
RUNS = st.one_of(
    st.just({}),
    st.builds(lambda d: {"until_dt": d}, st.integers(0, 8)),
    st.builds(lambda n: {"max_events": n}, st.integers(1, 6)),
)


@settings(max_examples=300, deadline=None)
@given(phases=st.lists(st.tuples(OPS, RUNS), min_size=1, max_size=4), compact_at=st.sampled_from([2, 64]))
def test_random_programs_fire_in_time_seq_order(phases, compact_at):
    real_sim = Simulator()
    # a low threshold makes lazy-cancellation compaction part of most runs
    real_sim.COMPACT_MIN_SIZE = compact_at
    real, model = Program(real_sim), Program(ModelSimulator())
    for ops, how in [*phases, ((), {})]:
        for prog in (real, model):
            prog.perform(ops)
            if "until_dt" in how:
                prog.sim.run(until_ns=prog.sim.now_ns + how["until_dt"])
            else:
                prog.sim.run(**how)
        assert real.observe() == model.observe()
    assert real.sim.pending == 0
    # lazy deletion left nothing behind that the accounting does not know of
    assert len(real_sim._queue) == real_sim._cancelled_in_queue == 0


def test_compaction_mid_run_keeps_every_live_handle_free_entry():
    sim = Simulator()
    fired: list = []
    doomed = [sim.after(10 + i, fired.append, ("doomed", i)) for i in range(90)]
    kept = [sim.after(10 + i, fired.append, ("kept", i)) for i in range(10)]
    for i in range(50):
        sim.defer(10 + i, fired.append, ("free", i))

    def cancel_most() -> None:
        for ev in doomed:
            ev.cancel()
        # scheduled after the compaction, into the rebuilt heap
        sim.defer(0, fired.append, "post-compaction")

    sim.defer(5, cancel_most)
    assert sim.pending == 151
    sim.run()
    assert sim.compactions >= 1
    assert fired[0] == "post-compaction"
    rest = fired[1:]
    assert [x for x in rest if x[0] == "free"] == [("free", i) for i in range(50)]
    assert [x for x in rest if x[0] == "kept"] == [("kept", i) for i in range(10)]
    assert not any(x[0] == "doomed" for x in rest)
    # same-time entries fire in seq order: kept i was scheduled before free i
    assert rest.index(("kept", 3)) < rest.index(("free", 3))
    assert sim.events_processed == 62 and sim.pending == 0
    assert not any(ev.cancelled for ev in kept)
