"""The scheduler fires events in global ``(time_ns, seq)`` order.

Random programs — ``after`` / ``at`` schedules and callbacks that
schedule further work — run on the real :class:`Simulator` and on a
reference model that keeps a plain list and picks ``min((time, seq))``;
the two must agree on which callback fires when, and on ``now_ns`` /
``pending`` / ``events_processed`` after every ``run()``,
``run(until_ns=…)`` and ``run(max_events=…)``, and after a callback
raises out of ``run``.

The simulator keeps in-order entries in a FIFO lane and only earlier
ones in a heap, so the programs mix far-future runs (bursts of in-order
schedules from one callback) with near-future events, and draw horizons
that fall between the two heads.  The white-box tests at the end check
that both tiers are really in use.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Simulator


class ModelSimulator:
    """The semantics, with no heap."""

    def __init__(self) -> None:
        self.now_ns = 0
        self.events_processed = 0
        self._seq = 0
        self._entries: list[tuple[int, int, object, tuple]] = []

    def _add(self, time_ns, fn, args) -> None:
        self._entries.append((time_ns, self._seq, fn, args))
        self._seq += 1

    def at(self, time_ns, fn, *args) -> None:
        if time_ns < self.now_ns:
            raise ValueError("past")
        self._add(math.ceil(time_ns), fn, args)

    def after(self, delay_ns, fn, *args) -> None:
        self._add(self.now_ns + max(0, math.ceil(delay_ns)), fn, args)

    @property
    def pending(self) -> int:
        return len(self._entries)

    def run(self, until_ns=None, max_events=None) -> None:
        n = 0
        while self._entries:
            entry = min(self._entries, key=lambda e: e[:2])
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


class Boom(Exception):
    """Raised by a generated callback."""


class Program:
    """Interprets one generated program against either scheduler.

    An op is ``(verb, amount, children)``.  ``after`` / ``at`` schedule one
    callback that performs ``children`` when it fires; ``burst`` schedules
    ``count`` childless callbacks ``step`` ns apart from ``start`` on (its
    amount is ``(start, count, step)``); ``raise`` schedules one that raises
    :class:`Boom`.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.fired: list[tuple[int, int]] = []
        self._idents = 0

    def perform(self, ops) -> None:
        sim = self.sim
        for verb, amount, children in ops:
            ident = self._idents
            self._idents += 1
            if verb == "after":
                assert sim.after(amount, self._fire, ident, children) is None
            elif verb == "at":
                assert sim.at(sim.now_ns + amount, self._fire, ident, children) is None
            elif verb == "raise":
                sim.after(amount, self._raise, ident)
            else:
                start, count, step = amount
                for k in range(count):
                    sim.after(start + k * step, self._fire, (ident, k), ())

    def _fire(self, ident, children) -> None:
        self.fired.append((ident, self.sim.now_ns))
        self.perform(children)

    def _raise(self, ident: int) -> None:
        self.fired.append((ident, self.sim.now_ns))
        raise Boom(ident)

    def run(self, how) -> bool:
        """One ``run`` call; True when a callback raised out of it."""
        sim = self.sim
        try:
            if "until_dt" in how:
                sim.run(until_ns=sim.now_ns + how["until_dt"])
            else:
                sim.run(**how)
        except Boom:
            return True
        return False

    def observe(self):
        sim = self.sim
        return self.fired, sim.now_ns, sim.pending, sim.events_processed


#: small ints make same-nanosecond ties common; the floats round up; the
#: large ones land past the lane's tail, so later near events take the heap.
NEAR = st.one_of(st.integers(0, 4), st.sampled_from([0.4, 1.5, 3.0]))
AMOUNTS = st.one_of(NEAR, NEAR, st.integers(5, 1000))
BURSTS = st.tuples(st.integers(0, 1000), st.integers(1, 12), st.integers(0, 90))


def _op_lists(children):
    schedule = st.one_of(
        st.tuples(st.sampled_from(["after", "at"]), AMOUNTS, children),
        st.tuples(st.just("burst"), BURSTS, st.just(())),
    )
    return st.lists(schedule, max_size=6).map(tuple)


OPS = st.recursive(st.just(()), _op_lists, max_leaves=40)
RAISES = st.lists(st.tuples(st.just("raise"), AMOUNTS, st.just(())), max_size=2)
RUNS = st.one_of(
    st.just({}),
    st.builds(lambda d: {"until_dt": d}, st.one_of(st.integers(0, 8), st.integers(9, 1200))),
    st.builds(lambda n: {"max_events": n}, st.integers(1, 6)),
)


@settings(max_examples=300, deadline=None)
@given(phases=st.lists(st.tuples(OPS, RAISES, RUNS), min_size=1, max_size=4))
def test_random_programs_fire_in_time_seq_order(phases):
    real, model = Program(Simulator()), Program(ModelSimulator())
    for ops, raises, how in phases:
        for prog in (real, model):
            prog.perform(ops + tuple(raises))
        assert real.run(how) == model.run(how)
        assert real.observe() == model.observe()
    while True:  # drain, past any callback that raises
        raised = real.run({})
        assert raised == model.run({})
        assert real.observe() == model.observe()
        if not raised:
            break
    assert real.sim.pending == 0


def _lane_and_heap(sim: Simulator) -> tuple[int, int]:
    return len(sim._lane), len(sim._queue)


def test_in_order_schedules_bypass_the_heap():
    sim = Simulator()
    fired = []
    for t in range(0, 1000, 10):
        sim.after(t, fired.append, t)
    sim.at(995, fired.append, 995)
    assert _lane_and_heap(sim) == (101, 0)
    sim.at(5, fired.append, 5)  # earlier than the lane's tail
    assert _lane_and_heap(sim) == (101, 1)
    assert sim.pending == 102
    sim.run()
    assert fired == sorted(fired) and len(fired) == 102
    assert sim.events_processed == 102 and sim.pending == 0


def test_horizon_between_the_two_heads():
    sim = Simulator()
    fired = []
    sim.at(100, fired.append, "lane 100")
    sim.at(1000, fired.append, "lane 1000")
    sim.at(500, fired.append, "heap 500")
    sim.at(100, fired.append, "heap 100")  # ties the lane's head, later seq
    assert _lane_and_heap(sim) == (2, 2)
    sim.run(until_ns=300)
    assert fired == ["lane 100", "heap 100"]
    assert (sim.now_ns, sim.pending, sim.events_processed) == (300, 2, 2)
    sim.run(until_ns=700)
    assert fired[2:] == ["heap 500"]
    assert (sim.now_ns, sim.pending, sim.events_processed) == (700, 1, 3)
    sim.run(max_events=1)
    assert fired[3:] == ["lane 1000"] and sim.now_ns == 1000


def test_a_raising_callback_leaves_the_queue_consistent():
    sim = Simulator()
    fired = []

    def boom():
        raise Boom()

    sim.at(10, fired.append, 10)
    sim.at(20, boom)
    sim.at(30, fired.append, 30)
    sim.at(15, fired.append, 15)  # heap
    with pytest.raises(Boom):
        sim.run()
    assert fired == [10, 15]
    assert (sim.now_ns, sim.pending, sim.events_processed) == (20, 1, 2)
    sim.run()
    assert fired == [10, 15, 30] and sim.events_processed == 3
