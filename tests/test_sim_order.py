"""The scheduler fires events in global ``(time_ns, seq)`` order.

Random programs — ``after`` / ``at`` schedules and callbacks that
schedule further work — run on the real :class:`Simulator` and on a
reference model that keeps a plain list and picks ``min((time, seq))``;
the two must agree on which callback fires when, and on ``now_ns`` /
``pending`` / ``events_processed`` after every ``run()``,
``run(until_ns=…)`` and ``run(max_events=…)``.
"""

from __future__ import annotations

import math

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


class Program:
    """Interprets one generated program against either scheduler."""

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
            else:
                assert sim.at(sim.now_ns + amount, self._fire, ident, children) is None

    def _fire(self, ident: int, children) -> None:
        self.fired.append((ident, self.sim.now_ns))
        self.perform(children)

    def observe(self):
        sim = self.sim
        return self.fired, sim.now_ns, sim.pending, sim.events_processed


#: small ints make same-nanosecond ties common; the floats round up.
AMOUNTS = st.one_of(st.integers(0, 4), st.sampled_from([0.4, 1.5, 3.0]))


def _op_lists(children):
    schedule = st.tuples(st.sampled_from(["after", "at"]), AMOUNTS, children)
    return st.lists(schedule, max_size=6).map(tuple)


OPS = st.recursive(st.just(()), _op_lists, max_leaves=40)
RUNS = st.one_of(
    st.just({}),
    st.builds(lambda d: {"until_dt": d}, st.integers(0, 8)),
    st.builds(lambda n: {"max_events": n}, st.integers(1, 6)),
)


@settings(max_examples=300, deadline=None)
@given(phases=st.lists(st.tuples(OPS, RUNS), min_size=1, max_size=4))
def test_random_programs_fire_in_time_seq_order(phases):
    real, model = Program(Simulator()), Program(ModelSimulator())
    for ops, how in [*phases, ((), {})]:
        for prog in (real, model):
            prog.perform(ops)
            if "until_dt" in how:
                prog.sim.run(until_ns=prog.sim.now_ns + how["until_dt"])
            else:
                prog.sim.run(**how)
        assert real.observe() == model.observe()
    assert real.sim.pending == 0
