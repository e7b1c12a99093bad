"""The NetCL device runtime (§VI-C).

A small layer around the kernel engine.  For each incoming packet it:

1. checks whether the packet is a NetCL message whose ``to`` matches
   ``device.id`` and whose computation is placed here — otherwise the
   packet is a no-op at this device (the *no-implicit-computation* rule
   of §IV) and continues toward its target untouched;
2. decodes the data section once with the computation's
   :class:`~repro.runtime.message.CodecPlan` (a section of any other
   length is dropped as ``kernel.malformed``) and runs the kernel on the
   decoded values, with the packet as the header ``msg.src`` etc. read;
3. translates the kernel's exit action through Table II — resolved into
   :attr:`NetCLDevice.table` when the device is built — into one output
   packet (a copy with the values packed back in) and one
   :class:`ForwardDecision` the base program / network executes.

``repeat()`` re-executes the kernel on the spot (recirculation) over the
same values, bounded by ``max_repeats``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from repro.ir.compiled import KernelEngine
from repro.ir.instructions import ActionKind
from repro.ir.interp import GlobalState
from repro.ir.module import Function, Module
from repro.runtime.message import ACT_CODES, CodecPlan, KernelSpec, NetCLPacket, NO_DEVICE
from repro.telemetry import MetricRegistry

_REPEAT, _DROP, _REFLECT = ActionKind.REPEAT, ActionKind.DROP, ActionKind.REFLECT


class ForwardKind(str, Enum):
    TO_HOST = "to_host"
    TO_DEVICE = "to_device"
    MULTICAST = "multicast"
    DROP = "drop"


_TO_HOST, _TO_DEVICE = ForwardKind.TO_HOST, ForwardKind.TO_DEVICE


@dataclass(slots=True)
class ForwardDecision:
    kind: ForwardKind
    target: int = 0  # host id, device id, or multicast group id
    packet: Optional[NetCLPacket] = None


class DeviceRuntimeError(Exception):
    pass


def routed(kind: ForwardKind, target: int, out: NetCLPacket) -> ForwardDecision:
    """The decision to forward ``out`` to ``target``, with its ``to`` set:
    the target device, or none once the packet leaves the devices."""
    out.to = target if kind is ForwardKind.TO_DEVICE else NO_DEVICE
    return ForwardDecision(kind, target, out)


#: Table II: exit action -> (forward, the input header field the target is
#: read from, or None for the action's own target).  ``drop`` has no output
#: packet, ``repeat`` never leaves the device, and ``reflect`` returns to the
#: previous computing device instead of the source host when there is one.
TABLE_II = {
    ActionKind.PASS: (ForwardKind.TO_HOST, "dst"),
    ActionKind.SEND_TO_HOST: (ForwardKind.TO_HOST, None),  # ``dst`` stays
    ActionKind.SEND_TO_DEVICE: (ForwardKind.TO_DEVICE, None),
    ActionKind.MULTICAST: (ForwardKind.MULTICAST, None),
    ActionKind.REFLECT: (ForwardKind.TO_HOST, "src"),
    ActionKind.REFLECT_LONG: (ForwardKind.TO_HOST, "src"),
}


class NetCLDevice:
    """One PDP device running compiled NetCL kernels."""

    def __init__(
        self,
        device_id: int,
        module: Module,
        kernels: Sequence[Function],
        *,
        seed: int = 0,
        max_repeats: int = 64,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.device_id = device_id
        self.module = module
        self.metrics = metrics or MetricRegistry()
        self._seed = seed
        self._boot()
        self.max_repeats = max_repeats
        self.kernels: dict[int, Function] = {}
        self.specs: dict[int, KernelSpec] = {}
        site = module.site(device_id)
        for fn in kernels:
            if fn.computation is None:
                continue
            if not fn.placed_at(site):
                continue
            if fn.computation in self.kernels:
                raise DeviceRuntimeError(
                    f"two kernels for computation {fn.computation} at device "
                    f"{device_id} (placement validity, Eq. 1)"
                )
            self.kernels[fn.computation] = fn
            self.specs[fn.computation] = KernelSpec.from_kernel(fn)
        #: comp -> (kernel, its codec plan): the one lookup a computed packet makes
        self._dispatch = {c: (fn, self.specs[c].plan) for c, fn in self.kernels.items()}
        #: Table II at this device: exit action -> (``act`` byte, forward, field)
        self.table = {kind: (ACT_CODES[kind.value], *row) for kind, row in TABLE_II.items()}
        self._seen = self.metrics.counter("kernel.dispatches")
        self._computed = self.metrics.counter("kernel.computed")
        self._noops = self.metrics.counter("kernel.noop_forwards")
        self._repeats = self.metrics.counter("kernel.repeats")
        # Per-outcome counters are made on first use and cached by kind, so
        # the registry only reports outcomes that actually occurred.
        self._actions: dict[ActionKind, object] = {}
        self._forwards: dict[ForwardKind, object] = {}

    # -- lifecycle ----------------------------------------------------------------
    def _boot(self) -> None:
        """Zeroed memory, a restarted rng and an engine bound to both; the
        generated kernel code lives on the module and is only bound again."""
        self.state = GlobalState()
        self.interp = KernelEngine(
            self.module, self.state, device_id=self.device_id, rng=random.Random(self._seed)
        )

    def reset_state(self) -> None:
        """Model a device reboot: all register and lookup state is lost.

        The control plane must re-install any ``_managed_`` contents it
        needs (see :class:`repro.reliability.FailoverManager`).
        """
        self._boot()
        self.metrics.counter("device.resets").inc()

    # -- counter views (kept for compatibility with pre-telemetry callers) ---------
    @property
    def packets_seen(self) -> int:
        return int(self._seen.value)

    @property
    def packets_computed(self) -> int:
        return int(self._computed.value)

    # -- packet path --------------------------------------------------------------
    def process(self, packet: NetCLPacket) -> ForwardDecision:
        """Process one NetCL packet; returns the forwarding decision.

        A computed packet costs one decode, one kernel run per execution,
        and — unless the kernel drops it — one pack, one packet copy and
        one decision; the input packet is never rewritten.
        """
        self._seen.value += 1
        entry = self._dispatch.get(packet.comp) if packet.to == self.device_id else None
        if entry is None:
            # No-op at this device: forward toward its target (§IV).
            self._noops.value += 1
            to = packet.to
            if to != NO_DEVICE and to != self.device_id:
                return ForwardDecision(_TO_DEVICE, to, packet)
            return ForwardDecision(_TO_HOST, packet.dst, packet)
        fn, plan = entry
        try:
            values = plan.decode(packet.data)
        except ValueError:
            # a data section that is not this computation's layout: never
            # compute on it (counter on first use, like the outcome ones)
            self.metrics.counter("kernel.malformed").inc()
            return ForwardDecision(ForwardKind.DROP)
        outcome = self.interp.run_kernel(fn, values, packet)
        if outcome.kind is _REPEAT:
            outcome = self._repeat(fn, values, packet)
        kind = outcome.kind
        self._computed.value += 1
        (self._actions.get(kind) or self._counter(self._actions, kind, "action")).value += 1
        if kind is _DROP:
            decision = ForwardDecision(ForwardKind.DROP)
        else:
            act, forward, field = self.table[kind]
            target = outcome.target if field is None else getattr(packet, field)
            prev = packet.from_
            if kind is _REFLECT and prev != NO_DEVICE and prev != self.device_id:
                forward, target = ForwardKind.TO_DEVICE, prev
            out = packet.copy()
            out.data = plan.pack(values)
            out.from_ = self.device_id  # the message's previous computing node now
            out.act = act
            decision = routed(forward, target, out)
        forward = decision.kind
        (self._forwards.get(forward) or self._counter(self._forwards, forward, "forward")).value += 1
        return decision

    def _repeat(self, fn: Function, values: list, packet: NetCLPacket):
        """Re-execute on the spot (recirculation) until the kernel exits
        with another action, and return that exit."""
        for repeats in range(1, self.max_repeats + 1):
            outcome = self.interp.run_kernel(fn, values, packet)
            if outcome.kind is not _REPEAT:
                self._repeats.value += repeats
                return outcome
        raise DeviceRuntimeError(f"kernel '{fn.name}' exceeded {self.max_repeats} repeats")

    def _counter(self, counters: dict, kind: Enum, what: str):
        counters[kind] = ctr = self.metrics.counter(f"kernel.{what}.{kind.value}")
        return ctr
