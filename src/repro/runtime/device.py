"""The NetCL device runtime (§VI-C).

A small layer around the behavioral kernel executor.  For each incoming
packet it:

1. checks whether the packet is a NetCL message whose ``to`` matches
   ``device.id`` — otherwise the packet is a no-op at this device (the
   *no-implicit-computation* rule of §IV);
2. dispatches the kernel matching the requested computation id, exposing
   the message data (decoded per the kernel specification) and the NetCL
   header pseudo-fields (``msg.src`` etc.);
3. translates the kernel's exit action (Table II) into an updated 4-tuple
   plus a :class:`ForwardDecision` the base program / network executes.

``repeat()`` re-executes the kernel on the spot (recirculation), bounded
by ``max_repeats``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from repro.ir.compiled import KernelEngine
from repro.ir.instructions import ActionKind
from repro.ir.interp import ActionOutcome, GlobalState, KernelMessage
from repro.ir.module import Function, Module
from repro.runtime.message import ACT_CODES, CodecPlan, KernelSpec, NetCLPacket, NO_DEVICE
from repro.telemetry import MetricRegistry


class ForwardKind(str, Enum):
    TO_HOST = "to_host"
    TO_DEVICE = "to_device"
    MULTICAST = "multicast"
    DROP = "drop"


@dataclass
class ForwardDecision:
    kind: ForwardKind
    target: int = 0  # host id, device id, or multicast group id
    packet: Optional[NetCLPacket] = None


class DeviceRuntimeError(Exception):
    pass


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
        for fn in kernels:
            if fn.computation is None:
                continue
            if not fn.placed_at(device_id):
                continue
            if fn.computation in self.kernels:
                raise DeviceRuntimeError(
                    f"two kernels for computation {fn.computation} at device "
                    f"{device_id} (placement validity, Eq. 1)"
                )
            self.kernels[fn.computation] = fn
            self.specs[fn.computation] = KernelSpec.from_kernel(fn)
        self._seen = self.metrics.counter("kernel.dispatches")
        self._computed = self.metrics.counter("kernel.computed")
        self._noops = self.metrics.counter("kernel.noop_forwards")
        self._repeats = self.metrics.counter("kernel.repeats")
        # Per-outcome counters are resolved on first use and cached by the
        # enum member, so the per-packet path does no f-string formatting
        # or registry lookups.  Lazy (not eager) so the registry snapshot
        # only contains outcomes that actually occurred.
        self._action_counters: dict[ActionKind, object] = {}
        self._forward_counters: dict[ForwardKind, object] = {}

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

    def drain_control(self) -> list[ForwardDecision]:
        """Control packets (e.g. reliability ACKs) queued while processing
        the last packet; the transport executes them after the main
        forwarding decision.  The base runtime emits none."""
        return []

    # -- counter views (kept for compatibility with pre-telemetry callers) ---------
    @property
    def packets_seen(self) -> int:
        return int(self._seen.value)

    @property
    def packets_computed(self) -> int:
        return int(self._computed.value)

    # -- packet path --------------------------------------------------------------
    def process(self, packet: NetCLPacket) -> ForwardDecision:
        """Process one NetCL packet; returns the forwarding decision."""
        self._seen.value += 1
        if packet.to != self.device_id or packet.comp not in self.kernels:
            # No-op at this device: forward toward its target (§IV).
            self._noops.value += 1
            return self._forward_noop(packet)

        fn = self.kernels[packet.comp]
        plan = self.specs[packet.comp].plan
        try:
            msg = self._decode(packet, plan)
        except ValueError:
            # a data section that is not this computation's layout: never
            # compute on it (counter on first use, like the outcome ones)
            self.metrics.counter("kernel.malformed").inc()
            return ForwardDecision(ForwardKind.DROP, packet=None)

        outcome = ActionOutcome(ActionKind.REPEAT)
        repeats = 0
        while outcome.kind == ActionKind.REPEAT:
            if repeats > self.max_repeats:
                raise DeviceRuntimeError(
                    f"kernel '{fn.name}' exceeded {self.max_repeats} repeats"
                )
            outcome = self.interp.run_kernel(fn, msg)
            repeats += 1
        if repeats > 1:
            self._repeats.inc(repeats - 1)
        self._computed.inc()
        ctr = self._action_counters.get(outcome.kind)
        if ctr is None:
            ctr = self._action_counters[outcome.kind] = self.metrics.counter(
                f"kernel.action.{outcome.kind.value}"
            )
        ctr.inc()
        decision = self._apply_action(packet, plan, msg, outcome)
        ctr = self._forward_counters.get(decision.kind)
        if ctr is None:
            ctr = self._forward_counters[decision.kind] = self.metrics.counter(
                f"kernel.forward.{decision.kind.value}"
            )
        ctr.inc()
        return decision

    def _forward_noop(self, packet: NetCLPacket) -> ForwardDecision:
        if packet.to != NO_DEVICE and packet.to != self.device_id:
            return ForwardDecision(ForwardKind.TO_DEVICE, packet.to, packet)
        return ForwardDecision(ForwardKind.TO_HOST, packet.dst, packet)

    # -- codec ------------------------------------------------------------------------
    def _decode(self, packet: NetCLPacket, plan: CodecPlan) -> KernelMessage:
        """The kernel's view of a packet; a tail field the sender omitted
        is appended zero-initialized (§VIII).  ``ValueError`` when the
        data section is not the computation's layout."""
        fields: dict[str, int | list[int]] = {
            "__src": packet.src,
            "__dst": packet.dst,
            "__from": packet.from_,
            "__to": packet.to,
        }
        fields.update(zip(plan.names, plan.decode(packet.data)))
        return KernelMessage(fields)

    def _encode(self, plan: CodecPlan, msg: KernelMessage) -> bytes:
        get = msg.fields.get
        return plan.encode([get(name, 0) for name in plan.names])

    # -- action translation ----------------------------------------------------------------
    def _apply_action(
        self,
        packet: NetCLPacket,
        plan: CodecPlan,
        msg: KernelMessage,
        outcome: ActionOutcome,
    ) -> ForwardDecision:
        kind = outcome.kind
        if kind == ActionKind.DROP:
            return ForwardDecision(ForwardKind.DROP, packet=None)
        out = packet.copy()
        out.data = self._encode(plan, msg)
        # This device becomes the message's previous computing node.
        out.from_ = self.device_id
        out.act = ACT_CODES[kind.value]

        if kind == ActionKind.PASS:
            out.to = NO_DEVICE
            return ForwardDecision(ForwardKind.TO_HOST, out.dst, out)
        if kind == ActionKind.SEND_TO_HOST:
            assert outcome.target is not None
            out.to = NO_DEVICE
            out.dst = packet.dst  # destination unchanged; exits to target host
            return ForwardDecision(ForwardKind.TO_HOST, outcome.target, out)
        if kind == ActionKind.SEND_TO_DEVICE:
            assert outcome.target is not None
            out.to = outcome.target
            return ForwardDecision(ForwardKind.TO_DEVICE, outcome.target, out)
        if kind == ActionKind.MULTICAST:
            assert outcome.target is not None
            out.to = NO_DEVICE
            return ForwardDecision(ForwardKind.MULTICAST, outcome.target, out)
        if kind == ActionKind.REFLECT:
            # Back to the previous node: the last computing device, or the
            # source host when no device computed before us.
            prev_dev = packet.from_
            if prev_dev != NO_DEVICE and prev_dev != self.device_id:
                out.to = prev_dev
                return ForwardDecision(ForwardKind.TO_DEVICE, prev_dev, out)
            out.to = NO_DEVICE
            return ForwardDecision(ForwardKind.TO_HOST, packet.src, out)
        if kind == ActionKind.REFLECT_LONG:
            out.to = NO_DEVICE
            return ForwardDecision(ForwardKind.TO_HOST, packet.src, out)
        raise DeviceRuntimeError(f"unhandled action {kind}")  # pragma: no cover
