"""NetCL host and device runtimes (§VI-C).

Host side: NetCL messages (:class:`Message`), packing/unpacking against
kernel specifications (:func:`pack` / :func:`unpack`; :func:`unpack_packet`
for a packet still in the process), and managed-memory
access through :class:`DeviceConnection` (the P4Runtime stand-in).

Device side: :class:`NetCLDevice` — the small runtime that recognizes
NetCL headers, dispatches the kernel matching the requested computation,
and translates the kernel's forwarding action into a next-hop decision
through the 4-tuple (src, dst, from, to).
"""

from repro.runtime.message import (
    KernelSpec,
    Message,
    NetCLPacket,
    pack,
    unpack,
    unpack_packet,
    ACT_CODES,
)
from repro.runtime.control import DeviceConnection
from repro.runtime.device import ForwardKind, ForwardDecision, NetCLDevice

__all__ = [
    "KernelSpec",
    "Message",
    "NetCLPacket",
    "pack",
    "unpack",
    "unpack_packet",
    "ACT_CODES",
    "DeviceConnection",
    "ForwardKind",
    "ForwardDecision",
    "NetCLDevice",
]
