"""Shared sizing constants for the reliability and slot protocols.

Every layer reads the one definition here: a
:class:`~repro.reliability.ReliableChannel` and a
:class:`~repro.reliability.ReliableNetCLDevice` size their dedup window
and reply/replay cache from these constants (neither takes a size
argument), and every windowed slot stream sizes against ``NUM_SLOTS``.

The values are protocol-coupled, not independent tunables:

* a sender's retransmission horizon must fit inside the receiver's
  ``DEFAULT_DEDUP_WINDOW``, or an old retransmission can be re-applied as
  "new" after the window slides past it;
* ``DEFAULT_REPLY_CACHE_CAPACITY`` bounds how far behind a client may lag
  (in outstanding requests) and still have a duplicated request answered
  by replay instead of silence;
* ``NUM_SLOTS`` is the switch-side slot count every windowed stream
  (:class:`~repro.collective.protocol.SlotStream` and the RPC
  scatter-gather stream) sizes its version-alternating state against;
* ``DEFAULT_SLOT_TIMEOUT_NS`` is the base per-slot retransmission timer
  matched to the simulated fabric's RTT under loss.

It also holds the switch convention a P4 program follows, generated
(:mod:`repro.backends.p4tree`) or handwritten (:mod:`repro.p4.switch`
runs both): the UDP port of NetCL traffic and the ``md.fwd_kind`` codes.
"""

from __future__ import annotations

#: Per-sender sliding dedup window (sequence numbers remembered).
DEFAULT_DEDUP_WINDOW = 4096

#: Host-side reply cache: recent (sender, seq) replies kept for replay.
DEFAULT_REPLY_CACHE_CAPACITY = 512

#: Device-side replay cache: recent forwarding decisions kept for replay.
DEFAULT_REPLAY_CACHE_CAPACITY = 2048

#: Switch-side protocol slots per windowed stream (version-alternated x2).
NUM_SLOTS = 256

#: Base per-slot retransmission timeout for windowed streams.
DEFAULT_SLOT_TIMEOUT_NS = 400_000

#: UDP destination port that marks NetCL traffic in a P4 program's parser
NETCL_PORT = 9000

#: ``md.fwd_kind`` codes a P4 program's ingress leaves: to a host, to a
#: device, to a multicast group, or drop
FWD_HOST, FWD_DEVICE, FWD_MCAST, FWD_DROP = 0, 1, 2, 3
