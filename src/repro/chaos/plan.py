"""Declarative, replayable fault plans.

A :class:`ChaosPlan` says *what goes wrong and when*: per-link fault
models (loss, corruption, duplication, reordering, latency jitter) plus
scheduled node events (switch crash/restart, link flaps).  Plans are
plain data — JSON-serializable both ways — and carry their own RNG seed,
so a failure run is fully described by one artifact and replays
bit-identically.

Link keys use the telemetry node naming: ``"d1-h1"`` (sorted endpoint
names joined by ``-``); node references are ``"h<id>"`` / ``"d<id>"``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional

from repro.netsim.net import DEVICE, HOST, NodeKey


def parse_node(name: str) -> NodeKey:
    """``"h1"`` -> HOST(1), ``"d2"`` -> DEVICE(2)."""
    kind, ident = name[0], name[1:]
    if kind not in ("h", "d") or not ident.isdigit():
        raise ValueError(f"bad node name {name!r} (want h<id> or d<id>)")
    return HOST(int(ident)) if kind == "h" else DEVICE(int(ident))


@lru_cache(maxsize=None)
def link_name(a: NodeKey, b: NodeKey) -> str:
    """Canonical plan/telemetry key for the link between two nodes."""
    return "-".join(sorted((f"{a[0]}{a[1]}", f"{b[0]}{b[1]}")))


@dataclass(frozen=True)
class LinkFaults:
    """One link's fault model; all probabilities are per transmission."""

    loss: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    #: extra delay applied to reordered packets (uniform in [1, this]).
    reorder_delay_ns: int = 20_000
    #: uniform extra latency in [0, this] applied to every packet.
    jitter_ns: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LinkFaults":
        return cls(**d)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled failure event.

    ``kind`` is one of ``crash`` / ``restart`` (with ``node``) or
    ``link_down`` / ``link_up`` (with ``a`` and ``b``).
    """

    at_ns: int
    kind: str
    node: Optional[str] = None
    a: Optional[str] = None
    b: Optional[str] = None

    KINDS = ("crash", "restart", "link_down", "link_up")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown chaos event kind {self.kind!r}")
        if self.kind in ("crash", "restart") and self.node is None:
            raise ValueError(f"{self.kind} event needs a node")
        if self.kind in ("link_down", "link_up") and (self.a is None or self.b is None):
            raise ValueError(f"{self.kind} event needs link endpoints a and b")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "ChaosEvent":
        return cls(**d)


@dataclass
class ChaosPlan:
    """A complete, replayable description of one failure run."""

    seed: int = 0
    #: faults applied to links with no explicit entry (None = healthy).
    default_link: Optional[LinkFaults] = None
    #: link name (see :func:`link_name`) -> fault model.
    links: dict[str, LinkFaults] = field(default_factory=dict)
    events: list[ChaosEvent] = field(default_factory=list)

    def faults_for(self, a: NodeKey, b: NodeKey) -> Optional[LinkFaults]:
        return self.links.get(link_name(a, b), self.default_link)

    # -- (de)serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "default_link": self.default_link.to_dict() if self.default_link else None,
            "links": {k: v.to_dict() for k, v in sorted(self.links.items())},
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChaosPlan":
        return cls(
            seed=d.get("seed", 0),
            default_link=(
                LinkFaults.from_dict(d["default_link"]) if d.get("default_link") else None
            ),
            links={k: LinkFaults.from_dict(v) for k, v in d.get("links", {}).items()},
            events=[ChaosEvent.from_dict(e) for e in d.get("events", [])],
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        return cls.from_dict(json.loads(text))
