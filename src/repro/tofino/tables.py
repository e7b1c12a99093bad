"""Logical tables: the resource-level view of a P4 program.

A :class:`PipelineSpec` is what the fitter places: :mod:`repro.p4.resources`
reads one from a P4 program, generated (the backend's tree) or
handwritten (a parsed baseline).  Each
:class:`LogicalTable` is a unit the match-action pipeline must place in
some stage: a MAT, a Register+SALU, a gateway, a plain VLIW action, or a
hash computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.tofino.chip import ChipSpec


class MatchKind(str, Enum):
    NONE = "none"  # plain action / gateway / register: no match key
    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"
    RANGE = "range"


class DependencyKind(str, Enum):
    """RMT inter-table dependency classes (drive both staging and timing)."""

    MATCH = "match"  # consumer matches on a value the producer writes
    ACTION = "action"  # consumer's action reads the producer's action output
    CONTROL = "control"  # consumer is predicated on the producer's result


@dataclass
class Dependency:
    producer: str
    kind: DependencyKind = DependencyKind.MATCH


@dataclass
class LogicalTable:
    """One stage-placeable unit and its resource demands."""

    name: str
    match_kind: MatchKind = MatchKind.NONE
    key_bits: int = 0
    entries: int = 0
    value_bits: int = 0  # action-data bits per entry
    register_bits: int = 0  # stateful storage attached (Register)
    salus: int = 0
    vliw_slots: int = 0
    hash_engines: int = 0
    is_gateway: bool = False
    #: Name of another table this one must share a stage with (distinct
    #: RegisterActions over one stage-local Register).
    colocate: Optional[str] = None
    depends: list[Dependency] = field(default_factory=list)
    #: provenance, e.g. the kernel name — used in reports
    origin: str = ""

    def add_dep(self, producer: str, kind: DependencyKind = DependencyKind.MATCH) -> None:
        if producer == self.name:
            return
        for d in self.depends:
            if d.producer == producer:
                return
        self.depends.append(Dependency(producer, kind))

    # -- resource demand ----------------------------------------------------------
    def sram_blocks(self, chip: ChipSpec) -> int:
        bits = self.register_bits
        if self.match_kind == MatchKind.EXACT and self.entries:
            bits += self.entries * (self.key_bits + self.value_bits + 8)  # +overhead
        elif self.match_kind == MatchKind.NONE and self.entries:
            bits += self.entries * (self.value_bits + 8)
        elif self.match_kind in (MatchKind.TERNARY, MatchKind.LPM, MatchKind.RANGE):
            # action data lives in SRAM even for TCAM-matched tables
            bits += self.entries * (self.value_bits + 8)
        return chip.sram_blocks_for(bits)

    def tcam_blocks(self, chip: ChipSpec) -> int:
        if self.match_kind in (MatchKind.TERNARY, MatchKind.LPM, MatchKind.RANGE):
            width_blocks = max(1, -(-self.key_bits // 44))
            return width_blocks * chip.tcam_blocks_for(max(1, self.entries))
        return 0

    def table_slots(self) -> int:
        return 0 if self.is_gateway else 1


@dataclass
class PipelineSpec:
    """Everything the fitter needs about one compiled program."""

    name: str
    tables: list[LogicalTable] = field(default_factory=list)
    #: Header bits carried through the pipe (for the PHV allocator):
    #: list of field bit-widths.
    header_fields: list[int] = field(default_factory=list)
    #: Metadata / local variable bit-widths.
    metadata_fields: list[int] = field(default_factory=list)
    #: Parsed header bytes (drives parser latency).
    parsed_bytes: int = 64
    _names: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def add(self, table: LogicalTable) -> LogicalTable:
        if table.name in self._names:
            raise ValueError(f"duplicate logical table {table.name}")
        self._names.add(table.name)
        self.tables.append(table)
        return table
