"""AST for the P4-16 subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# -- types -----------------------------------------------------------------------


@dataclass(frozen=True)
class BitType:
    width: int
    signed: bool = False

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class NamedType:
    name: str

    def __str__(self) -> str:
        return self.name


P4Type = Union[BitType, BoolType, NamedType]


# -- expressions --------------------------------------------------------------------


@dataclass
class Num:
    value: int
    width: Optional[int] = None  # from 8w42 style literals


@dataclass
class Path:
    """Dotted member path: hdr.netcl.act, md.idx, local variable names."""

    parts: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.parts)


@dataclass
class Slice:
    base: "Expr"
    hi: int
    lo: int


@dataclass
class CastExpr:
    to: P4Type
    value: "Expr"


@dataclass
class Unary:
    op: str
    value: "Expr"


@dataclass
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass
class Ternary:
    cond: "Expr"
    then: "Expr"
    els: "Expr"


@dataclass
class MethodCall:
    """obj.method(args) — extract/emit/execute/get/apply/isValid/setValid..."""

    target: Path
    method: str
    args: list["Expr"] = field(default_factory=list)


@dataclass
class ApplyResult:
    """table.apply().hit / .miss"""

    table: str
    member: str  # "hit" | "miss"


@dataclass
class TupleExpr:
    items: list["Expr"]


Expr = Union[
    Num, Path, Slice, CastExpr, Unary, Binary, Ternary, MethodCall,
    ApplyResult, TupleExpr,
]


# -- statements -----------------------------------------------------------------------


@dataclass
class Assign:
    target: Union[Path, Slice]
    value: Expr


@dataclass
class VarDecl:
    type: P4Type
    name: str
    init: Optional[Expr] = None


@dataclass
class If:
    cond: Expr
    then: list["Stmt"]
    els: Optional[list["Stmt"]] = None


@dataclass
class CallStmt:
    call: MethodCall


@dataclass
class ApplyTable:
    table: str


@dataclass
class Exit:
    pass


@dataclass
class Switch:
    """``switch (table.apply().action_run) { action: { ... } default: { ... } }``:
    the table's action picks the branch (``"default"`` names the rest)."""

    table: str
    cases: list[tuple[str, list["Stmt"]]]


Stmt = Union[Assign, VarDecl, If, CallStmt, ApplyTable, Exit, Switch]


# -- declarations ------------------------------------------------------------------------


@dataclass
class HeaderDecl:
    name: str
    fields: list[tuple[P4Type, str]]

    @property
    def bit_width(self) -> int:
        return sum(f.width for f, _ in self.fields if isinstance(f, BitType))


@dataclass
class StructDecl:
    name: str
    fields: list[tuple[P4Type, str]]


@dataclass
class SelectCase:
    keys: list[object]  # Num values, (lo, hi) ranges, "default"
    state: str


@dataclass
class ParserState:
    name: str
    statements: list[Stmt]
    transition: Union[str, "SelectTransition"]


@dataclass
class SelectTransition:
    exprs: list[Expr]
    cases: list[SelectCase]


@dataclass
class ParserDecl:
    name: str
    params: list[tuple[str, P4Type, str]]  # (direction, type, name)
    states: dict[str, ParserState]


@dataclass
class ActionDecl:
    name: str
    params: list[tuple[P4Type, str]]
    body: list[Stmt]


@dataclass
class TableEntry:
    keys: list[object]  # Num value, (lo, hi) range, (value, mask) ternary
    action: str
    args: list[int]
    priority: int = 0


@dataclass
class TableDecl:
    name: str
    keys: list[tuple[Expr, str]]  # (expr, match kind)
    actions: list[str]
    default_action: Optional[tuple[str, list[int]]] = None
    entries: list[TableEntry] = field(default_factory=list)
    size: int = 1024
    const_entries: bool = False


@dataclass
class RegisterDecl:
    name: str
    value_type: BitType
    index_type: P4Type
    size: int


@dataclass
class RegisterActionDecl:
    name: str
    register: str
    body: list[Stmt]
    value_param: str = "value"
    rv_param: Optional[str] = None


@dataclass
class HashDecl:
    name: str
    out_type: BitType
    algorithm: str


@dataclass
class RandomDecl:
    name: str
    out_type: BitType


@dataclass
class ControlDecl:
    name: str
    params: list[tuple[str, P4Type, str]]
    actions: dict[str, ActionDecl]
    tables: dict[str, TableDecl]
    registers: dict[str, RegisterDecl]
    register_actions: dict[str, RegisterActionDecl]
    hashes: dict[str, HashDecl]
    randoms: dict[str, RandomDecl]
    locals_: list[VarDecl]
    apply: list[Stmt]
    decl_order: list[tuple[str, str]] = field(default_factory=list)  # (kind, name)


@dataclass
class Program:
    typedefs: dict[str, P4Type]
    constants: dict[str, int]
    headers: dict[str, HeaderDecl]
    structs: dict[str, StructDecl]
    parsers: dict[str, ParserDecl]
    controls: dict[str, ControlDecl]
    #: the text this tree was parsed from, if any (not part of its meaning)
    source: str = field(default="", compare=False)
    #: generated Python per (parser, ingress, deparser), filled by
    #: :class:`repro.p4.compiled.P4Engine` at the first packet and shared by
    #: every engine over this program; lives here so it dies with the program.
    engine_code: dict = field(default_factory=dict, repr=False, compare=False)

    def control_named(self, *candidates: str) -> ControlDecl:
        for c in candidates:
            if c in self.controls:
                return self.controls[c]
        raise KeyError(f"none of {candidates} found; have {list(self.controls)}")
