"""AST for the NetCL C/C++ subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# -- source-level types --------------------------------------------------------


@dataclass(frozen=True)
class ScalarType:
    """A fundamental integer type, by width and signedness."""

    width: int
    signed: bool
    name: str = ""

    def __str__(self) -> str:
        return self.name or f"{'i' if self.signed else 'u'}{self.width}"


@dataclass(frozen=True)
class AutoType:
    """``auto``; resolved from the initializer during lowering."""


@dataclass(frozen=True)
class VoidSrcType:
    """``void`` (function results only)."""


@dataclass(frozen=True)
class LookupPairType:
    """``ncl::kv<K,V>`` or ``ncl::rv<R,V>`` (Table I lookup types)."""

    kind: str  # "kv" | "rv"
    key: ScalarType
    value: ScalarType


SrcType = Union[ScalarType, AutoType, VoidSrcType, LookupPairType]


# -- declarations ----------------------------------------------------------------


@dataclass
class Specifiers:
    """Accumulated NetCL declaration specifiers (Table I)."""

    kernel: Optional[int] = None  # _kernel(c)
    net: bool = False  # _net_
    managed: bool = False  # _managed_
    lookup: bool = False  # _lookup_
    at: Optional[tuple[int, ...]] = None  # _at(l, ...)
    static: bool = False
    const: bool = False

    @property
    def is_device(self) -> bool:
        return self.kernel is not None or self.net or self.managed or self.lookup


@dataclass
class Node:
    line: int = 0
    col: int = 0  # 1-based column of the node's first token (0 = unknown)


@dataclass
class Expr(Node):
    pass


@dataclass
class Num(Expr):
    value: int = 0


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class Member(Expr):
    """``base.field`` — used for the ``device.id`` / ``msg.src`` builtins."""

    base: str = ""
    field_name: str = ""


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Optional[Expr] = None
    prefix: bool = True  # for ++/--


@dataclass
class Binary(Expr):
    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class Assign(Expr):
    op: str = "="  # =, +=, -=, ...
    target: Optional[Expr] = None
    value: Optional[Expr] = None


@dataclass
class Ternary(Expr):
    cond: Optional[Expr] = None
    then: Optional[Expr] = None
    els: Optional[Expr] = None


@dataclass
class Call(Expr):
    """A function call; ``is_ncl`` marks ``ncl::`` (builtin) callees.

    ``template_args`` carries things like the output width of
    ``ncl::crc32<16>`` or the result type of ``ncl::rand<u8>``.
    """

    name: str = ""
    args: list[Expr] = field(default_factory=list)
    is_ncl: bool = False
    template_args: list[object] = field(default_factory=list)


@dataclass
class Index(Expr):
    base: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class InitList(Expr):
    items: list[Expr] = field(default_factory=list)


# -- statements --------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    """Variable declaration: global device memory or a function-local."""

    specs: Specifiers = field(default_factory=Specifiers)
    type: SrcType = field(default_factory=AutoType)
    name: str = ""
    dims: tuple[int, ...] = ()
    init: Optional[Expr] = None


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then: Optional[Stmt] = None
    els: Optional[Stmt] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


# -- functions ------------------------------------------------------------------------


@dataclass
class Param(Node):
    """A kernel or net-function parameter.

    ``byref`` for C++ references (message-visible updates), ``ptr`` for
    pointer parameters (always message field arrays, sized by ``spec``),
    ``dims`` for array declarators (``int x[3]`` — no decay in kernel
    declarations, §V-A).
    """

    type: SrcType = field(default_factory=AutoType)
    name: str = ""
    byref: bool = False
    ptr: bool = False
    spec: Optional[int] = None
    dims: tuple[int, ...] = ()
    #: _tail_ argument (§VIII extension): optional on the wire; senders
    #: may omit it and the device appends it to the message.
    tail: bool = False

    @property
    def is_array(self) -> bool:
        return self.ptr or bool(self.dims)

    @property
    def element_count(self) -> int:
        if self.dims:
            n = 1
            for d in self.dims:
                n *= d
            return n
        if self.ptr:
            return self.spec if self.spec is not None else 1
        return 1


@dataclass
class FuncDecl(Node):
    specs: Specifiers = field(default_factory=Specifiers)
    ret_type: SrcType = field(default_factory=VoidSrcType)
    name: str = ""
    params: list[Param] = field(default_factory=list)
    body: Optional[Block] = None


@dataclass
class Program(Node):
    decls: list[Union[VarDecl, FuncDecl]] = field(default_factory=list)

    def functions(self) -> list[FuncDecl]:
        return [d for d in self.decls if isinstance(d, FuncDecl)]

    def globals(self) -> list[VarDecl]:
        return [d for d in self.decls if isinstance(d, VarDecl)]
