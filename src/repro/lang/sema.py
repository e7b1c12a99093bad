"""Semantic analysis for NetCL programs.

Enforces the declaration-level rules of §V:

* memory-class validity (``_lookup_`` requires kv/rv or scalar set arrays,
  register memory is zero-initialized, ...);
* placement validity of kernels — Eq. (1);
* reference validity of net functions and memory w.r.t. location — Eq. (2);
* kernel specification matching across kernels of one computation;
* no recursion among net functions, no host-library calls in device code.

Expression-level typing is completed during lowering
(:mod:`repro.lang.lower`), which has the full symbol context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.lang import ast
from repro.lang import builtins as bi
from repro.lang.errors import CompileError, Diagnostic
from repro.lang.parser import _eval_const
from repro.ir.module import LookupEntry, LookupKind, MemSpace
from repro.ir.types import ArrayShape, IntType, int_type


@dataclass
class GlobalInfo:
    """Resolved form of a global device-memory declaration."""

    decl: ast.VarDecl
    elem: IntType
    shape: ArrayShape
    space: MemSpace
    locations: frozenset[int]
    lookup_kind: Optional[LookupKind] = None
    key_type: Optional[IntType] = None
    value_type: Optional[IntType] = None
    entries: list[LookupEntry] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.decl.name


@dataclass
class FuncInfo:
    """Resolved form of a kernel or net-function declaration."""

    decl: ast.FuncDecl
    locations: frozenset[int]
    computation: Optional[int]
    uses_globals: set[str] = field(default_factory=set)
    uses_netfns: set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def is_kernel(self) -> bool:
        return self.computation is not None


@dataclass
class SemaResult:
    program: ast.Program
    globals: dict[str, GlobalInfo]
    functions: dict[str, FuncInfo]
    host_functions: set[str]


def _loc(specs: ast.Specifiers) -> frozenset[int]:
    return frozenset(specs.at) if specs.at else frozenset()


def _scalar_ir_type(ty: ast.ScalarType) -> IntType:
    return int_type(ty.width, ty.signed)


class _Analyzer:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.diags: list[Diagnostic] = []
        self.globals: dict[str, GlobalInfo] = {}
        self.functions: dict[str, FuncInfo] = {}
        self.host_functions: set[str] = set()

    def error(self, msg: str, line: int = 0) -> None:
        self.diags.append(Diagnostic(msg, line))

    # -- entry ----------------------------------------------------------------
    def run(self) -> SemaResult:
        for decl in self.program.globals():
            self.check_global(decl)
        for decl in self.program.functions():
            self.check_function_decl(decl)
        for info in self.functions.values():
            self.collect_uses(info)
        self.check_kernel_placement()
        self.check_specifications()
        self.check_reference_validity()
        self.check_recursion()
        if self.diags:
            raise CompileError(self.diags)
        return SemaResult(self.program, self.globals, self.functions, self.host_functions)

    # -- globals --------------------------------------------------------------
    def check_global(self, decl: ast.VarDecl) -> None:
        specs = decl.specs
        if not specs.is_device:
            # Host-side global: irrelevant to device compilation.
            return
        if decl.name in self.globals:
            self.error(f"duplicate global declaration '{decl.name}'", decl.line)
            return
        if specs.kernel is not None:
            self.error(f"_kernel may only annotate functions ('{decl.name}')", decl.line)
            return
        if specs.lookup:
            space = MemSpace.MANAGED_LOOKUP if specs.managed else MemSpace.LOOKUP
        elif specs.managed:
            space = MemSpace.MANAGED
        else:
            space = MemSpace.NET

        if isinstance(decl.type, ast.LookupPairType):
            if not specs.lookup:
                self.error(
                    f"kv/rv types are only allowed as _lookup_ arrays ('{decl.name}')",
                    decl.line,
                )
                return
            if len(decl.dims) != 1:
                self.error(
                    f"_lookup_ memory must be a one-dimensional array ('{decl.name}')",
                    decl.line,
                )
                return
            kind = LookupKind.KV if decl.type.kind == "kv" else LookupKind.RV
            key_t = _scalar_ir_type(decl.type.key)
            val_t = _scalar_ir_type(decl.type.value)
            entries = self._lookup_entries(decl, kind, key_t, val_t)
            self.globals[decl.name] = GlobalInfo(
                decl,
                elem=val_t,
                shape=ArrayShape(decl.dims),
                space=space,
                locations=_loc(specs),
                lookup_kind=kind,
                key_type=key_t,
                value_type=val_t,
                entries=entries,
            )
            return

        if not isinstance(decl.type, ast.ScalarType):
            self.error(f"global '{decl.name}' must have integer element type", decl.line)
            return
        elem = _scalar_ir_type(decl.type)
        if specs.lookup:
            if len(decl.dims) != 1:
                self.error(
                    f"_lookup_ memory must be a one-dimensional array ('{decl.name}')",
                    decl.line,
                )
                return
            entries = self._lookup_entries(decl, LookupKind.SET, elem, None)
            self.globals[decl.name] = GlobalInfo(
                decl,
                elem=elem,
                shape=ArrayShape(decl.dims),
                space=space,
                locations=_loc(specs),
                lookup_kind=LookupKind.SET,
                key_type=elem,
                value_type=None,
                entries=entries,
            )
            return

        if decl.init is not None:
            self.error(
                f"global register memory is zero-initialized; '{decl.name}' may "
                "not have an initializer (use _lookup_ for static entries)",
                decl.line,
            )
        self.globals[decl.name] = GlobalInfo(
            decl,
            elem=elem,
            shape=ArrayShape(decl.dims),
            space=space,
            locations=_loc(specs),
        )

    def _lookup_entries(
        self,
        decl: ast.VarDecl,
        kind: LookupKind,
        key_t: IntType,
        val_t: Optional[IntType],
    ) -> list[LookupEntry]:
        entries: list[LookupEntry] = []
        if decl.init is None:
            return entries
        if not isinstance(decl.init, ast.InitList):
            self.error(f"lookup array '{decl.name}' initializer must be a list", decl.line)
            return entries
        for item in decl.init.items:
            entry = self._lookup_entry(decl, kind, item)
            if entry is not None:
                entries.append(entry)
        if decl.dims and len(entries) > decl.dims[0]:
            self.error(
                f"lookup array '{decl.name}' has {len(entries)} entries but "
                f"capacity {decl.dims[0]}",
                decl.line,
            )
        return entries

    def _lookup_entry(self, decl, kind: LookupKind, item: ast.Expr) -> Optional[LookupEntry]:
        if kind == LookupKind.SET:
            v = _eval_const(item)
            if v is None:
                self.error(f"non-constant entry in lookup set '{decl.name}'", item.line)
                return None
            return LookupEntry(v, v, None)
        if kind == LookupKind.KV:
            if not isinstance(item, ast.InitList) or len(item.items) != 2:
                self.error(f"kv entry in '{decl.name}' must be {{key, value}}", item.line)
                return None
            k, v = _eval_const(item.items[0]), _eval_const(item.items[1])
            if k is None or v is None:
                self.error(f"non-constant kv entry in '{decl.name}'", item.line)
                return None
            return LookupEntry(k, k, v)
        # RV: { {lo, hi}, value }
        if (
            not isinstance(item, ast.InitList)
            or len(item.items) != 2
            or not isinstance(item.items[0], ast.InitList)
            or len(item.items[0].items) != 2
        ):
            self.error(f"rv entry in '{decl.name}' must be {{{{lo, hi}}, value}}", item.line)
            return None
        lo = _eval_const(item.items[0].items[0])
        hi = _eval_const(item.items[0].items[1])
        v = _eval_const(item.items[1])
        if lo is None or hi is None or v is None:
            self.error(f"non-constant rv entry in '{decl.name}'", item.line)
            return None
        if lo > hi:
            self.error(f"rv entry in '{decl.name}' has lo > hi", item.line)
            return None
        return LookupEntry(lo, hi, v)

    # -- functions --------------------------------------------------------------
    def check_function_decl(self, decl: ast.FuncDecl) -> None:
        specs = decl.specs
        if specs.kernel is None and not specs.net:
            self.host_functions.add(decl.name)
            return
        if decl.name in self.functions:
            self.error(f"duplicate device function '{decl.name}'", decl.line)
            return
        if specs.lookup or specs.managed:
            self.error(
                f"_lookup_/_managed_ may only annotate memory ('{decl.name}')", decl.line
            )
        if specs.kernel is not None:
            if not isinstance(decl.ret_type, ast.VoidSrcType):
                self.error(f"kernel '{decl.name}' must return void", decl.line)
            for p in decl.params:
                if isinstance(p.type, ast.VoidSrcType):
                    self.error(
                        f"kernel '{decl.name}' argument '{p.name}' may not be void "
                        "(§V-A: fundamental types except void)",
                        p.line,
                    )
                if isinstance(p.type, (ast.LookupPairType, ast.AutoType)):
                    self.error(
                        f"kernel '{decl.name}' argument '{p.name}' must have a "
                        "fundamental type",
                        p.line,
                    )
                if p.spec is not None and not p.ptr:
                    self.error(
                        f"_spec only applies to pointer arguments "
                        f"('{p.name}' of kernel '{decl.name}')",
                        p.line,
                    )
            for i, p in enumerate(decl.params):
                if p.tail and i != len(decl.params) - 1:
                    self.error(
                        f"_tail_ may only annotate the last kernel argument "
                        f"('{p.name}' of kernel '{decl.name}')",
                        p.line,
                    )
                if p.tail and not (p.is_array or p.byref):
                    self.error(
                        f"_tail_ arguments must be by-reference or arrays: "
                        f"the device appends them to the message "
                        f"('{p.name}' of kernel '{decl.name}')",
                        p.line,
                    )
        else:  # net function: _spec has no meaning and is ignored (§V-A)
            for p in decl.params:
                if p.spec is not None:
                    p.spec = None
        self.functions[decl.name] = FuncInfo(
            decl,
            locations=_loc(specs),
            computation=specs.kernel,
        )

    # -- use collection ------------------------------------------------------------
    def collect_uses(self, info: FuncInfo) -> None:
        if info.decl.body is None:
            return
        param_names = {p.name for p in info.decl.params}
        for expr, line in _walk_exprs(info.decl.body):
            if isinstance(expr, ast.Ident):
                if expr.name in self.globals:
                    info.uses_globals.add(expr.name)
            elif isinstance(expr, ast.Call) and not expr.is_ncl:
                if expr.name in ("__cast__", "lookup"):
                    continue  # bare lookup() is accepted as the builtin
                if expr.name in param_names:
                    continue
                if expr.name in self.functions:
                    callee = self.functions[expr.name]
                    if callee.is_kernel:
                        self.error(
                            f"kernels are not invoked directly; '{info.name}' calls "
                            f"kernel '{expr.name}' (§V-A)",
                            line,
                        )
                    else:
                        info.uses_netfns.add(expr.name)
                elif expr.name in self.host_functions:
                    self.error(
                        f"device code may not call host function '{expr.name}'", line
                    )
                else:
                    self.error(f"call to undeclared function '{expr.name}'", line)
            elif isinstance(expr, ast.Call) and expr.is_ncl:
                if expr.name in bi.HOST_ONLY:
                    self.error(
                        f"ncl::{expr.name} is part of the host library and cannot "
                        "be used in device code",
                        line,
                    )
                elif not bi.is_builtin(expr.name) and expr.name not in bi.PURE_BUILTINS:
                    self.error(f"unknown builtin ncl::{expr.name}", line)

    # -- Eq. (1): kernel placement validity ----------------------------------------
    def check_kernel_placement(self) -> None:
        by_comp: dict[int, list[FuncInfo]] = {}
        for info in self.functions.values():
            if info.is_kernel:
                by_comp.setdefault(info.computation, []).append(info)  # type: ignore[arg-type]
        for comp, kernels in by_comp.items():
            if len(kernels) == 1:
                continue
            for k in kernels:
                if not k.locations:
                    self.error(
                        f"kernel '{k.name}' of computation {comp} is location-less "
                        f"but computation {comp} has {len(kernels)} kernels "
                        "(placement validity, Eq. 1)",
                        k.decl.line,
                    )
            placed = [k for k in kernels if k.locations]
            for i, a in enumerate(placed):
                for b in placed[i + 1 :]:
                    overlap = a.locations & b.locations
                    if overlap:
                        self.error(
                            f"kernels '{a.name}' and '{b.name}' of computation "
                            f"{comp} overlap at location(s) "
                            f"{sorted(overlap)} (placement validity, Eq. 1)",
                            b.decl.line,
                        )

    # -- kernel specification matching (§V-A) ------------------------------------------
    def check_specifications(self) -> None:
        by_comp: dict[int, list[FuncInfo]] = {}
        for info in self.functions.values():
            if info.is_kernel:
                by_comp.setdefault(info.computation, []).append(info)  # type: ignore[arg-type]
        for comp, kernels in by_comp.items():
            specs = {k.name: _kernel_spec(k.decl) for k in kernels}
            distinct = set(specs.values())
            if len(distinct) > 1:
                pretty = "; ".join(f"{n}: {s}" for n, s in specs.items())
                self.error(
                    f"kernels of computation {comp} have mismatched "
                    f"specifications ({pretty})",
                    kernels[0].decl.line,
                )

    # -- Eq. (2): reference validity w.r.t. location ---------------------------------------
    def check_reference_validity(self) -> None:
        for info in self.functions.values():
            for gname in sorted(info.uses_globals):
                self._check_ref(info, gname, self.globals[gname].locations, "memory")
            for fname in sorted(info.uses_netfns):
                self._check_ref(info, fname, self.functions[fname].locations, "net function")

    def _check_ref(self, user: FuncInfo, name: str, decl_loc: frozenset[int], kind: str) -> None:
        # LOC(d) == empty set means placed everywhere: always valid.
        if not decl_loc:
            return
        # A location-less user is compiled for every device; it may only
        # reference declarations that are also everywhere.
        if not user.locations or not user.locations <= decl_loc:
            user_desc = (
                f"{{{','.join(map(str, sorted(user.locations)))}}}"
                if user.locations
                else "all locations"
            )
            self.error(
                f"'{user.name}' (at {user_desc}) references {kind} '{name}' "
                f"placed only at {{{','.join(map(str, sorted(decl_loc)))}}} "
                "(reference validity, Eq. 2)",
                user.decl.line,
            )

    # -- recursion / call-graph checks (§V-D) ----------------------------------------------
    def check_recursion(self) -> None:
        visiting: set[str] = set()
        done: set[str] = set()

        def visit(name: str, chain: list[str]) -> None:
            if name in done:
                return
            if name in visiting:
                cycle = " -> ".join(chain + [name])
                self.error(
                    f"recursion is not supported in device code: {cycle} (§V-D)",
                    self.functions[name].decl.line,
                )
                return
            visiting.add(name)
            for callee in sorted(self.functions[name].uses_netfns):
                visit(callee, chain + [name])
            visiting.discard(name)
            done.add(name)

        for fname in list(self.functions):
            visit(fname, [])


def _kernel_spec(decl: ast.FuncDecl) -> tuple[tuple[int, str], ...]:
    """The kernel specification: (element count, type) per argument (§V-A)."""
    out: list[tuple] = []
    for p in decl.params:
        tyname = str(p.type)
        if p.tail:
            out.append((p.element_count, tyname, "tail"))
        else:
            out.append((p.element_count, tyname))
    return tuple(out)


def _walk_exprs(node) -> Iterator[tuple[ast.Expr, int]]:
    """Yield every expression in a statement tree with its source line."""
    if node is None:
        return
    if isinstance(node, ast.Block):
        for s in node.stmts:
            yield from _walk_exprs(s)
    elif isinstance(node, ast.If):
        yield from _walk_exprs(node.cond)
        yield from _walk_exprs(node.then)
        yield from _walk_exprs(node.els)
    elif isinstance(node, ast.For):
        yield from _walk_exprs(node.init)
        yield from _walk_exprs(node.cond)
        yield from _walk_exprs(node.step)
        yield from _walk_exprs(node.body)
    elif isinstance(node, ast.Return):
        yield from _walk_exprs(node.value)
    elif isinstance(node, ast.ExprStmt):
        yield from _walk_exprs(node.expr)
    elif isinstance(node, ast.VarDecl):
        yield from _walk_exprs(node.init)
    elif isinstance(node, ast.Expr):
        yield node, node.line
        for child in _expr_children(node):
            yield from _walk_exprs(child)


def _expr_children(expr: ast.Expr) -> list[Optional[ast.Expr]]:
    if isinstance(expr, ast.Unary):
        return [expr.operand]
    if isinstance(expr, ast.Binary):
        return [expr.left, expr.right]
    if isinstance(expr, ast.Assign):
        return [expr.target, expr.value]
    if isinstance(expr, ast.Ternary):
        return [expr.cond, expr.then, expr.els]
    if isinstance(expr, ast.Call):
        return list(expr.args)
    if isinstance(expr, ast.Index):
        return [expr.base, expr.index]
    if isinstance(expr, ast.InitList):
        return list(expr.items)
    return []


def analyze(program: ast.Program) -> SemaResult:
    """Run semantic analysis; raises :class:`CompileError` on violations."""
    return _Analyzer(program).run()
