"""Resource extraction: a P4 program -> :class:`PipelineSpec`, the one
reader for the handwritten baselines (Table V/VI) and the programs ``ncc``
builds (:mod:`repro.backends.p4tree`) alike.

A MAT is a logical table with its match kind and key width; a keyless
table an action run as a table, with no match memory; a ``RegisterAction``
a Register/SALU unit colocated with its peers over the same Register (the
SALU of the table whose action executes it); an ``if`` a gateway, while a
``switch`` on ``action_run`` needs none.  Action statements take VLIW
slots, a ``Hash.get`` a hash engine.  Dependencies come from the paths
each construct reads and writes, in program order (what a branch that
exits wrote reaches nothing): MATCH for keys, register indices and
conditions, ACTION for operands, CONTROL for a branch's tables.  A pure
action lists its predicate first, any other table last: the fitter
breaks ties between equally late producers by that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.p4 import ast
from repro.tofino.tables import DependencyKind, LogicalTable, MatchKind, PipelineSpec

_MATCH_KINDS = {"exact": MatchKind.EXACT, "ternary": MatchKind.TERNARY, "lpm": MatchKind.LPM,
                "range": MatchKind.RANGE}
_TCAM_RANK = {MatchKind.NONE: 0, MatchKind.EXACT: 1, MatchKind.LPM: 2, MatchKind.RANGE: 3,
              MatchKind.TERNARY: 4}
MATCH, ACTION, CONTROL = DependencyKind.MATCH, DependencyKind.ACTION, DependencyKind.CONTROL


def _expr_reads(
    e: Optional[ast.Expr], out: Optional[set[str]] = None, calls: Optional[list] = None
) -> set[str]:
    """Field paths an expression reads (dotted strings); its ``execute``
    calls are appended to ``calls``, outermost first."""
    if out is None:
        out = set()
    kind = type(e)
    if kind is ast.Path:
        out.add(".".join(e.parts))
        return out
    if kind is ast.Binary:
        subs: tuple = (e.left, e.right)
    elif kind is ast.CastExpr or kind is ast.Unary:
        subs = (e.value,)
    elif kind is ast.Ternary:
        subs = (e.cond, e.then, e.els)
    elif kind is ast.MethodCall:
        if calls is not None and e.method == "execute":
            calls.append(e)
        subs = e.args
    elif kind is ast.Slice:
        subs = (e.base,)
    elif kind is ast.TupleExpr:
        subs = e.items
    else:
        return out
    for sub in subs:  # a leaf without a call
        kind = type(sub)
        if kind is ast.Path:
            out.add(".".join(sub.parts))
        elif kind is not ast.Num:
            _expr_reads(sub, out, calls)
    return out


def _stmt_ops(stmts: list[ast.Stmt]) -> int:
    """VLIW slots an action body needs (1 per primitive statement)."""
    n = 0
    for s in stmts:
        if isinstance(s, (ast.Assign, ast.VarDecl, ast.CallStmt)):
            n += 1
        elif isinstance(s, ast.If):
            n += 1 + _stmt_ops(s.then) + _stmt_ops(s.els or [])
    return max(n, 1)


def _stmt_writes(stmts: list[ast.Stmt], out: set[str]) -> set[str]:
    """Add the paths ``stmts`` assign to ``out``."""
    for s in stmts:
        kind = type(s)
        if kind is ast.Assign:
            t = s.target.base if type(s.target) is ast.Slice else s.target
            if type(t) is ast.Path:
                out.add(".".join(t.parts))
        elif kind is ast.If:
            _stmt_writes(s.then, out)
            _stmt_writes(s.els or [], out)
    return out


def _value(s: ast.Stmt) -> Optional[ast.Expr]:
    if isinstance(s, ast.Assign):
        return s.value
    if isinstance(s, ast.VarDecl):
        return s.init
    return s.call if isinstance(s, ast.CallStmt) else None


def _is_simple_copy(e) -> bool:
    """Path, cast-of-path, or constant — a pure PHV copy."""
    if isinstance(e, (ast.Path, ast.Num)):
        return True
    if isinstance(e, (ast.CastExpr, ast.Slice)):
        return _is_simple_copy(e.value if isinstance(e, ast.CastExpr) else e.base)
    return False


@dataclass
class _Walk:
    spec: PipelineSpec
    ctrl: ast.ControlDecl
    prog: ast.Program
    #: path -> the logical tables a read of it depends on
    writer: dict[str, set[str]] = field(default_factory=dict)
    counter: int = 0
    reg_anchor: dict[str, str] = field(default_factory=dict)
    #: bit width of every named field and local a key may read
    widths: dict[str, int] = field(default_factory=dict)
    #: the control's locals: a read of one depends on every table that
    #: assigned it before, a field only on the last one
    locals: set[str] = field(default_factory=set)
    #: the MATs already added (a table applied again adds nothing)
    applied: set[str] = field(default_factory=set)
    #: provenance of the tables being added: the control, or the action
    #: whose ``switch`` case holds them (a NetCL kernel)
    origin: str = ""
    #: the control's overlaid data section (a NetCL kernel's arguments):
    #: read in place, a write to it gives no later reader a dependency
    overlaid: set[str] = field(default_factory=set)
    #: (path, its writers before) per change of ``writer``, newest last
    journal: list[tuple[str, Optional[set[str]]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.origin = self.ctrl.name
        for struct in self.prog.structs.values():
            for ty, fname in struct.fields:
                decl = self.prog.headers.get(getattr(ty, "name", ""))
                for fty, f in decl.fields if decl else []:
                    self.widths[f"{fname}.{f}"] = getattr(fty, "width", 32)
                if isinstance(ty, ast.BitType):
                    self.widths[fname] = ty.width
        for v in self.ctrl.locals_:
            self.locals.add(v.name)
            self.widths[v.name] = getattr(v.type, "width", 32)

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{self.ctrl.name}_{stem}_{self.counter}"

    def width(self, e: ast.Expr) -> int:
        """Bits a key expression matches on (32 when not declared)."""
        if isinstance(e, ast.CastExpr) and isinstance(e.to, ast.BitType):
            return e.to.width
        if isinstance(e, ast.Slice):
            return e.hi - e.lo + 1
        if isinstance(e, ast.Path):
            parts = e.parts
            return self.widths.get(".".join(parts[-2:]), self.widths.get(parts[-1], 32))
        return 32

    def table(self, stem: str, **resources) -> LogicalTable:
        return self.spec.add(LogicalTable(self.fresh(stem), origin=self.origin, **resources))

    def depend(self, table: LogicalTable, reads: set[str], kind: DependencyKind) -> None:
        for path in sorted(reads & self.writer.keys()):
            for producer in sorted(self.writer[path]):
                table.add_dep(producer, kind)

    def wrote(self, path: str, table: Optional[str]) -> None:
        """``table`` wrote ``path`` (None: nothing did); the sets in
        ``writer`` are replaced, never changed, so the journal can undo."""
        if path.partition(".")[0] in self.overlaid:
            return
        before = self.writer.get(path)
        self.journal.append((path, before))
        if table is None:
            self.writer.pop(path, None)
        else:
            self.writer[path] = before | {table} if before and path in self.locals else {table}

    def register_unit(self, tbl: LogicalTable, call: ast.MethodCall) -> None:
        """Give ``tbl`` the SALU and storage of the Register ``call`` runs
        (or colocate it with the Register's first table), and the
        dependencies of its index and operands."""
        ra = self.ctrl.register_actions[call.target.parts[-1]]
        reg = self.ctrl.registers[ra.register]
        anchor = self.reg_anchor.get(ra.register)
        if anchor is None:
            tbl.register_bits += reg.value_type.width * reg.size
            tbl.salus += 1
            self.reg_anchor[ra.register] = tbl.name
        else:
            tbl.colocate = anchor
        if call.args:
            self.depend(tbl, _expr_reads(call.args[0]), MATCH)
        # value operands read inside the microprogram
        reads: set[str] = set()
        for s in ra.body:
            _expr_reads(s.value if isinstance(s, ast.Assign) else getattr(s, "cond", None), reads)
        self.depend(tbl, reads, ACTION)

    def register_tables(self, calls: list[ast.MethodCall], stmt: ast.Stmt, ctx: list[str]) -> None:
        """A table per ``RegisterAction`` the apply-level ``stmt`` executes."""
        for call in calls:
            ra = self.ctrl.register_actions.get(call.target.parts[-1])
            if ra is None:
                continue
            tbl = self.table(f"reg_{ra.register}", vliw_slots=_stmt_ops(ra.body))
            self.register_unit(tbl, call)
            if ctx:
                tbl.add_dep(ctx[-1], CONTROL)
            # the result lands wherever the surrounding statement writes
            if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Path):
                self.wrote(str(stmt.target), tbl.name)
            elif isinstance(stmt, ast.VarDecl):
                self.wrote(stmt.name, tbl.name)

    # -- apply-block walk -----------------------------------------------------------
    def walk(self, stmts: list[ast.Stmt], ctx: list[str]) -> bool:
        """Walk ``stmts``; True when every path through them exits."""
        for s in stmts:
            if isinstance(s, ast.ApplyTable):
                self.mat(s.table, ctx)
            elif isinstance(s, ast.If):
                gw = self.table("gw", is_gateway=True, key_bits=1)
                self.depend(gw, _expr_reads(s.cond), MATCH)
                if ctx:
                    gw.add_dep(ctx[-1], CONTROL)
                self.tables_in(s.cond, ctx)  # tables applied within the condition
                if self.alternatives([s.then, s.els or []], ctx + [gw.name]):
                    return True
            elif isinstance(s, ast.Switch):
                table = self.mat(s.table, ctx)
                exits = True
                for label, body in s.cases:
                    outer, self.origin = self.origin, label
                    exits = self.alternatives([body], ctx + [table]) and exits
                    self.origin = outer
                if exits and any(label == "default" for label, _ in s.cases):
                    return True
            elif isinstance(s, (ast.Assign, ast.VarDecl)):
                self.action_stmt(s, ctx)
            elif isinstance(s, ast.CallStmt):
                calls: list[ast.MethodCall] = []
                _expr_reads(s.call, None, calls)
                self.register_tables(calls, s, ctx)
            elif isinstance(s, ast.Exit):
                return True
        return False

    def alternatives(self, bodies: list[list[ast.Stmt]], ctx: list[str]) -> bool:
        """Walk the bodies one after the other; what a body that exits
        wrote reaches nothing after it.  True when every body exits."""
        exits = True
        for body in bodies:
            mark = len(self.journal)
            if not self.walk(body, ctx):
                exits = False
                continue
            while len(self.journal) > mark:
                path, before = self.journal.pop()
                if before is None:
                    self.writer.pop(path, None)
                else:
                    self.writer[path] = before
        return exits

    def tables_in(self, e: ast.Expr, ctx: list[str]) -> None:
        if isinstance(e, ast.ApplyResult):
            self.mat(e.table, ctx)
        elif isinstance(e, ast.Binary):
            self.tables_in(e.left, ctx)
            self.tables_in(e.right, ctx)
        elif isinstance(e, (ast.Unary, ast.CastExpr)):
            self.tables_in(e.value, ctx)

    def mat(self, name: str, ctx: list[str]) -> str:
        decl = self.ctrl.tables.get(name)
        tname = f"{self.ctrl.name}_{name}"
        if decl is None or tname in self.applied:
            return tname
        self.applied.add(tname)
        tbl = LogicalTable(tname, origin=self.origin)
        calls: list[ast.MethodCall] = []
        reads: set[str] = set()
        writes: set[str] = set()
        for a in (self.ctrl.actions[n] for n in decl.actions if n in self.ctrl.actions):
            params = {p for _, p in a.params} if a.params else set()
            if params:
                tbl.value_bits = max(tbl.value_bits, sum(getattr(t, "width", 0) for t, _ in a.params))
            own: set[str] = set()
            slots = hashes = 0
            for s in a.body:
                kind = type(s)
                if kind is ast.Assign:
                    value = s.value
                elif kind is ast.VarDecl:
                    value = s.init
                    params.add(s.name)  # action-local
                elif kind is ast.If:
                    slots += 1 + _stmt_ops(s.then) + _stmt_ops(s.els or [])
                    _expr_reads(s.cond, own)
                    continue
                else:
                    value = _value(s)
                if value is None:
                    continue
                if type(value) is ast.MethodCall and value.method == "get" and (
                    value.target.parts[-1] in self.ctrl.hashes
                ):
                    hashes += 1
                else:
                    slots += 1
                _expr_reads(value, own, calls)
            reads |= own - params
            _stmt_writes(a.body, writes)
            if decl.keys:
                tbl.vliw_slots = max(tbl.vliw_slots, _stmt_ops(a.body))
            else:  # an action run as a table: no match memory
                tbl.vliw_slots = max(tbl.vliw_slots, slots)
                tbl.hash_engines = max(tbl.hash_engines, hashes)
        calls = [c for c in calls if c.target.parts[-1] in self.ctrl.register_actions]
        if decl.keys:
            kinds = [MatchKind.EXACT] + [_MATCH_KINDS.get(mk, MatchKind.EXACT) for _, mk in decl.keys]
            tbl.match_kind = max(kinds, key=_TCAM_RANK.get)
            tbl.key_bits = sum(self.width(expr) for expr, _ in decl.keys)
            tbl.entries = max(decl.size, len(decl.entries))
            tbl.vliw_slots = max(tbl.vliw_slots, 1)
        self.spec.add(tbl)
        pure_action = not decl.keys and not calls
        if pure_action and ctx:
            tbl.add_dep(ctx[-1], CONTROL)
        for expr, _ in decl.keys:
            self.depend(tbl, _expr_reads(expr), MATCH)
        for call in calls:
            self.register_unit(tbl, call)
        self.depend(tbl, reads, ACTION)
        if ctx and not pure_action:
            tbl.add_dep(ctx[-1], CONTROL)
        for path in writes:
            self.wrote(path, tbl.name)
        return tname

    def action_stmt(self, s, ctx: list[str]) -> None:
        value = s.value if isinstance(s, ast.Assign) else s.init
        calls: list[ast.MethodCall] = []
        reads = _expr_reads(value, None, calls)
        target = s.target if isinstance(s, ast.Assign) else None
        name = str(target) if isinstance(target, ast.Path) else getattr(s, "name", None)
        # A plain copy/cast of header or metadata fields never written by a
        # table is a PHV alias: consumers read the original field directly,
        # no MAU pass needed.
        if not any(p in self.writer for p in reads) and _is_simple_copy(value):
            if name is not None:
                self.wrote(name, None)
            return
        tbl = self.table("act", vliw_slots=1)
        self.depend(tbl, reads, ACTION)
        if ctx:
            tbl.add_dep(ctx[-1], CONTROL)
        if name is not None:
            self.wrote(name, tbl.name)
        self.register_tables(calls, s, ctx)


def _ingress(program: ast.Program, ingress: Optional[str]) -> ast.ControlDecl:
    if ingress is not None:
        return program.controls[ingress]
    return program.control_named("Ingress", "MyIngress", "SwitchIngress")


def p4_to_pipeline_spec(
    program: ast.Program, *, name: str = "p4", ingress: Optional[str] = None
) -> PipelineSpec:
    """Lower a P4 program to a pipeline spec for the fitter.

    Headers: those of the parser's first ``out`` struct are parsed by
    every packet of the program and each occupies its own PHV field.  A
    further ``out`` struct holds alternatives (a NetCL data section, one
    computation's arguments per packet): they overlay, so only the widest
    takes PHV, and they are not charged to parser latency.
    """
    spec = PipelineSpec(name)
    ctrl = _ingress(program, ingress)
    outs = [None]
    for parser in list(program.parsers.values())[:1]:
        outs = [ty.name for direction, ty, _ in parser.params
                if direction == "out" and getattr(ty, "name", None) in program.structs]
    overlaid = {p for _, ty, p in ctrl.params if getattr(ty, "name", None) in outs[1:]}
    _Walk(spec, ctrl, program, overlaid=overlaid).walk(ctrl.apply, [])
    fixed, *alternatives = [
        [program.headers[t.name] for t, _ in program.structs[out].fields if getattr(t, "name", None) in program.headers]
        if out else list(program.headers.values())
        for out in outs
    ]
    spec.header_fields = [h.bit_width for h in fixed]
    spec.parsed_bytes = max(spec.parsed_bytes, sum(spec.header_fields) // 8)
    spec.header_fields += [max(h.bit_width for h in hs) for hs in alternatives if hs]
    spec.metadata_fields = [
        ty.width for s in program.structs.values() for ty, _ in s.fields if isinstance(ty, ast.BitType)
    ]
    return spec


def p4_local_bits(
    program: ast.Program, ingress: Optional[str] = None, names: Optional[set[str]] = None
) -> int:
    """Total bits of control-local variables (Table VI 'Local Vars'), or
    of the ones in ``names``."""
    return sum(
        getattr(v.type, "width", 1)
        for v in _ingress(program, ingress).locals_
        if names is None or v.name in names
    )
