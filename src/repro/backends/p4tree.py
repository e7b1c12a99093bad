"""NetCL IR -> one complete P4 program, as a :class:`repro.p4.ast.Program`
(§VI-B, §VI-C), in the convention :class:`repro.p4.switch.P4NetCLSwitchDevice`
runs (DESIGN.md, "The generated P4 program").  Which table a statement
lands in, and which values escape their table into the PHV, follow
§VI-B's resource rules: straight-line instructions share an action of at
most :data:`MAX_ACTION_OPS` statements, each Register access and lookup
is its own table, and a store of a Register or MAT result rides in the
table that produced it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.ir import instructions as ir
from repro.ir.instructions import ActionKind, AtomicOp, BinOpKind, ICmpPred, Value
from repro.ir.module import Function, GlobalVar, LookupKind
from repro.ir.types import IntType
from repro.p4 import ast
from repro.passes.structurize import IfNode, LeafNode, PredDecls, PredUpdate, SeqNode
from repro.runtime.constants import FWD_DEVICE, FWD_DROP, FWD_HOST, FWD_MCAST, NETCL_PORT
from repro.runtime.message import ACT_CODES, NO_DEVICE

#: Maximum statements per generated action.  A VLIW action executes in one
#: stage, so a single action may never exceed the per-stage instruction
#: budget; bf-p4c splits oversized actions and so do we.
MAX_ACTION_OPS = 16

PARSER, INGRESS, DEPARSER = "IngressParser", "NetCLIngress", "IngressDeparser"

_HASHES = {"ncl.crc16": "CRC16", "ncl.crc32": "CRC32", "ncl.crc64": "CRC64",
           "ncl.xor16": "XOR16", "ncl.identity": "IDENTITY"}
_BINOPS = {
    BinOpKind.ADD: "+", BinOpKind.SUB: "-", BinOpKind.MUL: "*", BinOpKind.AND: "&",
    BinOpKind.OR: "|", BinOpKind.XOR: "^", BinOpKind.LSHR: ">>", BinOpKind.SADDU: "|+|",
    BinOpKind.SSUBU: "|-|", BinOpKind.UDIV: "/", BinOpKind.UREM: "%",
}
_ICMPS = {ICmpPred.EQ: "==", ICmpPred.NE: "!=", ICmpPred.ULT: "<", ICmpPred.ULE: "<=",
          ICmpPred.UGT: ">", ICmpPred.UGE: ">=", ICmpPred.SLT: "<", ICmpPred.SLE: "<=",
          ICmpPred.SGT: ">", ICmpPred.SGE: ">="}
_ATOMICS = {AtomicOp.ADD: "+", AtomicOp.SUB: "-", AtomicOp.AND: "&", AtomicOp.OR: "|",
            AtomicOp.XOR: "^"}

#: (instance, [(width, field)], select field, value, next state)
_BASE_HEADERS = [
    ("ethernet", [(48, "dst_addr"), (48, "src_addr"), (16, "ether_type")],
     "ether_type", 0x0800, "parse_ipv4"),
    ("ipv4", [(4, "version"), (4, "ihl"), (8, "diffserv"), (16, "total_len"),
              (16, "identification"), (16, "flags_frag"), (8, "ttl"), (8, "protocol"),
              (16, "hdr_checksum"), (32, "src_addr"), (32, "dst_addr")],
     "protocol", 17, "parse_udp"),
    ("udp", [(16, "src_port"), (16, "dst_port"), (16, "length"), (16, "checksum")],
     "dst_port", NETCL_PORT, "parse_netcl"),
    ("netcl", [(16, "src"), (16, "dst"), (16, "from_"), (16, "to"), (8, "comp"),
               (8, "act"), (16, "len")], "comp", None, None),
]
#: the base program's (ports, L2 group, learn flags) and the runtime's
#: (forwarding decision and target, the kernel's exit target, previous
#: hop, computed flag) metadata
_METADATA = [(9, "ingress_port"), (9, "egress_port"), (16, "l2_mcast"), (3, "l2_flags"),
             (8, "fwd_kind"), (16, "fwd_target"), (16, "ncl_target"), (16, "ncl_prev"),
             (4, "computed")]
#: declaration kind -> the :class:`ast.ControlDecl` field holding it
_DECLS = {"action": "actions", "table": "tables", "register": "registers",
          "register_action": "register_actions", "hash": "hashes", "random": "randoms"}

_bit = functools.lru_cache(maxsize=None)(ast.BitType)
_num = functools.lru_cache(maxsize=4096)(ast.Num)
#: a RegisterAction's parameters: the stored value and the one returned
_MEM, _RV = ast.Path(("mem",)), ast.Path(("rv",))


def _path(*parts: str) -> ast.Path:
    return ast.Path(parts)


def _bin(op: str, a: ast.Expr, b: ast.Expr) -> ast.Binary:
    return ast.Binary(op, a, b)


def _if(cond: ast.Expr, then: ast.Expr, els: ast.Expr) -> ast.Ternary:
    return ast.Ternary(cond, then, els)


def _set(target: ast.Path, value: ast.Expr) -> ast.Assign:
    return ast.Assign(target, value)


def _action(name: str, params: list[tuple[int, str]], body: list[ast.Stmt]) -> ast.ActionDecl:
    return ast.ActionDecl(name, [(_bit(w), p) for w, p in params], body)


def _width(v: Value) -> int:
    return v.type.width if isinstance(v.type, IntType) else 0


@dataclass
class P4Tree:
    """What :func:`build_program` returns: the program and how to read it."""

    program: ast.Program
    #: kernel name -> the control locals it declared (Table VI, PHV locals)
    kernel_locals: dict[str, set[str]]
    #: P4 Register name -> the global it holds
    registers: dict[str, GlobalVar]


@dataclass
class _Table:
    """A table a kernel built: its kind (``act``, ``reg`` or ``mat``), the
    bodies of its actions (a riding store goes into each) and its VLIW
    slots so far."""

    name: str
    kind: str
    bodies: list[list[ast.Stmt]]
    slots: int = 0


class _Program:
    """The ingress control being filled, and the Registers it declares."""

    def __init__(self, device: int) -> None:
        self.device = device
        self.ctrl = ast.ControlDecl(INGRESS, [], {}, {}, {}, {}, {}, {}, [], [])
        self.registers: dict[str, GlobalVar] = {}

    def declare(self, kind: str, decl) -> None:
        getattr(self.ctrl, _DECLS[kind])[decl.name] = decl
        self.ctrl.decl_order.append((kind, decl.name))

    def table(self, name, keys, actions, default=None, entries=(), size=1024) -> None:
        for a in actions:
            self.declare("action", a)
        self.declare("table", ast.TableDecl(
            name, keys, [a.name for a in actions], default, list(entries), size,
            const_entries=bool(entries),
        ))

    def keyless(self, name: str) -> list[ast.Stmt]:
        """A table with no key that runs its one action; the action's body."""
        run, body = f"{name}_run", []
        self.ctrl.actions[run] = ast.ActionDecl(run, [], body)
        self.ctrl.tables[name] = ast.TableDecl(name, [], [run], (run, []), [], 1)
        self.ctrl.decl_order += (("action", run), ("table", name))
        return body


class _Kernel:
    """One kernel's statements, in the ``switch`` case that runs it."""

    def __init__(self, prog: _Program, fn: Function, args: str) -> None:
        self.prog, self.fn, self.args = prog, fn, args
        self.params = {a.name: a for a in fn.args}
        self.counter = 0
        self.names: dict[Value, str] = {}
        self.exprs: dict[Value, ast.Expr] = {}  # how each value is read
        self.fields: dict[tuple[str, Optional[int]], ast.Path] = {}
        self.producer: dict[Value, _Table] = {}
        self.escaped: set[Value] = set()
        self.defs: list[tuple[Value, ast.VarDecl, list[ast.Stmt], int]] = []
        self.locals: set[str] = set()
        self.group: Optional[_Table] = None
        self.lookups: dict[str, _Table] = {}
        self.index_tables: dict[object, str] = {}
        self.stmts: list[ast.Stmt] = []

    # -- names ---------------------------------------------------------------
    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{self.fn.name}_{stem}_{self.counter}"

    def name(self, v: Value) -> str:
        name = self.names.get(v)
        if name is None:
            name = self.names[v] = f"{self.fn.name}_v{len(self.names)}"
        return name

    def local(self, ty: ast.P4Type, name: str) -> None:
        self.prog.ctrl.locals_.append(ast.VarDecl(ty, name))
        self.locals.add(name)

    def ref(self, v: Value) -> ast.Expr:
        if isinstance(v, ir.Constant):
            return _num(v.value & v.type.mask, v.type.width)
        if isinstance(v, ir.Undef):
            return _num(0, _width(v) or None)
        e = self.exprs.get(v)
        if e is None:
            e = self.exprs[v] = ast.Path((self.name(v),))
        return e

    def cast(self, v: Value, width: int) -> ast.Expr:
        """``v`` at ``width`` bits (a cast only where the widths differ)."""
        e = self.ref(v)
        return e if _width(v) == width else ast.CastExpr(_bit(width), e)

    def field(self, fname: str, index: Optional[int] = None) -> ast.Path:
        path = self.fields.get((fname, index))
        if path is None:
            if fname.startswith("__"):
                path = _path("hdr", "netcl", {"__from": "from_"}.get(fname, fname[2:]))
            else:
                path = _path("args", self.args, fname if index is None else f"{fname}_{index}")
            self.fields[fname, index] = path
        return path

    # -- tables --------------------------------------------------------------
    def use(self, table: _Table, v: Optional[Value]) -> None:
        """``table`` reads ``v``: a value another table produced escapes."""
        producer = self.producer.get(v)
        if producer is not None and producer is not table:
            self.escaped.add(v)

    def current_group(self) -> _Table:
        g = self.group
        if g is None or g.slots >= MAX_ACTION_OPS:
            name = self.fresh("act")
            g = self.group = _Table(name, "act", [self.prog.keyless(name)])
            self.stmts.append(ast.ApplyTable(name))
        return g

    def define(self, table: _Table, inst: ir.Instruction, value: ast.Expr) -> None:
        """``inst = value;`` as the next statement of ``table``."""
        body = table.bodies[0]
        stmt = ast.VarDecl(_bit(_width(inst)), self.name(inst), value)
        self.defs.append((inst, stmt, body, len(body)))
        body.append(stmt)
        self.producer[inst] = table

    def op(self, inst: ir.Instruction, value: ast.Expr, operands=(), slots: int = 1) -> None:
        """``inst = value;`` in the current group (a hash takes no slot)."""
        g = self.current_group()
        g.slots += slots
        producer = self.producer
        for v in operands:
            p = producer.get(v)
            if p is not None and p is not g:
                self.escaped.add(v)
        self.define(g, inst, value)

    def store(self, target: ast.Path, value: Value, width: int) -> None:
        """``target = value;``: in the Register or MAT table that produced
        ``value`` while nothing else has read it, else the current group."""
        stmt = _set(target, self.cast(value, width))
        producer = self.producer.get(value)
        if producer is not None and producer.kind in ("reg", "mat") and value not in self.escaped:
            producer.slots += 1
            for body in producer.bodies:
                body.append(stmt)
            return
        g = self.current_group()
        g.slots += 1
        self.use(g, value)
        g.bodies[0].append(stmt)

    # -- the structured tree -------------------------------------------------
    def node(self, node) -> None:
        if isinstance(node, SeqNode):
            for item in node.items:
                self.node(item)
        elif isinstance(node, LeafNode):
            for inst in node.instructions:
                self.inst(inst)
        elif isinstance(node, IfNode):
            if isinstance(node.cond, str):
                cond: ast.Expr = _path(node.cond)
                if node.negate:
                    cond = ast.Unary("!", cond)
            else:
                cond = _bin("==", self.ref(node.cond), _num(0 if node.negate else 1))
                if node.cond in self.producer:  # the gateway reads it
                    self.escaped.add(node.cond)
            self.group = None
            stmt = ast.If(cond, [], [] if node.els is not None else None)
            self.stmts.append(stmt)
            outer = self.stmts
            for body, branch in ((stmt.then, node.then), (stmt.els, node.els)):
                if branch is not None:
                    self.stmts = body
                    self.node(branch)
                    self.group = None
            self.stmts = outer
        elif isinstance(node, PredDecls):
            for n in node.names:
                self.local(ast.BoolType(), n)
        elif isinstance(node, PredUpdate):
            g = self.current_group()
            g.slots += 1
            term: ast.Expr = _path(node.source) if node.source else _num(1, 1)
            if node.cond is not None:
                self.use(g, node.cond)
                term = _bin("&&", term, _bin("==", self.ref(node.cond), _num(int(node.expect))))
            g.bodies[0].append(_set(_path(node.target), _bin("||", _path(node.target), term)))

    def inst(self, inst: ir.Instruction) -> None:
        handler = _HANDLERS.get(type(inst))
        if handler is None:
            raise ValueError(f"cannot generate P4 for {inst!r}")
        handler(self, inst)

    def alloca(self, inst: ir.Alloca) -> None:
        name = self.name(inst)
        for i in range(1 if inst.is_scalar else inst.shape.num_elements):
            self.local(_bit(inst.elem.width), name if inst.is_scalar else f"{name}_{i}")

    def compute(self, inst) -> None:
        if getattr(inst, "on_hash_engine", False):  # a same-width cast on a hash engine
            extern = self.fresh("hash")
            self.prog.declare("hash", ast.HashDecl(extern, _bit(_width(inst)), "IDENTITY"))
            call = ast.MethodCall(_path(extern), "get", [ast.TupleExpr([self.ref(inst.value)])])
            return self.op(inst, call, [inst.value], 0)
        self.op(inst, self.alu(inst), inst.operands)

    def ret(self, inst: ir.Ret) -> None:
        g = self.current_group()
        g.slots += 1
        for v in inst.operands:
            self.use(g, v)
        kind = inst.action.kind if inst.action is not None else ActionKind.PASS
        target = inst.action.target if inst.action is not None else None
        exit_args = [_num(ACT_CODES[kind.value], 8),
                     _num(0, 16) if target is None else self.cast(target, 16)]
        g.bodies[0].append(ast.CallStmt(ast.MethodCall(_path("ncl_exit"), "__direct__", exit_args)))
        self.stmts.append(ast.Exit())

    # -- instructions --------------------------------------------------------
    def alu(self, inst) -> ast.Expr:
        if isinstance(inst, ir.Select):
            return _if(_bin("==", self.ref(inst.cond), _num(1)), self.ref(inst.t), self.ref(inst.f))
        if isinstance(inst, ir.Cast):
            src, w = _width(inst.value), _width(inst)
            e = ast.CastExpr(_bit(w), self.ref(inst.value))
            if inst.kind == ir.CastKind.SEXT and w > src:
                high = _num(((1 << w) - 1) & ~((1 << src) - 1), w)
                sign = _bin("==", ast.Slice(self.ref(inst.value), src - 1, src - 1), _num(1))
                return _if(sign, _bin("|", e, high), e)
            return e
        w = _width(inst.a)
        a, b = self.ref(inst.a), self.ref(inst.b)
        if isinstance(inst, ir.ICmp):
            if inst.pred.value.startswith("s"):  # order the sign-flipped bits
                a, b = (_bin("^", x, _num(1 << (w - 1), w)) for x in (a, b))
            return _if(_bin(_ICMPS[inst.pred], a, b), _num(1, 1), _num(0, 1))
        if inst.kind in _BINOPS:
            return _bin(_BINOPS[inst.kind], a, b)
        if inst.kind == BinOpKind.SHL:
            return _if(_bin("<", b, _num(w, w)), _bin("<<", a, b), _num(0, w))
        if inst.kind == BinOpKind.ASHR:
            shifted = _bin(">>", a, b)
            fill = ast.Unary("~", _bin(">>", _num((1 << w) - 1, w), b))
            return _if(_bin("==", ast.Slice(a, w - 1, w - 1), _num(1)), _bin("|", shifted, fill), shifted)
        raise NotImplementedError(f"no P4 for {inst.kind.value}")

    def intrinsic(self, inst: ir.Intrinsic) -> None:
        w = _width(inst)
        args = [self.ref(a) for a in inst.args]
        callee = inst.callee
        if callee in _HASHES:  # a hash engine, no VLIW slot
            extern = self.fresh("hash")
            self.prog.declare("hash", ast.HashDecl(extern, _bit(w), _HASHES[callee]))
            return self.op(inst, ast.MethodCall(_path(extern), "get", [ast.TupleExpr(args)]), inst.args, 0)
        if callee == "ncl.rand":
            extern = self.fresh("rng")
            self.prog.declare("random", ast.RandomDecl(extern, _bit(w)))
            return self.op(inst, ast.MethodCall(_path(extern), "get", []))
        if callee in ("ncl.clz", "ncl.ctz"):  # an LPM table, one entry per count
            self.group = None
            n, src = self.fresh("lpm"), _width(inst.args[0])
            full = (1 << src) - 1
            at = _action(f"{n}_set", [(w, "n")], [_set(_path(f"{n}_r"), _path("n"))])
            clz = callee == "ncl.clz"  # i leading (trailing) zeros, then a one
            ones = [1 << (src - 1 - i) if clz else 1 << i for i in range(src)]
            entries = [ast.TableEntry([("mask", one, full & -one if clz else 2 * one - 1)], at.name, [i])
                       for i, one in enumerate(ones)] + [ast.TableEntry([("mask", 0, full)], at.name, [src])]
            self.prog.table(n, [(ast.CastExpr(_bit(src), args[0]), "lpm")], [at], None, entries, src + 1)
            self.local(_bit(w), f"{n}_r")
            table = _Table(n, "lpm", [at.body])
            self.stmts.append(ast.ApplyTable(n))
            for a in inst.args:
                self.use(table, a)
            self.exprs[inst], self.producer[inst] = _path(f"{n}_r"), table
            return
        if callee in ("device.id", "device.kind"):
            value: ast.Expr = _num((self.prog.device if callee == "device.id" else 1) & ((1 << w) - 1), w)
        elif callee == "ncl.popcount":
            bits = [ast.CastExpr(_bit(w), ast.Slice(args[0], i, i)) for i in range(_width(inst.args[0]))]
            value = functools.reduce(lambda x, y: _bin("+", x, y), bits)
        elif callee in ("ncl.min", "ncl.max"):
            value = _if(_bin("<" if callee == "ncl.min" else ">", args[0], args[1]), args[0], args[1])
        elif callee in ("ncl.sadd", "ncl.ssub"):
            value = _bin("|+|" if callee == "ncl.sadd" else "|-|", args[0], args[1])
        elif callee == "ncl.bit_chk":
            value = _bin("&", _bin(">>", args[0], args[1]), _num(1, w))
        elif callee == "ncl.csum16r":  # one's-complement sum, its carries folded twice
            value = functools.reduce(lambda x, y: _bin("+", x, y), [
                _bin("&", ast.CastExpr(_bit(32), a), _num(0xFFFF, 32)) for a in args])
            for _ in range(2):
                value = _bin("+", _bin("&", value, _num(0xFFFF, 32)), _bin(">>", value, _num(16, 32)))
            value = ast.CastExpr(_bit(w), ast.Unary("~", value))
        elif callee == "ncl.bswap":
            shifted = [_bin("<<", ast.CastExpr(_bit(w), ast.Slice(args[0], 8 * i + 7, 8 * i)),
                            _num(w - 8 - 8 * i, w)) for i in range(w // 8)]
            value = functools.reduce(lambda x, y: _bin("|", x, y), shifted)
        else:
            raise NotImplementedError(f"no P4 for intrinsic {callee}")
        self.op(inst, value, inst.args)

    def register_access(self, inst) -> None:
        """A keyless table executing this access's own RegisterAction."""
        self.group = None
        gv = inst.gv
        w = gv.elem.width
        mem, rv = _MEM, _RV
        store = type(inst) is ir.StoreGlobal
        if store:
            body: list[ast.Stmt] = [ast.Assign(mem, self.cast(inst.value, w))]
            reads = [inst.value]
        elif type(inst) is ir.LoadGlobal or inst.op == AtomicOp.READ:
            body = [_set(rv, mem)]
        elif inst.op == AtomicOp.CAS:
            test = _bin("==", mem, self.cast(inst.compare, w))
            body = [_set(rv, mem), ast.If(test, [_set(mem, self.cast(inst.operand, w))])]
        else:
            arg = self.cast(inst.operand, w)
            if inst.op in (AtomicOp.MIN, AtomicOp.MAX):
                new: ast.Expr = _if(_bin("<" if inst.op == AtomicOp.MIN else ">", mem, arg), mem, arg)
            elif inst.op in (AtomicOp.EXCH, AtomicOp.WRITE):
                new = arg
            else:
                sat = inst.saturating and inst.op in (AtomicOp.ADD, AtomicOp.SUB)
                new = _bin(f"|{_ATOMICS[inst.op]}|" if sat else _ATOMICS[inst.op], mem, arg)
            update: ast.Stmt = _set(mem, new)
            if inst.cond is not None:
                update = ast.If(_bin("!=", self.ref(inst.cond), _num(0)), [update])
            body = [update, _set(rv, mem)] if inst.return_new else [_set(rv, mem), update]
        if type(inst) is ir.AtomicRMW:
            reads = [inst.operand, inst.cond, inst.compare]
        elif not store:
            reads = []
        reg = gv.name.replace(".", "_")
        prog = self.prog
        if reg not in prog.registers:
            prog.registers[reg] = gv
            prog.declare("register", ast.RegisterDecl(reg, _bit(w), _bit(32), max(1, gv.capacity)))
        ra = self.fresh(f"ra_{reg}")
        prog.declare("register_action", ast.RegisterActionDecl(ra, reg, body, "mem", None if store else "rv"))
        index: ast.Expr = _num(0, 32)
        for i, idx in enumerate(inst.indices):
            term = self.cast(idx, 32)
            index = term if i == 0 else _bin("+", _bin("*", index, _num(gv.shape.dims[i], 32)), term)
            reads.append(idx)
        call = ast.MethodCall(ast.Path((ra,)), "execute", [index])
        name = self.fresh(f"reg_{reg}")
        table = _Table(name, "reg", [prog.keyless(name)], slots=1)
        self.stmts.append(ast.ApplyTable(name))
        for v in reads:
            self.use(table, v)
        if store:
            table.bodies[0].append(ast.CallStmt(call))
        else:
            self.define(table, inst, call)

    def lookup(self, inst) -> None:
        """A MAT per lookup global; it leaves ``hit << width | value`` in
        one local the Lookup and the LookupVal read."""
        gv = inst.gv
        self.group = None
        name = f"{self.fn.name}_mat_{gv.name.replace('.', '_')}"
        result = _path(f"{name}_r")
        vw = gv.value_type.width if gv.value_type else 0
        table = self.lookups.get(gv.name)
        if table is None:
            hit = _action(f"{name}_hit", [(vw + 1, "v")], [_set(result, _path("v"))])
            miss = _action(f"{name}_miss", [], [_set(result, _num(0, vw + 1))])
            exact = gv.lookup_kind != LookupKind.RV
            entries = [ast.TableEntry([e.key_lo if exact else (e.key_lo, e.key_hi)], hit.name,
                                      [(1 << vw) | (e.value or 0)]) for e in gv.entries]
            key = ast.CastExpr(_bit((gv.key_type or gv.elem).width), self.ref(inst.key))
            self.prog.table(name, [(key, "exact" if exact else "range")], [hit, miss],
                            (miss.name, []), entries, max(1, gv.capacity))
            # the control plane may change a managed table's entries
            self.prog.ctrl.tables[name].const_entries = bool(entries) and not gv.space.is_managed
            self.local(_bit(vw + 1), f"{name}_r")
            table = self.lookups[gv.name] = _Table(name, "mat", [hit.body, miss.body], slots=1)
        self.stmts.append(ast.ApplyTable(table.name))
        self.use(table, inst.key)
        found = _bin("==", ast.Slice(result, vw, vw), _num(1))
        if isinstance(inst, ir.Lookup):
            self.exprs[inst] = _if(found, _num(1, 1), _num(0, 1))
        else:
            self.exprs[inst] = _if(found, ast.Slice(result, vw - 1, 0), self.cast(inst.default, vw))
        self.producer[inst] = table

    def access(self, inst) -> None:
        """A message field (read in place) or a local slot; an element
        picked by a run-time index goes through the array's index table
        (Fig. 9), which sets a position local that a group then reads
        or writes at."""
        if isinstance(inst, (ir.LoadMsg, ir.StoreMsg)):
            arg = self.params.get(inst.field)  # none for a shim field
            array, width, indices = inst.field, arg.type.width if arg else 16, [inst.index] if inst.index else []
            count = arg.spec if arg and arg.is_array else 1
            dims = [count] * len(indices)

            def element(i: int) -> ast.Path:
                return self.field(inst.field, i if count > 1 else None)
        else:
            array, width, indices, dims = inst.slot, inst.slot.elem.width, inst.indices, inst.slot.shape.dims
            name, count = self.name(inst.slot), inst.slot.shape.num_elements

            def element(i: int) -> ast.Path:
                return _path(f"{name}_{i}" if dims else name)
        value = getattr(inst, "value", None) if isinstance(inst, (ir.StoreMsg, ir.Store)) else None
        if all(isinstance(i, ir.Constant) for i in indices):  # one element, known now
            flat = 0
            for idx, dim in zip(indices, dims):
                flat = flat * dim + idx.value
            if value is not None:
                return self.store(element(flat), value, width)
            if isinstance(inst, ir.LoadMsg):
                self.exprs[inst] = element(flat)  # header fields are read in place
                return
            return self.op(inst, element(flat))
        if len(indices) != 1:
            raise NotImplementedError("multi-dimensional local array indexed at run time")
        elements = [element(i) for i in range(count)]
        table = self.index_tables.get(array)
        if table is None:
            table = self.index_tables[array] = self.fresh("idx")
            self.local(_bit(_width(indices[0])), f"{table}_key")
            self.local(_bit(8), f"{table}_at")
            at = _action(f"{table}_at", [(8, "i")], [_set(_path(f"{table}_at"), _path("i"))])
            entries = [ast.TableEntry([i], at.name, [i]) for i in range(len(elements))]
            self.prog.table(table, [(_path(f"{table}_key"), "exact")], [at], None, entries, len(elements))
        g = self.current_group()
        g.slots += 1
        self.use(g, indices[0])
        g.bodies[0].append(_set(_path(f"{table}_key"), self.ref(indices[0])))
        self.group = None
        self.stmts.append(ast.ApplyTable(table))
        at = _path(f"{table}_at")
        if value is None:
            pick: ast.Expr = elements[-1]
            for i in reversed(range(len(elements) - 1)):
                pick = _if(_bin("==", at, _num(i)), elements[i], pick)
            return self.op(inst, pick)
        g = self.current_group()
        self.use(g, value)
        for i, element in enumerate(elements):
            g.slots += 1
            g.bodies[0].append(_set(element, _if(_bin("==", at, _num(i)), self.cast(value, width), element)))

    def finish(self) -> None:
        """Escaped values become control locals, assigned in place."""
        for value, stmt, body, at in self.defs:
            if value in self.escaped:
                self.local(stmt.type, stmt.name)
                body[at] = _set(_path(stmt.name), stmt.init)


_HANDLERS = {
    ir.Alloca: _Kernel.alloca,
    ir.LoadGlobal: _Kernel.register_access, ir.StoreGlobal: _Kernel.register_access,
    ir.AtomicRMW: _Kernel.register_access,
    ir.Lookup: _Kernel.lookup, ir.LookupVal: _Kernel.lookup,
    ir.LoadMsg: _Kernel.access, ir.StoreMsg: _Kernel.access, ir.Load: _Kernel.access, ir.Store: _Kernel.access,
    ir.Intrinsic: _Kernel.intrinsic,
    ir.BinOp: _Kernel.compute, ir.ICmp: _Kernel.compute, ir.Select: _Kernel.compute, ir.Cast: _Kernel.compute,
    ir.Ret: _Kernel.ret,
}


class _Runtime(NamedTuple):
    """What every program declares alike."""

    headers: dict[str, ast.HeaderDecl]
    structs: list[ast.StructDecl]
    states: list[ast.ParserState]
    l2: list[tuple[str, list, ast.ActionDecl, int]]
    exit: ast.ActionDecl
    forward: list[ast.ActionDecl]
    emits: list[ast.Stmt]


def _state(name: str, header: ast.Path, transition) -> ast.ParserState:
    return ast.ParserState(name, [ast.CallStmt(ast.MethodCall(_path("pkt"), "extract", [header]))], transition)


def _select(on: ast.Path, cases: list) -> ast.SelectTransition:
    return ast.SelectTransition([on], [ast.SelectCase(*c) for c in cases + [(["default"], "accept")]])


def _md(f: str) -> ast.Path:
    return _path("md", f)


def _netcl(f: str) -> ast.Path:
    return _path("hdr", "netcl", f)


@functools.lru_cache(maxsize=None)
def _runtime() -> _Runtime:
    """Built once: the programs share these nodes, and nothing changes a
    program once it is built."""
    eth = lambda f: _path("hdr", "ethernet", f)  # noqa: E731
    l2 = [  # learn, forward, flood
        ("smac", [(eth("src_addr"), "exact")], _action(
            "smac_hit", [(1, "known")], [_set(_md("l2_flags"), ast.CastExpr(_bit(3), _path("known")))]), 1024),
        ("dmac", [(eth("dst_addr"), "exact")], _action("dmac_hit", [(9, "port")], [
            _set(_md("egress_port"), _if(_bin("==", _md("l2_flags"), _num(0)), _md("ingress_port"), _path("port")))
        ]), 1024),
        ("broadcast", [(eth("dst_addr"), "ternary")], _action("flood", [(16, "group")], [
            _set(_md("l2_mcast"), _if(_bin("==", _md("egress_port"), _num(0)), _path("group"), _num(0)))
        ]), 16),
    ]
    # a kernel's exit: the action byte, its target, and Table II's forwarding
    code, target = _path("code"), _path("target")
    is_code = lambda action: _bin("==", code, _num(ACT_CODES[action]))  # noqa: E731
    exit_action = _action("ncl_exit", [(8, "code"), (16, "target")], [
        _set(_netcl("act"), code),
        _set(_md("ncl_target"), target),
        _set(_md("fwd_kind"), _if(is_code("drop"), _num(FWD_DROP), _if(
            is_code("send_to_device"), _num(FWD_DEVICE),
            _if(is_code("multicast"), _num(FWD_MCAST), _num(FWD_HOST))))),
        _set(_md("fwd_target"), _if(is_code("pass"), _netcl("dst"), _if(
            _bin(">=", code, _num(ACT_CODES["reflect"])), _netcl("src"), target))),
        _set(_netcl("to"), _if(is_code("send_to_device"), target, _num(NO_DEVICE))),
    ])
    return _Runtime(
        {f"{n}_t": ast.HeaderDecl(f"{n}_t", [(_bit(w), f) for w, f in fields]) for n, fields, *_ in _BASE_HEADERS},
        [ast.StructDecl("headers_t", [(ast.NamedType(f"{n}_t"), n) for n, *_ in _BASE_HEADERS]),
         ast.StructDecl("metadata_t", [(_bit(w), f) for w, f in _METADATA])],
        [_state(name, _path("hdr", header), _select(_path("hdr", header, on), [([value], after)]))
         for name, (header, _, on, value, after) in zip(
             ["start"] + [after for *_, after in _BASE_HEADERS[:2]], _BASE_HEADERS[:3])],
        l2,
        exit_action,
        [_action("ncl_port", [(16, "port")], [_set(_md("fwd_target"), _path("port"))])],
        [ast.CallStmt(ast.MethodCall(_path("pkt"), "emit", [_path("hdr", n)])) for n, *_ in _BASE_HEADERS],
    )


def build_program(trees: dict, device_id: Optional[int], kernels: list[Function]) -> P4Tree:
    """The complete P4 program for ``kernels`` (structurized in ``trees``)
    at ``device_id``."""
    device = device_id if device_id is not None else 1
    rt = _runtime()
    prog = _Program(device)
    ctrl = prog.ctrl
    args = {fn.name: f"{fn.name}_args" for fn in kernels}
    headers = dict(rt.headers)
    for fn in kernels:
        fields: list[tuple[ast.P4Type, str]] = []
        for a in fn.args:
            pad = -a.type.width % 8  # the wire holds whole bytes
            for name in [f"{a.name}_{i}" for i in range(a.spec)] if a.is_array else [a.name]:
                fields += [(_bit(pad), f"{name}_pad")] * bool(pad) + [(_bit(a.type.width), name)]
        headers[f"{args[fn.name]}_t"] = ast.HeaderDecl(f"{args[fn.name]}_t", fields)
    hdrs, metadata = rt.structs
    structs = {
        "headers_t": hdrs,
        "args_t": ast.StructDecl("args_t", [(ast.NamedType(f"{a}_t"), a) for a in args.values()]),
        "metadata_t": metadata,
    }
    kernel_cases = [([fn.computation or 0], f"parse_{args[fn.name]}") for fn in kernels]
    states = rt.states + [_state("parse_netcl", _path("hdr", "netcl"), _select(_netcl("comp"), kernel_cases))]
    states += [_state(f"parse_{a}", _path("args", a), "accept") for a in args.values()]
    typed = lambda d, t, n: (d, ast.NamedType(t), n)  # noqa: E731
    parser = ast.ParserDecl(PARSER, [
        typed("packet_in", "packet_in", "pkt"), typed("out", "headers_t", "hdr"),
        typed("out", "args_t", "args"), typed("inout", "metadata_t", "md"),
    ], {s.name: s for s in states})

    # -- ingress: the base program, the runtime and the kernels --------------
    ctrl.params = [typed("inout", "headers_t", "hdr"), typed("inout", "args_t", "args"),
                   typed("inout", "metadata_t", "md")]
    for name, keys, action, size in rt.l2:
        prog.table(name, keys, [action], size=size)
    ctrl.apply += [ast.ApplyTable(name) for name, *_ in rt.l2]

    # the dispatch: (UDP port range, to, computation id) -> the kernel's action
    def dispatch(action: str) -> ast.ActionDecl:
        computed = _num(int(action != "ncl_skip"))
        return _action(action, [(8, "comp")], [_set(_md("computed"), computed), _set(_md("ncl_target"), _num(0))])

    runs = [dispatch(fn.name) for fn in kernels]
    keys = [(_path("hdr", "udp", "dst_port"), "range"), (_netcl("to"), "exact"), (_netcl("comp"), "exact")]
    prog.table("ncl_dispatch", keys, runs + [dispatch("ncl_skip")], ("ncl_skip", [0]), [
        ast.TableEntry([(NETCL_PORT, NETCL_PORT), device, fn.computation or 0], fn.name, [fn.computation or 0])
        for fn in kernels
    ], size=16)
    prog.declare("action", rt.exit)

    cases, kernel_locals = [], {}
    for fn in kernels:
        k = _Kernel(prog, fn, args[fn.name])
        k.node(trees[fn.name])
        k.finish()
        kernel_locals[fn.name] = k.locals
        cases.append((fn.name, k.stmts))
    ctrl.apply.append(ast.Switch("ncl_dispatch", cases))

    # what no kernel computed continues toward its target (§IV)
    onward = _bin("&&", _bin("!=", _netcl("to"), _num(NO_DEVICE)), _bin("!=", _netcl("to"), _num(device)))
    prog.table("ncl_forward", [(_netcl("act"), "exact"), (_md("ncl_target"), "exact")], [
        _action("ncl_transit", [], [
            _set(_md("fwd_kind"), _if(onward, _num(FWD_DEVICE), _num(FWD_HOST))),
            _set(_md("fwd_target"), _if(onward, _netcl("to"), _netcl("dst"))),
            _set(_md("computed"), _num(0)),
        ]),
        *rt.forward,
    ], ("ncl_transit", []), size=64)
    ctrl.apply.append(ast.ApplyTable("ncl_forward"))

    emits = rt.emits + [ast.CallStmt(ast.MethodCall(_path("pkt"), "emit", [_path("args", a)])) for a in args.values()]
    deparser = ast.ControlDecl(DEPARSER, [
        typed("packet_out", "packet_out", "pkt"), typed("in", "headers_t", "hdr"),
        typed("in", "args_t", "args"),
    ], {}, {}, {}, {}, {}, {}, [], emits)
    program = ast.Program({}, {}, headers, structs, {PARSER: parser}, {INGRESS: ctrl, DEPARSER: deparser})
    return P4Tree(program, kernel_locals, prog.registers)
