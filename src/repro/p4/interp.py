"""Behavioral execution of parsed P4 programs (the bmv2 stand-in).

Packet-in/packet-out semantics: bytes are parsed by the parser FSM into
header instances, the ingress control runs (tables, actions, Register
externs), and the deparser re-emits valid headers.  Register state
persists across packets; table entries can be installed at runtime (the
control-plane surface handwritten baselines like NetCache need).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Optional, Union

from repro import hashing
from repro.p4 import ast
from repro.pygen import register_file


class P4RuntimeError(Exception):
    pass


class _ExitControl(Exception):
    """Raised by `exit` statements; unwinds to the control boundary."""


@dataclass
class HeaderInstance:
    decl: ast.HeaderDecl
    valid: bool = False
    fields: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        self.valid = False
        self.fields = {f: 0 for _, f in self.decl.fields}

    def width_of(self, name: str) -> int:
        for ty, f in self.decl.fields:
            if f == name and isinstance(ty, ast.BitType):
                return ty.width
        raise P4RuntimeError(f"no field {name} in header {self.decl.name}")


@dataclass
class _Table:
    decl: ast.TableDecl
    control: ast.ControlDecl  #: the control that declares the table and its actions
    entries: list[ast.TableEntry] = field(default_factory=list)

    def match(self, keys: list[int]) -> Optional[ast.TableEntry]:
        for entry in self.entries:
            if self._entry_matches(entry, keys):
                return entry
        return None

    @staticmethod
    def _entry_matches(entry: ast.TableEntry, keys: list[int]) -> bool:
        if len(entry.keys) != len(keys):
            return False
        for spec, key in zip(entry.keys, keys):
            if spec == "default":
                continue
            if isinstance(spec, tuple) and len(spec) == 3 and spec[0] == "mask":
                _, value, mask = spec
                if (key & mask) != (value & mask):
                    return False
            elif isinstance(spec, tuple):
                lo, hi = spec
                if not lo <= key <= hi:
                    return False
            elif key != spec:
                return False
        return True


_HASH_ALGOS = {
    "CRC16": hashing.crc16,
    "CRC32": hashing.crc32,
    "CRC64": hashing.crc64,
    "XOR16": hashing.xor16,
    "IDENTITY": hashing.identity,
}

class P4Interpreter:
    """Executes one P4 program instance (persistent state across packets)."""

    def __init__(self, program: ast.Program, *, seed: int = 0) -> None:
        self.program = program
        self.rng = random.Random(seed)
        self.registers: dict[str, array] = {}
        self.register_decls: dict[str, ast.RegisterDecl] = {}
        self.tables: dict[str, _Table] = {}
        for ctrl in program.controls.values():
            for r in ctrl.registers.values():
                if r.name in self.registers:
                    raise P4RuntimeError(f"duplicate register {r.name}")
                self.registers[r.name] = register_file(r.value_type.width, r.size)
                self.register_decls[r.name] = r
            for t in ctrl.tables.values():
                self.tables[t.name] = _Table(t, ctrl, list(t.entries))

    # -- control plane ---------------------------------------------------------
    def insert_entry(self, table: str, keys: list[object], action: str, args: list[int]) -> None:
        tbl = self.tables[table]
        if tbl.decl.const_entries:
            raise P4RuntimeError(f"table {table} has const entries")
        if len(tbl.entries) >= tbl.decl.size:
            raise P4RuntimeError(f"table {table} full")
        if len(keys) != len(tbl.decl.keys):
            raise P4RuntimeError(
                f"table {table}: {len(keys)} keys given, the table matches {len(tbl.decl.keys)}"
            )
        if action != "NoAction":
            ctrl = tbl.control
            decl = ctrl.actions.get(action)
            if decl is None:
                raise P4RuntimeError(
                    f"table {table}: control {ctrl.name} declares no action {action}"
                )
            if len(args) < len(decl.params):
                raise P4RuntimeError(
                    f"table {table}: action {action} takes {len(decl.params)} "
                    f"arguments, {len(args)} given"
                )
        tbl.entries.append(ast.TableEntry(list(keys), action, list(args)))

    def remove_entry(self, table: str, keys: list[object]) -> bool:
        tbl = self.tables[table]
        for e in list(tbl.entries):
            if e.keys == list(keys):
                tbl.entries.remove(e)
                return True
        return False

    def register_write(self, name: str, index: int, value: int) -> None:
        decl = self._checked_register(name, index)
        self.registers[name][index] = value & decl.value_type.mask

    def register_read(self, name: str, index: int) -> int:
        self._checked_register(name, index)
        return self.registers[name][index]

    def _checked_register(self, name: str, index: int) -> ast.RegisterDecl:
        """An array would wrap a negative index to its end."""
        decl = self.register_decls[name]
        if not 0 <= index < decl.size:
            raise P4RuntimeError(
                f"register {name}: index {index} out of range [0,{decl.size})"
            )
        return decl

    # -- packet path ---------------------------------------------------------------
    def run_packet(
        self,
        data: bytes,
        *,
        parser: str,
        ingress: str,
        deparser: Optional[str] = None,
        metadata: Optional[dict[str, int]] = None,
    ) -> tuple[dict[str, HeaderInstance], dict[str, int], bytes]:
        """Parse, run ingress, deparse.  Returns (headers, metadata, bytes)."""
        hdr = self._fresh_headers()
        md = dict(metadata or {})
        self._init_metadata(md)
        rest = self._run_parser(self.program.parsers[parser], data, hdr, md)
        ctrl = self.program.controls[ingress]
        self._run_control(ctrl, hdr, md)
        out = b""
        if deparser is not None:
            out = self._deparse(self.program.controls[deparser], hdr) + rest
        return hdr, md, out

    def forward(
        self, data: bytes, *, parser: str, ingress: str, deparser: Optional[str] = None
    ) -> tuple[dict[str, int], bytes]:
        """:meth:`run_packet` for a caller that reads only the metadata and
        the bytes (a switch)."""
        _, md, out = self.run_packet(data, parser=parser, ingress=ingress, deparser=deparser)
        return md, out

    def _fresh_headers(self) -> dict[str, HeaderInstance]:
        # The header struct is conventionally the struct whose fields are
        # header types.
        out: dict[str, HeaderInstance] = {}
        for struct in self.program.structs.values():
            for ty, fname in struct.fields:
                if isinstance(ty, ast.NamedType) and ty.name in self.program.headers:
                    inst = HeaderInstance(self.program.headers[ty.name])
                    inst.reset()
                    out[fname] = inst
        return out

    def _init_metadata(self, md: dict[str, int]) -> None:
        for struct in self.program.structs.values():
            for ty, fname in struct.fields:
                if isinstance(ty, (ast.BitType, ast.BoolType)):
                    md.setdefault(fname, 0)

    # -- parser ------------------------------------------------------------------------
    def _run_parser(self, decl: ast.ParserDecl, data: bytes, hdr, md) -> bytes:
        cursor = _Cursor(data)
        state = "start"
        steps = 0
        env = _Env(self, hdr, md, {}, cursor)
        while state not in ("accept", "reject"):
            steps += 1
            if steps > 1000:
                raise P4RuntimeError("parser did not terminate")
            st = decl.states.get(state)
            if st is None:
                raise P4RuntimeError(f"undefined parser state {state}")
            for stmt in st.statements:
                self._exec_stmt(stmt, env)
            if isinstance(st.transition, str):
                state = st.transition
            else:
                values = [env.eval(e)[0] for e in st.transition.exprs]
                state = "reject"
                for case in st.transition.cases:
                    if self._select_matches(case.keys, values):
                        state = case.state
                        break
        if state == "reject":
            raise P4RuntimeError("parser rejected packet")
        return cursor.rest()

    @staticmethod
    def _select_matches(keys: list[object], values: list[int]) -> bool:
        if len(keys) != len(values):
            return keys == ["default"]
        for spec, v in zip(keys, values):
            if spec == "default":
                continue
            if isinstance(spec, tuple) and len(spec) == 3 and spec[0] == "mask":
                if (v & spec[2]) != (spec[1] & spec[2]):
                    return False
            elif isinstance(spec, tuple):
                if not spec[0] <= v <= spec[1]:
                    return False
            elif v != spec:
                return False
        return True

    # -- control -------------------------------------------------------------------------
    def _run_control(self, ctrl: ast.ControlDecl, hdr, md) -> None:
        locals_: dict[str, tuple[int, int]] = {}
        env = _Env(self, hdr, md, locals_, None, ctrl)
        for v in ctrl.locals_:
            width = v.type.width if isinstance(v.type, ast.BitType) else 1
            init = env.eval(v.init)[0] if v.init is not None else 0
            locals_[v.name] = (init & ((1 << width) - 1), width)
        try:
            for stmt in ctrl.apply:
                self._exec_stmt(stmt, env)
        except _ExitControl:
            pass

    def _deparse(self, ctrl: ast.ControlDecl, hdr) -> bytes:
        out = bytearray()
        for stmt in ctrl.apply:
            if isinstance(stmt, ast.CallStmt) and stmt.call.method == "emit":
                arg = stmt.call.args[0]
                assert isinstance(arg, ast.Path)
                inst = hdr.get(arg.parts[-1])
                if inst is not None and inst.valid:
                    out.extend(_pack_header(inst))
        return bytes(out)

    # -- statements ------------------------------------------------------------------------
    def _exec_stmt(self, stmt: ast.Stmt, env: "_Env") -> None:
        if isinstance(stmt, ast.Assign):
            value, _ = env.eval(stmt.value)
            env.assign(stmt.target, value)
        elif isinstance(stmt, ast.VarDecl):
            width = stmt.type.width if isinstance(stmt.type, ast.BitType) else 1
            init = env.eval(stmt.init)[0] if stmt.init is not None else 0
            env.locals_[stmt.name] = (init & ((1 << width) - 1), width)
        elif isinstance(stmt, ast.If):
            cond, _ = env.eval(stmt.cond)
            branch = stmt.then if cond else (stmt.els or [])
            for s in branch:
                self._exec_stmt(s, env)
        elif isinstance(stmt, ast.ApplyTable):
            self.apply_table(stmt.table, env)
        elif isinstance(stmt, ast.Switch):
            run = self.apply_table(stmt.table, env)
            default = self.tables[stmt.table].decl.default_action
            bodies = dict(stmt.cases)
            run = run or (default[0] if default else "NoAction")
            for s in bodies.get(run, bodies.get("default", [])):
                self._exec_stmt(s, env)
        elif isinstance(stmt, ast.CallStmt):
            env.eval(stmt.call)
        elif isinstance(stmt, ast.Exit):
            raise _ExitControl()
        else:  # pragma: no cover
            raise P4RuntimeError(f"unhandled statement {stmt}")

    def apply_table(self, name: str, env: "_Env") -> Optional[str]:
        """Apply table ``name``; the matched entry's action, None on a miss."""
        tbl = self.tables.get(name)
        if tbl is None:
            raise P4RuntimeError(f"unknown table {name}")
        keys = [env.eval(e)[0] for e in tbl.decl.keys for e in [e[0]]]
        entry = tbl.match(keys)
        if entry is not None:
            self._run_action(entry.action, entry.args, env)
            return entry.action
        if tbl.decl.default_action is not None:
            aname, args = tbl.decl.default_action
            self._run_action(aname, args, env)
        return None

    def _run_action(self, name: str, args: list[int], env: "_Env") -> None:
        if name == "NoAction":
            return
        ctrl = env.control
        assert ctrl is not None
        action = ctrl.actions.get(name)
        if action is None:
            raise P4RuntimeError(f"unknown action {name}")
        saved = dict(env.locals_)
        for (ty, pname), arg in zip(action.params, args):
            width = ty.width if isinstance(ty, ast.BitType) else 32
            env.locals_[pname] = (arg & ((1 << width) - 1), width)
        for stmt in action.body:
            self._exec_stmt(stmt, env)
        # action parameters go out of scope; locals written remain
        for (_, pname) in action.params:
            if pname in saved:
                env.locals_[pname] = saved[pname]
            else:
                env.locals_.pop(pname, None)

    def execute_register_action(self, ra: ast.RegisterActionDecl, index: int, env: "_Env") -> int:
        decl = self.register_decls[ra.register]
        mem = self.registers[ra.register]
        if not 0 <= index < decl.size:
            raise P4RuntimeError(
                f"register {ra.register}: index {index} out of range [0,{decl.size})"
            )
        width = decl.value_type.width
        sub_locals = dict(env.locals_)
        sub_locals[ra.value_param] = (mem[index], width)
        if ra.rv_param:
            sub_locals[ra.rv_param] = (0, width)
        sub = _Env(self, env.hdr, env.md, sub_locals, env.cursor, env.control)
        for stmt in ra.body:
            self._exec_stmt(stmt, sub)
        mem[index] = sub_locals[ra.value_param][0] & decl.value_type.mask
        if ra.rv_param:
            return sub_locals[ra.rv_param][0]
        return mem[index]


class _Cursor:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.bit = 0

    def extract(self, inst: HeaderInstance) -> None:
        for ty, fname in inst.decl.fields:
            assert isinstance(ty, ast.BitType)
            inst.fields[fname] = self._take(ty.width)
        inst.valid = True

    def _take(self, bits: int) -> int:
        total_bits = len(self.data) * 8
        if self.bit + bits > total_bits:
            raise P4RuntimeError("packet too short during extract")
        value = 0
        for _ in range(bits):
            byte = self.data[self.bit // 8]
            value = (value << 1) | ((byte >> (7 - self.bit % 8)) & 1)
            self.bit += 1
        return value

    def advance(self, bits: int) -> None:
        if self.bit + bits > len(self.data) * 8:
            raise P4RuntimeError("packet too short during advance")
        self.bit += bits

    def rest(self) -> bytes:
        if self.bit % 8:
            raise P4RuntimeError("payload not byte-aligned")
        return self.data[self.bit // 8 :]


def _pack_header(inst: HeaderInstance) -> bytes:
    bits = 0
    value = 0
    for ty, fname in inst.decl.fields:
        assert isinstance(ty, ast.BitType)
        value = (value << ty.width) | (inst.fields[fname] & ty.mask)
        bits += ty.width
    if bits % 8:
        value <<= 8 - bits % 8
        bits += 8 - bits % 8
    return value.to_bytes(bits // 8, "big")


class _Env:
    """Evaluation environment: headers, metadata, locals, packet cursor."""

    def __init__(self, interp, hdr, md, locals_, cursor, control=None) -> None:
        self.interp = interp
        self.hdr = hdr
        self.md = md
        self.locals_ = locals_
        self.cursor = cursor
        self.control = control

    # -- expression evaluation ------------------------------------------------
    def eval(self, e: ast.Expr) -> tuple[int, int]:
        """Returns (value, width-in-bits)."""
        if isinstance(e, ast.Num):
            return e.value, e.width or 0
        if isinstance(e, ast.Path):
            return self._read_path(e)
        if isinstance(e, ast.Slice):
            v, _ = self.eval(e.base)
            width = e.hi - e.lo + 1
            return (v >> e.lo) & ((1 << width) - 1), width
        if isinstance(e, ast.CastExpr):
            v, _ = self.eval(e.value)
            if isinstance(e.to, ast.BitType):
                return v & e.to.mask, e.to.width
            return int(bool(v)), 1
        if isinstance(e, ast.Unary):
            v, w = self.eval(e.value)
            mask = (1 << w) - 1 if w else (1 << 64) - 1
            if e.op == "!":
                return int(v == 0), 1
            if e.op == "~":
                return (~v) & mask, w
            return (-v) & mask, w
        if isinstance(e, ast.Binary):
            return self._binary(e)
        if isinstance(e, ast.Ternary):
            c, _ = self.eval(e.cond)
            return self.eval(e.then if c else e.els)
        if isinstance(e, ast.MethodCall):
            return self._method(e)
        if isinstance(e, ast.ApplyResult):
            hit = self.interp.apply_table(e.table, self) is not None
            if e.member == "hit":
                return int(hit), 1
            if e.member == "miss":
                return int(not hit), 1
            raise P4RuntimeError(f"unsupported apply() member {e.member}")
        if isinstance(e, ast.TupleExpr):
            # tuples appear only as hash inputs; fold to concatenated value
            value = 0
            width = 0
            for item in e.items:
                v, w = self.eval(item)
                w = w or 32
                value = (value << w) | (v & ((1 << w) - 1))
                width += w
            return value, width
        raise P4RuntimeError(f"cannot evaluate {e}")

    def _binary(self, e: ast.Binary) -> tuple[int, int]:
        a, wa = self.eval(e.left)
        b, wb = self.eval(e.right)
        w = wa or wb or 64
        mask = (1 << w) - 1
        op = e.op
        if op in ("==", "!=", "<", "<=", ">", ">="):
            res = {
                "==": a == b, "!=": a != b, "<": a < b,
                "<=": a <= b, ">": a > b, ">=": a >= b,
            }[op]
            return int(res), 1
        if op == "&&":
            return int(bool(a) and bool(b)), 1
        if op == "||":
            return int(bool(a) or bool(b)), 1
        table = {
            "+": a + b,
            "-": a - b,
            "*": a * b,
            "&": a & b,
            "|": a | b,
            "^": a ^ b,
            "<<": a << (b % max(w, 1)),
            ">>": a >> b,
            "|+|": min(a + b, mask),
            "|-|": max(a - b, 0),
            "/": a // b if b else 0,
            "%": a % b if b else 0,
        }
        if op not in table:
            raise P4RuntimeError(f"unsupported operator {op}")
        return table[op] & mask, w

    def _method(self, call: ast.MethodCall) -> tuple[int, int]:
        target = call.target
        method = call.method
        interp = self.interp
        # packet operations
        if method == "extract":
            arg = call.args[0]
            assert isinstance(arg, ast.Path) and self.cursor is not None
            self.cursor.extract(self._header(arg))
            return 0, 0
        if method == "advance":
            assert self.cursor is not None
            bits, _ = self.eval(call.args[0])
            self.cursor.advance(bits)
            return 0, 0
        if method == "isValid":
            return int(self._header(target).valid), 1
        if method == "setValid":
            self._header(target).valid = True
            return 0, 0
        if method == "setInvalid":
            self._header(target).valid = False
            return 0, 0
        # extern instances (resolved within the current control)
        name = target.parts[-1]
        ctrl = self.control
        if method == "__direct__":
            # direct action invocation from the apply block
            if ctrl is not None and name in ctrl.actions:
                args = [self.eval(a)[0] for a in call.args]
                interp._run_action(name, args, self)
                return 0, 0
            raise P4RuntimeError(f"unknown direct call {name}()")
        if ctrl is not None and name in ctrl.register_actions and method == "execute":
            idx, _ = self.eval(call.args[0])
            ra = ctrl.register_actions[name]
            width = interp.register_decls[ra.register].value_type.width
            return interp.execute_register_action(ra, idx, self), width
        if ctrl is not None and name in ctrl.hashes and method == "get":
            h = ctrl.hashes[name]
            v, w = self.eval(call.args[0])
            fn = _HASH_ALGOS.get(h.algorithm.upper())
            if fn is None:
                raise P4RuntimeError(f"unknown hash algorithm {h.algorithm}")
            return hashing.truncate(fn(v, max(w, 8)), h.out_type.width), h.out_type.width
        if ctrl is not None and name in ctrl.randoms and method == "get":
            r = ctrl.randoms[name]
            return interp.rng.randrange(0, r.out_type.mask + 1), r.out_type.width
        if method == "apply":
            hit = interp.apply_table(str(target), self) is not None
            return int(hit), 1
        raise P4RuntimeError(f"unsupported method {target}.{method}()")

    # -- lvalues ---------------------------------------------------------------
    def _header(self, path: ast.Path) -> HeaderInstance:
        # hdr.<name> or just <name>
        name = path.parts[-1]
        inst = self.hdr.get(name)
        if inst is None:
            raise P4RuntimeError(f"unknown header {path}")
        return inst

    def _read_path(self, path: ast.Path) -> tuple[int, int]:
        parts = path.parts
        if len(parts) == 1:
            name = parts[0]
            if name in self.locals_:
                return self.locals_[name]
            if name in self.md:
                return self.md[name], self._md_width(name)
            if name in self.interp.program.constants:
                return self.interp.program.constants[name], 0
            raise P4RuntimeError(f"unknown name {name}")
        if len(parts) >= 3 or (len(parts) == 2 and parts[0] not in ("md", "meta", "ig_md")):
            # hdr.x.f
            inst = self.hdr.get(parts[-2])
            if inst is not None and parts[-1] in inst.fields:
                return inst.fields[parts[-1]], inst.width_of(parts[-1])
        # metadata: md.f
        fname = parts[-1]
        if fname in self.md:
            return self.md[fname], self._md_width(fname)
        raise P4RuntimeError(f"cannot read {path}")

    def _md_width(self, name: str) -> int:
        for struct in self.interp.program.structs.values():
            for ty, f in struct.fields:
                if f == name and isinstance(ty, ast.BitType):
                    return ty.width
        return 32

    def assign(self, target: Union[ast.Path, ast.Slice], value: int) -> None:
        if isinstance(target, ast.Slice):
            base = target.base
            assert isinstance(base, ast.Path)
            old, w = self._read_path(base)
            width = target.hi - target.lo + 1
            mask = ((1 << width) - 1) << target.lo
            merged = (old & ~mask) | ((value << target.lo) & mask)
            self.assign(base, merged)
            return
        parts = target.parts
        if len(parts) == 1 and parts[0] in self.locals_:
            _, w = self.locals_[parts[0]]
            self.locals_[parts[0]] = (value & ((1 << w) - 1), w)
            return
        if len(parts) >= 2:
            inst = self.hdr.get(parts[-2])
            if inst is not None and parts[-1] in inst.fields:
                w = inst.width_of(parts[-1])
                inst.fields[parts[-1]] = value & ((1 << w) - 1)
                return
        fname = parts[-1]
        if fname in self.md or len(parts) >= 1:
            w = self._md_width(fname)
            self.md[fname] = value & ((1 << w) - 1)
            return
        raise P4RuntimeError(f"cannot assign to {target}")
