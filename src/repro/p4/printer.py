"""P4-16 text from a :class:`repro.p4.ast.Program`: the inverse of
:func:`repro.p4.parser.parse_p4`.

``parse_p4(print_p4(tree)) == tree`` for every tree the parser produces
and every tree :mod:`repro.backends.p4tree` builds.  Nested operators are
parenthesised, so precedence never has to be reconstructed; constants and
typedefs, which the parser substitutes where they are used, are printed
as declarations and their values appear literally.

With ``v1model`` the same tree prints in v1model's externs: a
``register`` read and written around each RegisterAction's body, the
``hash()`` and ``random()`` functions.  The parser reads TNA's.
"""

from __future__ import annotations

from typing import Optional

from repro.p4 import ast

_PAD = "    "


def print_p4(program: ast.Program, *, v1model: bool = False) -> str:
    """The program as P4-16 source text, for TNA or for v1model."""
    out = [f"typedef {_type(ty)} {name};" for name, ty in program.typedefs.items()]
    out += [f"const bit<{max(8, v.bit_length())}> {n} = {v};" for n, v in program.constants.items()]
    out += [""] * bool(out)
    for kind, decls in (("header", program.headers), ("struct", program.structs)):
        for decl in decls.values():
            out += [f"{kind} {decl.name} {{", *(f"{_PAD}{_type(t)} {f};" for t, f in decl.fields), "}", ""]
    for parser in program.parsers.values():
        out.append(f"parser {parser.name}({_params(parser.params)}) {{")
        for state in parser.states.values():
            out.append(f"{_PAD}state {state.name} {{")
            _block(out, state.statements, 2)
            t = state.transition
            if isinstance(t, str):
                out.append(f"{_PAD * 2}transition {t};")
            else:
                out.append(f"{_PAD * 2}transition select({', '.join(map(_expr, t.exprs))}) {{")
                out += [f"{_PAD * 3}{', '.join(map(_keyset, c.keys))}: {c.state};" for c in t.cases]
                out.append(f"{_PAD * 2}}}")
            out.append(f"{_PAD}}}")
        out += ["}", ""]
    for control in program.controls.values():
        _control(out, control, v1model)
    return "\n".join(out)


# -- declarations ---------------------------------------------------------------


def _type(ty: ast.P4Type) -> str:
    if type(ty) is ast.BitType:
        return f"{'int' if ty.signed else 'bit'}<{ty.width}>"
    return str(ty)


def _params(params: list[tuple[str, ast.P4Type, str]]) -> str:
    return ", ".join(
        f"{d} {n}" if d in ("packet_in", "packet_out") else f"{d} {_type(t)} {n}"
        for d, t, n in params
    )


def _keyset(key: object) -> str:
    if isinstance(key, tuple):
        return f"{key[1]} &&& {key[2]}" if len(key) == 3 else f"{key[0]} .. {key[1]}"
    return str(key)


def _call(name: str, args: list[int]) -> str:
    return f"{name}({', '.join(map(str, args))})"


def _control(out: list[str], ctrl: ast.ControlDecl, v1model: bool) -> None:
    v1 = ctrl if v1model else None  # whose externs print as v1model's
    out.append(f"control {ctrl.name}({_params(ctrl.params)}) {{")
    _block(out, ctrl.locals_, 1)
    for kind, name in ctrl.decl_order:
        if kind == "action":
            action = ctrl.actions[name]
            params = ", ".join(f"{_type(t)} {p}" for t, p in action.params) if action.params else ""
            out.append(f"{_PAD}action {name}({params}) {{")
            _block(out, action.body, 2, v1)
            out.append(f"{_PAD}}}")
        elif kind == "table":
            _table(out, ctrl.tables[name])
        elif kind == "register":
            r = ctrl.registers[name]
            out.append(f"{_PAD}register<{_type(r.value_type)}>({r.size}) {name};" if v1 else
                       f"{_PAD}Register<{_type(r.value_type)}, {_type(r.index_type)}>({r.size}) {name};")
        elif v1 is not None:
            continue  # v1model's externs are functions, called where the tree calls the object
        elif kind == "register_action":
            ra = ctrl.register_actions[name]
            reg = ctrl.registers.get(ra.register)
            value, index = (_type(reg.value_type), _type(reg.index_type)) if reg else ("bit<32>",) * 2
            rv = f", out {value} {ra.rv_param}" if ra.rv_param else ""
            out.append(f"{_PAD}RegisterAction<{value}, {index}, {value}>({ra.register}) {name} = {{")
            out.append(f"{_PAD * 2}void apply(inout {value} {ra.value_param}{rv}) {{")
            _block(out, ra.body, 3)
            out += [f"{_PAD * 2}}}", f"{_PAD}}};"]
        elif kind == "hash":
            h = ctrl.hashes[name]
            out.append(f"{_PAD}Hash<{_type(h.out_type)}>(HashAlgorithm_t.{h.algorithm}) {name};")
        elif kind == "random":
            out.append(f"{_PAD}Random<{_type(ctrl.randoms[name].out_type)}>() {name};")
    out.append(f"{_PAD}apply {{")
    _block(out, ctrl.apply, 2, v1)
    out += [f"{_PAD}}}", "}", ""]


def _table(out: list[str], table: ast.TableDecl) -> None:
    pad = _PAD * 2
    if not table.keys and not table.entries and table.default_action:  # an action run as a table
        out.append(f"{_PAD}table {table.name} {{ actions = {{ {' '.join(a + ';' for a in table.actions)} }} "
                   f"default_action = {_call(*table.default_action)}; size = {table.size}; }}")
        return
    out.append(f"{_PAD}table {table.name} {{")
    if table.keys:
        out += [f"{pad}key = {{", *(f"{pad}{_PAD}{_expr(e)} : {k};" for e, k in table.keys), f"{pad}}}"]
    out.append(f"{pad}actions = {{ {' '.join(a + ';' for a in table.actions)} }}")
    if table.default_action is not None:
        out.append(f"{pad}default_action = {_call(*table.default_action)};")
    if table.entries:
        out.append(f"{pad}{'const ' * table.const_entries}entries = {{")
        for entry in table.entries:
            keys = [_keyset(k) for k in entry.keys]
            text = keys[0] if len(keys) == 1 else f"({', '.join(keys)})"
            out.append(f"{pad}{_PAD}{text} : {_call(entry.action, entry.args)};")
        out.append(f"{pad}}}")
    out += [f"{pad}size = {table.size};", f"{_PAD}}}"]


# -- statements -----------------------------------------------------------------


def _block(out: list[str], stmts: list[ast.Stmt], depth: int, v1: Optional[ast.ControlDecl] = None) -> None:
    pad = _PAD * depth
    for s in stmts:
        if v1 is not None and _v1model(out, s, depth, v1):
            continue
        kind = type(s)
        if kind is ast.Assign:
            out.append(f"{pad}{_expr(s.target)} = {_top(s.value)};")
        elif kind is ast.VarDecl:
            out.append(f"{pad}{_type(s.type)} {s.name}{'' if s.init is None else ' = ' + _top(s.init)};")
        elif kind is ast.If:
            out.append(f"{pad}if ({_top(s.cond)}) {{")
            _block(out, s.then, depth + 1, v1)
            if s.els is not None:
                out.append(f"{pad}}} else {{")
                _block(out, s.els, depth + 1, v1)
            out.append(f"{pad}}}")
        elif kind is ast.CallStmt:
            out.append(f"{pad}{_expr(s.call)};")
        elif kind is ast.ApplyTable:
            out.append(f"{pad}{s.table}.apply();")
        elif kind is ast.Exit:
            out.append(f"{pad}exit;")
        elif kind is ast.Switch:
            out.append(f"{pad}switch ({s.table}.apply().action_run) {{")
            for label, body in s.cases:
                out.append(f"{pad}{_PAD}{label}: {{")
                _block(out, body, depth + 2, v1)
                out.append(f"{pad}{_PAD}}}")
            out.append(f"{pad}}}")
        else:  # pragma: no cover - statement set exhaustive
            raise TypeError(f"cannot print {s!r}")


def _v1model(out: list[str], s: ast.Stmt, depth: int, ctrl: ast.ControlDecl) -> bool:
    """``s`` in v1model's externs when it runs a RegisterAction, a Hash or
    a Random of ``ctrl``; False for any other statement."""
    call = s.init if isinstance(s, ast.VarDecl) else s.value if isinstance(s, ast.Assign) else getattr(s, "call", None)
    if type(call) is not ast.MethodCall or call.method == "__direct__":
        return False
    name = str(call.target)
    extern = ctrl.register_actions.get(name) or ctrl.hashes.get(name) or ctrl.randoms.get(name)
    if extern is None:
        return False
    pad = _PAD * depth
    into = s.name if isinstance(s, ast.VarDecl) else _expr(s.target) if isinstance(s, ast.Assign) else None
    if isinstance(s, ast.VarDecl):
        out.append(f"{pad}{_type(s.type)} {s.name};")
    if isinstance(extern, ast.RegisterActionDecl):  # read, the body, write back
        reg, index, mem = extern.register, _expr(call.args[0]), extern.value_param
        width = _type(ctrl.registers[reg].value_type)
        out.append(f"{pad}{{")
        out += [f"{pad}{_PAD}{width} {p};" for p in (mem, extern.rv_param) if p]
        out.append(f"{pad}{_PAD}{reg}.read({mem}, {index});")
        _block(out, extern.body, depth + 1)
        out.append(f"{pad}{_PAD}{reg}.write({index}, {mem});")
        if extern.rv_param and into:
            out.append(f"{pad}{_PAD}{into} = {extern.rv_param};")
        out.append(f"{pad}}}")
        return True
    w = extern.out_type.width
    if isinstance(extern, ast.HashDecl):
        out.append(f"{pad}hash({into}, HashAlgorithm.{extern.algorithm.lower()}, (bit<{w}>)0, "
                   f"{_expr(call.args[0])}, (bit<{w + 1}>){1 << w});")
    else:
        out.append(f"{pad}random({into}, (bit<{w}>)0, (bit<{w}>){(1 << w) - 1});")
    return True


# -- expressions ----------------------------------------------------------------


def _expr(e: ast.Expr) -> str:
    kind = type(e)
    if kind is ast.Path:
        return ".".join(e.parts)
    if kind is ast.Num:
        return f"{e.width}w{e.value}" if e.width else str(e.value)
    if kind is ast.Binary:
        return f"({_expr(e.left)} {e.op} {_expr(e.right)})"
    if kind is ast.CastExpr:
        return f"({_type(e.to)}){_postfix(e.value)}"
    if kind is ast.Ternary:
        return f"({_expr(e.cond)} ? {_expr(e.then)} : {_expr(e.els)})"
    if kind is ast.MethodCall:
        args = ", ".join(map(_expr, e.args))
        return f"{e.target}({args})" if e.method == "__direct__" else f"{e.target}.{e.method}({args})"
    if kind is ast.Slice:
        return f"{_postfix(e.base)}[{e.hi}:{e.lo}]"
    if kind is ast.Unary:
        return f"{e.op}{_postfix(e.value)}"
    if kind is ast.ApplyResult:
        return f"{e.table}.apply().{e.member}"
    if kind is ast.TupleExpr:
        return "{" + ", ".join(map(_expr, e.items)) + "}"
    raise TypeError(f"cannot print {e!r}")  # pragma: no cover - expression set exhaustive


def _top(e: ast.Expr) -> str:
    """``e`` where nothing binds tighter around it (a statement's value)."""
    text = _expr(e)
    return text[1:-1] if type(e) is ast.Binary or type(e) is ast.Ternary else text


def _postfix(e: ast.Expr) -> str:
    """``e`` where a unary operator, a cast or a slice applies to it."""
    text = _expr(e)
    if type(e) in _BARE or (type(e) is ast.Num and e.value >= 0):
        return text
    return f"({text})"


#: expressions a postfix operator applies to without parentheses
_BARE = {ast.Path, ast.MethodCall, ast.ApplyResult, ast.Binary, ast.Ternary}
