"""Lowering from the NetCL AST to :mod:`repro.ir`.

Responsibilities beyond plain translation:

* **Net-function inlining.**  Calls to ``_net_`` functions are expanded at
  their call sites with by-reference parameters aliased to the caller's
  lvalues — the same effect as the paper's LLVM-level inline pass (§VI-B),
  performed during lowering.
* **Full loop unrolling.**  ``for`` loops with compile-time trip counts are
  unrolled by binding the induction variable to a constant per iteration;
  anything else is rejected (§V-D: only fully-unrollable loops).
* **Kernel argument ABI.**  By-value scalars are copied into locals at
  entry (device-local modifications, §V-A); by-reference scalars and all
  array arguments read/write NetCL message fields directly.
* **Action discipline.**  Forwarding actions may only appear in ``return``
  statements; every fall-through path gets the implicit ``pass()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.lang import ast
from repro.lang import builtins as bi
from repro.lang.errors import CompileError
from repro.lang.sema import FuncInfo, GlobalInfo, SemaResult
from repro.ir.blocks import BasicBlock
from repro.ir.builder import IRBuilder
from repro.ir.instructions import (
    ActionKind,
    Alloca,
    BinOpKind,
    Cast,
    Constant,
    ICmpPred,
    Value,
)
from repro.ir.module import Argument, Function, FunctionKind, GlobalVar, Module
from repro.ir.types import ArrayShape, IntType, U8, U16, U32, int_type
from repro.syntax import fold

MAX_UNROLL = 4096  # hard cap on loop unrolling (runaway-loop backstop)


# -- lvalues -------------------------------------------------------------------


@dataclass
class LocalLV:
    slot: Alloca
    indices: list[Value]


@dataclass
class MsgLV:
    field: str
    elem: IntType
    index: Optional[Value]  # None for scalar fields


@dataclass
class GlobalLV:
    gv: GlobalVar
    indices: list[Value]


LValue = Union[LocalLV, MsgLV, GlobalLV]


# -- bindings ------------------------------------------------------------------


@dataclass
class LocalBinding:
    slot: Alloca


@dataclass
class MsgScalarBinding:
    field: str
    elem: IntType


@dataclass
class MsgArrayBinding:
    field: str
    elem: IntType
    count: int


@dataclass
class GlobalBinding:
    info: GlobalInfo
    gv: GlobalVar


@dataclass
class ConstBinding:
    """An unrolled induction variable, pinned to a constant this iteration."""

    value: Constant


@dataclass
class AliasBinding:
    """A net-function by-reference parameter aliasing a caller lvalue."""

    lv: LValue


Binding = Union[
    LocalBinding, MsgScalarBinding, MsgArrayBinding, GlobalBinding, ConstBinding, AliasBinding
]


def _ir_type(ty: ast.SrcType, line: int = 0) -> IntType:
    if isinstance(ty, ast.ScalarType):
        return int_type(ty.width, ty.signed)
    raise CompileError(f"expected a fundamental type, got {ty}", line)


class _FunctionLowering:
    """Lowers one kernel (or standalone net function) to IR."""

    def __init__(self, lowering: "_ModuleLowering", info: FuncInfo) -> None:
        self.ctx = lowering
        self.info = info
        self.sema = lowering.sema
        self.module = lowering.module
        decl = info.decl
        args = []
        for p in decl.params:
            ty = _ir_type(p.type, p.line)
            args.append(
                Argument(
                    p.name,
                    ty,
                    byref=p.byref,
                    spec=p.element_count,
                    is_array=p.is_array,
                    tail=p.tail,
                )
            )
        self.fn = Function(
            decl.name,
            FunctionKind.KERNEL if info.is_kernel else FunctionKind.NETFN,
            args,
            computation=info.computation,
            locations=info.locations,
            return_type=None
            if isinstance(decl.ret_type, ast.VoidSrcType)
            else _ir_type(decl.ret_type, decl.line),
            source_line=decl.line, col=decl.col,
        )
        self.b = IRBuilder(self.fn)
        self.scopes: list[dict[str, Binding]] = [{}]
        self.inline_depth = 0
        # While lowering an inlined net-function body this holds
        # (return slot or None, continuation block).
        self._inline_ret: Optional[tuple[Optional[Alloca], BasicBlock]] = None
        #: whether that continuation block has been jumped to yet
        self._inline_reached = False

    # -- scope helpers -----------------------------------------------------------
    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def bind(self, name: str, binding: Binding) -> None:
        self.scopes[-1][name] = binding

    def resolve(self, name: str, line: int) -> Binding:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        ginfo = self.sema.globals.get(name)
        if ginfo is not None:
            gv = self.ctx.global_var(name)
            return GlobalBinding(ginfo, gv)
        raise CompileError(f"use of undeclared identifier '{name}'", line)

    # -- entry ----------------------------------------------------------------------
    def run(self) -> Function:
        entry = self.fn.new_block("entry")
        self.b.position_at_end(entry)
        decl = self.info.decl
        for p in decl.params:
            ty = _ir_type(p.type, p.line)
            if p.is_array:
                self.bind(p.name, MsgArrayBinding(p.name, ty, p.element_count))
            elif p.byref:
                self.bind(p.name, MsgScalarBinding(p.name, ty))
            else:
                # By-value scalar: device-local copy (§V-A).
                slot = self.b.alloca(ty, name=f"{p.name}.addr")
                init = self.b.load_msg(p.name, ty, name=f"{p.name}.init")
                self.b.store(slot, init)
                self.bind(p.name, LocalBinding(slot))
        assert decl.body is not None
        self.lower_block(decl.body)
        if not self._current_dead():
            # Implicit pass() on every fall-through path (§V-A).
            self.b.ret_action(ActionKind.PASS)
        return self.fn

    # -- statements ------------------------------------------------------------------
    def lower_block(self, block: ast.Block) -> None:
        self.push_scope()
        for stmt in block.stmts:
            if self._current_dead():
                # Statements past a point where every path has returned are
                # dropped; record them so the linter can report NCL006.
                self.module.dropped_statements.append(
                    (self.fn.name, stmt.line, stmt.col)
                )
                break
            self.lower_stmt(stmt)
        self.pop_scope()

    def _current_dead(self) -> bool:
        return self.b.block is None or self.b.block.is_terminated

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        self.b.set_source_line(stmt.line, stmt.col)
        if isinstance(stmt, ast.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            self.lower_local_decl(stmt)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.For):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self.lower_return(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self.lower_expr(stmt.expr, want_value=False)
        else:  # pragma: no cover - parser emits only the above
            raise CompileError(f"unsupported statement {type(stmt).__name__}", stmt.line)

    def lower_local_decl(self, decl: ast.VarDecl) -> None:
        if decl.specs.is_device:
            if decl.specs.static:
                raise CompileError(
                    "static local device memory must be declared at file scope "
                    "in this implementation",
                    decl.line,
                )
            raise CompileError(
                f"device memory specifiers on local '{decl.name}' are not allowed",
                decl.line,
            )
        if isinstance(decl.type, ast.AutoType):
            if decl.init is None:
                raise CompileError(f"'auto' variable '{decl.name}' needs an initializer", decl.line)
            init_v = self.rvalue(decl.init)
            ty = init_v.type if isinstance(init_v.type, IntType) else U32
            slot = self.b.alloca(ty, name=decl.name)
            self.b.store(slot, init_v)
            self.bind(decl.name, LocalBinding(slot))
            return
        ty = _ir_type(decl.type, decl.line)
        shape = ArrayShape(decl.dims)
        slot = self.b.alloca(ty, shape, name=decl.name)
        self.bind(decl.name, LocalBinding(slot))
        if decl.init is None:
            return
        if shape.rank == 0:
            if isinstance(decl.init, ast.InitList):
                raise CompileError(f"scalar '{decl.name}' initialized with a list", decl.line)
            self.b.store(slot, self.coerce(self.rvalue(decl.init), ty))
        else:
            if not isinstance(decl.init, ast.InitList):
                raise CompileError(f"array '{decl.name}' requires a list initializer", decl.line)
            flat = _flatten_init(decl.init, shape, decl.line)
            for i, item in enumerate(flat):
                v = self.coerce(self.rvalue(item), ty)
                idxs = _unflatten(i, shape)
                self.b.store(slot, v, [Constant(U32, j) for j in idxs])

    def lower_if(self, stmt: ast.If) -> None:
        assert stmt.cond is not None and stmt.then is not None
        cond = self.condition(stmt.cond)
        then_bb = self.b.new_block("if.then")
        else_bb = self.b.new_block("if.else") if stmt.els is not None else None
        merge_bb = self.b.new_block("if.end")
        self.b.br(cond, then_bb, else_bb or merge_bb)
        # Only this statement jumps to the merge block: the branch when
        # there is no else arm, and each arm that falls through.
        merge_reached = else_bb is None

        self.b.position_at_end(then_bb)
        self.push_scope()
        self.lower_stmt(stmt.then)
        self.pop_scope()
        if not self._current_dead():
            self.b.jmp(merge_bb)
            merge_reached = True

        if else_bb is not None:
            self.b.position_at_end(else_bb)
            self.push_scope()
            assert stmt.els is not None
            self.lower_stmt(stmt.els)
            self.pop_scope()
            if not self._current_dead():
                self.b.jmp(merge_bb)
                merge_reached = True

        if merge_reached:
            self.b.position_at_end(merge_bb)
        else:
            # Both arms terminated: the merge block is unreachable.
            self.fn.remove_block(merge_bb)
            self.b.block = None

    def lower_for(self, stmt: ast.For) -> None:
        """Fully unroll a ``for`` loop with compile-time bounds (§V-D)."""
        var, start = self._loop_init(stmt)
        trip = 0
        value = start
        self.push_scope()
        while True:
            if not self._loop_cond(stmt, var, value):
                break
            trip += 1
            if trip > MAX_UNROLL:
                raise CompileError(
                    f"loop exceeds the unroll limit of {MAX_UNROLL} iterations", stmt.line
                )
            self.bind(var, ConstBinding(Constant(U32, value)))
            assert stmt.body is not None
            self.push_scope()
            self.lower_stmt(stmt.body)
            self.pop_scope()
            if self._current_dead():
                # Every iteration past an unconditional action is dead code.
                break
            value = self._loop_step(stmt, var, value)
        self.pop_scope()

    def _loop_init(self, stmt: ast.For) -> tuple[str, int]:
        init = stmt.init
        if isinstance(init, ast.VarDecl):
            if init.init is None:
                raise CompileError("loop induction variable needs a constant initializer", stmt.line)
            v = self._const_of(init.init)
            if v is None:
                raise CompileError(
                    "only fully-unrollable loops are supported: loop start is "
                    "not a compile-time constant (§V-D)",
                    stmt.line,
                )
            return init.name, v
        if isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assign):
            target = init.expr.target
            if isinstance(target, ast.Ident) and init.expr.op == "=":
                v = self._const_of(init.expr.value)
                if v is not None:
                    return target.name, v
        raise CompileError(
            "only fully-unrollable loops are supported: cannot determine the "
            "induction variable (§V-D)",
            stmt.line,
        )

    def _loop_cond(self, stmt: ast.For, var: str, value: int) -> bool:
        cond = stmt.cond
        if cond is None:
            raise CompileError("loop without a bound cannot be unrolled (§V-D)", stmt.line)
        if isinstance(cond, ast.Binary) and isinstance(cond.left, ast.Ident) and cond.left.name == var:
            bound = self._const_of(cond.right)
            if bound is not None:
                table = {
                    "<": value < bound,
                    "<=": value <= bound,
                    ">": value > bound,
                    ">=": value >= bound,
                    "!=": value != bound,
                }
                if cond.op not in table:
                    raise CompileError(
                        "unsupported loop comparison operator for unrolling (§V-D)",
                        stmt.line,
                    )
                return table[cond.op]
        raise CompileError(
            "only fully-unrollable loops are supported: loop bound is not a "
            "compile-time constant comparison on the induction variable (§V-D)",
            stmt.line,
        )

    def _loop_step(self, stmt: ast.For, var: str, value: int) -> int:
        step = stmt.step
        if isinstance(step, ast.Unary) and step.op in ("++", "--"):
            if isinstance(step.operand, ast.Ident) and step.operand.name == var:
                return value + 1 if step.op == "++" else value - 1
        if isinstance(step, ast.Assign) and isinstance(step.target, ast.Ident):
            if step.target.name == var and step.op in ("+=", "-="):
                delta = self._const_of(step.value)
                if delta is not None:
                    return value + delta if step.op == "+=" else value - delta
        raise CompileError(
            "only fully-unrollable loops are supported: loop step must be "
            "++/--/+=/-= by a constant (§V-D)",
            stmt.line,
        )

    def _const_of(self, expr: Optional[ast.Expr]) -> Optional[int]:
        """Compile-time evaluation, resolving unrolled loop variables."""
        if expr is None:
            return None
        if isinstance(expr, ast.Num):
            return expr.value
        if isinstance(expr, ast.Ident):
            # Unrolled outer-loop variables are constants too.
            try:
                binding = self.resolve(expr.name, expr.line)
            except CompileError:
                return None
            if isinstance(binding, ConstBinding):
                return binding.value.value
            return None
        if isinstance(expr, ast.Unary) and expr.operand is not None:
            return fold(expr.op, self._const_of(expr.operand))
        if isinstance(expr, ast.Binary) and expr.left is not None and expr.right is not None:
            return fold(expr.op, self._const_of(expr.left), self._const_of(expr.right))
        return None

    # -- return / actions --------------------------------------------------------------
    def lower_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self._emit_plain_return()
            return
        expr = stmt.value
        # `return cond ? X : Y` where X/Y may be actions or void calls: lower
        # as a branch with a return in each arm (Fig. 4 line 20 idiom).
        if isinstance(expr, ast.Ternary):
            assert expr.cond is not None and expr.then is not None and expr.els is not None
            if self._is_action_or_void(expr.then) or self._is_action_or_void(expr.els):
                branch = ast.If(
                    line=stmt.line, col=stmt.col,
                    cond=expr.cond,
                    then=ast.Return(line=stmt.line, col=stmt.col, value=expr.then),
                    els=ast.Return(line=stmt.line, col=stmt.col, value=expr.els),
                )
                self.lower_if(branch)
                return
        # Forwarding actions terminate the kernel even when the return sits
        # inside an inlined net-function body.
        if isinstance(expr, ast.Call) and expr.is_ncl and expr.name in bi.ACTIONS:
            self._emit_action(expr)
            return
        if self._inline_ret is not None:
            ret_slot, _ = self._inline_ret
            # A void net-function call in return position.
            if ret_slot is None:
                self.lower_expr(expr, want_value=False)
                self._jmp_cont()
                return
            value = self.coerce(self.rvalue(expr), ret_slot.elem)
            self.b.store(ret_slot, value)
            self._jmp_cont()
            return
        # A void net-function call in return position of a kernel: run it,
        # then the implicit action.
        if isinstance(expr, ast.Call) and not expr.is_ncl and expr.name != "lookup":
            callee = self.sema.functions.get(expr.name)
            if callee is not None and isinstance(callee.decl.ret_type, ast.VoidSrcType):
                self.lower_expr(expr, want_value=False)
                if not self._current_dead():
                    self._emit_plain_return()
                return
        raise CompileError(
            "kernels return forwarding actions, not values (§V-A)", stmt.line
        )

    def _emit_plain_return(self) -> None:
        if self._inline_ret is not None:
            self._jmp_cont()
        else:
            self.b.ret_action(ActionKind.PASS)

    def _jmp_cont(self) -> None:
        """Leave the net function being inlined: jump to its continuation."""
        assert self._inline_ret is not None
        self.b.jmp(self._inline_ret[1])
        self._inline_reached = True

    def _is_action_or_void(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Call):
            if expr.is_ncl and expr.name in bi.ACTIONS:
                return True
            if not expr.is_ncl:
                callee = self.sema.functions.get(expr.name)
                if callee is not None and isinstance(callee.decl.ret_type, ast.VoidSrcType):
                    return True
        return False

    def _emit_action(self, call: ast.Call) -> None:
        kind = bi.ACTIONS[call.name]
        if kind.takes_target:
            if len(call.args) != 1:
                raise CompileError(f"ncl::{call.name} takes exactly one argument", call.line)
            target = self.coerce(self.rvalue(call.args[0]), U16)
            self.b.ret_action(kind, target)
        else:
            if call.args:
                raise CompileError(f"ncl::{call.name} takes no arguments", call.line)
            self.b.ret_action(kind)

    # -- expressions --------------------------------------------------------------------
    def rvalue(self, expr: ast.Expr) -> Value:
        v = self.lower_expr(expr, want_value=True)
        assert v is not None
        return v

    def condition(self, expr: ast.Expr) -> Value:
        v = self.rvalue(expr)
        if isinstance(v.type, IntType) and v.type.width == 1:
            return v
        return self.b.icmp(ICmpPred.NE, v, Constant(v.type, 0), name="tobool")

    def coerce(self, v: Value, to: IntType) -> Value:
        return self.b.coerce(v, to)

    def lower_expr(self, expr: ast.Expr, *, want_value: bool) -> Optional[Value]:
        self.b.set_source_line(expr.line, expr.col)
        if isinstance(expr, ast.Num):
            # C literal typing: decimal literals are (signed) int when they
            # fit, then progressively wider.
            if expr.value <= 0x7FFFFFFF:
                ty = int_type(32, True)
            elif expr.value <= 0xFFFFFFFF:
                ty = U32
            else:
                ty = int_type(64, expr.value <= 0x7FFFFFFFFFFFFFFF)
            return Constant(ty, expr.value)
        if isinstance(expr, ast.Ident):
            binding = self.resolve(expr.name, expr.line)
            if isinstance(binding, ConstBinding):
                return binding.value
            return self.load_lvalue(self._binding_lvalue(binding, expr))
        if isinstance(expr, ast.Member):
            return self.lower_member(expr)
        if isinstance(expr, ast.Index):
            return self.load_lvalue(self.lvalue(expr))
        if isinstance(expr, ast.Unary):
            return self.lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self.lower_binary(expr)
        if isinstance(expr, ast.Assign):
            return self.lower_assign(expr, want_value=want_value)
        if isinstance(expr, ast.Ternary):
            return self.lower_ternary(expr)
        if isinstance(expr, ast.Call):
            return self.lower_call(expr, want_value=want_value)
        raise CompileError(f"unsupported expression {type(expr).__name__}", expr.line)

    def lower_member(self, expr: ast.Member) -> Value:
        if expr.base == "device":
            if expr.field_name == "id":
                return self.b.intrinsic("device.id", [], U16, name="devid")
            if expr.field_name == "kind":
                return self.b.intrinsic("device.kind", [], U8, name="devkind")
            raise CompileError(f"unknown builtin device.{expr.field_name}", expr.line)
        if expr.base == "msg":
            if expr.field_name in ("src", "dst", "from", "to"):
                return self.b.load_msg(f"__{expr.field_name}", U16, name=f"msg.{expr.field_name}")
            raise CompileError(f"unknown builtin msg.{expr.field_name}", expr.line)
        raise CompileError(
            f"member access on '{expr.base}' is not supported (only device.*/msg.*)",
            expr.line,
        )

    # -- lvalues -------------------------------------------------------------------------
    def lvalue(self, expr: ast.Expr) -> LValue:
        if isinstance(expr, ast.Ident):
            binding = self.resolve(expr.name, expr.line)
            return self._binding_lvalue(binding, expr)
        if isinstance(expr, ast.Index):
            indices: list[ast.Expr] = []
            base = expr
            while isinstance(base, ast.Index):
                assert base.index is not None and base.base is not None
                indices.append(base.index)
                base = base.base
            indices.reverse()
            if not isinstance(base, ast.Ident):
                raise CompileError("indexed expression must be a named array", expr.line)
            binding = self.resolve(base.name, base.line)
            idx_vals = [self.coerce(self.rvalue(i), U32) for i in indices]
            if isinstance(binding, AliasBinding):
                lv = binding.lv
                if isinstance(lv, GlobalLV):
                    return GlobalLV(lv.gv, lv.indices + idx_vals)
                if isinstance(lv, MsgLV) and lv.index is None and len(idx_vals) == 1:
                    return MsgLV(lv.field, lv.elem, idx_vals[0])
                if isinstance(lv, LocalLV):
                    return LocalLV(lv.slot, lv.indices + idx_vals)
                raise CompileError("cannot index this reference", expr.line)
            if isinstance(binding, LocalBinding):
                if binding.slot.shape.rank != len(idx_vals):
                    raise CompileError(
                        f"'{base.name}' expects {binding.slot.shape.rank} "
                        f"indices, got {len(idx_vals)}",
                        expr.line,
                    )
                return LocalLV(binding.slot, idx_vals)
            if isinstance(binding, MsgArrayBinding):
                if len(idx_vals) != 1:
                    raise CompileError(
                        f"message field array '{base.name}' is one-dimensional", expr.line
                    )
                return MsgLV(binding.field, binding.elem, idx_vals[0])
            if isinstance(binding, GlobalBinding):
                if binding.info.space.is_lookup:
                    raise CompileError(
                        f"lookup memory '{base.name}' is searched, not indexed: "
                        "use ncl::lookup (§V-B)",
                        expr.line,
                    )
                if binding.gv.shape.rank != len(idx_vals):
                    raise CompileError(
                        f"'{base.name}' expects {binding.gv.shape.rank} indices, "
                        f"got {len(idx_vals)}",
                        expr.line,
                    )
                return GlobalLV(binding.gv, idx_vals)
            raise CompileError(f"'{base.name}' cannot be indexed", expr.line)
        raise CompileError("expression is not an lvalue", expr.line)

    def _binding_lvalue(self, binding: Binding, expr: ast.Ident) -> LValue:
        if isinstance(binding, LocalBinding):
            if binding.slot.shape.rank != 0:
                raise CompileError(f"array '{expr.name}' used without index", expr.line)
            return LocalLV(binding.slot, [])
        if isinstance(binding, MsgScalarBinding):
            return MsgLV(binding.field, binding.elem, None)
        if isinstance(binding, MsgArrayBinding):
            raise CompileError(f"array argument '{expr.name}' used without index", expr.line)
        if isinstance(binding, GlobalBinding):
            if binding.info.space.is_lookup:
                raise CompileError(
                    f"lookup memory '{expr.name}' may only be accessed through "
                    "ncl::lookup (§V-B)",
                    expr.line,
                )
            if binding.gv.shape.rank != 0:
                raise CompileError(f"global array '{expr.name}' used without index", expr.line)
            return GlobalLV(binding.gv, [])
        if isinstance(binding, ConstBinding):
            raise CompileError(
                f"cannot assign to unrolled loop variable '{expr.name}'", expr.line
            )
        if isinstance(binding, AliasBinding):
            return binding.lv
        raise CompileError(f"'{expr.name}' is not an lvalue", expr.line)

    def load_lvalue(self, lv: LValue) -> Value:
        if isinstance(lv, LocalLV):
            # Reading an unrolled constant is folded at the binding level; a
            # plain local read is a Load (mem2reg promotes scalars).
            return self.b.load(lv.slot, lv.indices)
        if isinstance(lv, MsgLV):
            return self.b.load_msg(lv.field, lv.elem, lv.index)
        # Global register memory: plain indexing reads are atomic reads
        # without ordering guarantees (§V-B); LoadGlobal models that.
        return self.b.load_global(lv.gv, lv.indices)

    def store_lvalue(self, lv: LValue, value: Value) -> None:
        if isinstance(lv, LocalLV):
            self.b.store(lv.slot, self.coerce(value, lv.slot.elem), lv.indices)
        elif isinstance(lv, MsgLV):
            self.b.store_msg(lv.field, self.coerce(value, lv.elem), lv.index)
        else:
            self.b.store_global(lv.gv, self.coerce(value, lv.gv.elem), lv.indices)

    def _lvalue_type(self, lv: LValue) -> IntType:
        if isinstance(lv, LocalLV):
            return lv.slot.elem
        if isinstance(lv, MsgLV):
            return lv.elem
        return lv.gv.elem

    # -- operators -----------------------------------------------------------------------
    def lower_unary(self, expr: ast.Unary) -> Value:
        assert expr.operand is not None
        if expr.op == "!":
            v = self.rvalue(expr.operand)
            return self.b.icmp(ICmpPred.EQ, v, Constant(v.type, 0), name="lnot")
        if expr.op == "~":
            v = self.rvalue(expr.operand)
            return self.b.binop(BinOpKind.XOR, v, Constant(v.type, v.type.mask), name="not")
        if expr.op == "-":
            v = self.rvalue(expr.operand)
            return self.b.binop(BinOpKind.SUB, Constant(v.type, 0), v, name="neg")
        if expr.op == "&":
            raise CompileError(
                "address-of is only allowed on global memory arguments of "
                "atomic builtins (§V-D: no pointers in device code)",
                expr.line,
            )
        if expr.op in ("++", "--"):
            lv = self.lvalue(expr.operand)
            old = self.load_lvalue(lv)
            ty = self._lvalue_type(lv)
            kind = BinOpKind.ADD if expr.op == "++" else BinOpKind.SUB
            new = self.b.binop(kind, old, Constant(ty, 1), name="incdec")
            self.store_lvalue(lv, new)
            return new if expr.prefix else old
        raise CompileError(f"unsupported unary operator {expr.op}", expr.line)

    def _common_type(self, a: IntType, b: IntType) -> IntType:
        # Usual arithmetic conversions, restricted to our width lattice:
        # wider wins; equal widths prefer unsigned.
        width = max(a.width, b.width, 8 if (a.width > 1 or b.width > 1) else 1)
        if a.width == b.width:
            signed = a.signed and b.signed
        else:
            signed = (a if a.width > b.width else b).signed
        return int_type(width, signed)

    def lower_binary(self, expr: ast.Binary) -> Value:
        assert expr.left is not None and expr.right is not None
        op = expr.op
        if op in ("&&", "||"):
            # P4 pipelines evaluate both sides; NetCL makes that explicit
            # (operands are side-effect-free in well-formed device code).
            lhs = self.condition(expr.left)
            rhs = self.condition(expr.right)
            kind = BinOpKind.AND if op == "&&" else BinOpKind.OR
            return self.b.binop(kind, lhs, rhs, name="logic")
        lhs = self.rvalue(expr.left)
        rhs = self.rvalue(expr.right)
        assert isinstance(lhs.type, IntType) and isinstance(rhs.type, IntType)
        common = self._common_type(lhs.type, rhs.type)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            lhs_c, rhs_c = self.coerce(lhs, common), self.coerce(rhs, common)
            pred = {
                "==": ICmpPred.EQ,
                "!=": ICmpPred.NE,
                "<": ICmpPred.SLT if common.signed else ICmpPred.ULT,
                "<=": ICmpPred.SLE if common.signed else ICmpPred.ULE,
                ">": ICmpPred.SGT if common.signed else ICmpPred.UGT,
                ">=": ICmpPred.SGE if common.signed else ICmpPred.UGE,
            }[op]
            return self.b.icmp(pred, lhs_c, rhs_c, name="cmp")
        if op in ("<<", ">>"):
            rhs_c = self.coerce(rhs, lhs.type)
            if op == "<<":
                kind = BinOpKind.SHL
            else:
                kind = BinOpKind.ASHR if lhs.type.signed else BinOpKind.LSHR
            return self.b.binop(kind, lhs, rhs_c, name="shift")
        lhs_c, rhs_c = self.coerce(lhs, common), self.coerce(rhs, common)
        kind = {
            "+": BinOpKind.ADD,
            "-": BinOpKind.SUB,
            "*": BinOpKind.MUL,
            "/": BinOpKind.SDIV if common.signed else BinOpKind.UDIV,
            "%": BinOpKind.SREM if common.signed else BinOpKind.UREM,
            "&": BinOpKind.AND,
            "|": BinOpKind.OR,
            "^": BinOpKind.XOR,
        }.get(op)
        if kind is None:
            raise CompileError(f"unsupported binary operator {op}", expr.line)
        return self.b.binop(kind, lhs_c, rhs_c, name="bin")

    def lower_assign(self, expr: ast.Assign, *, want_value: bool) -> Optional[Value]:
        assert expr.target is not None and expr.value is not None
        lv = self.lvalue(expr.target)
        ty = self._lvalue_type(lv)
        if expr.op == "=":
            value = self.coerce(self.rvalue(expr.value), ty)
        else:
            old = self.load_lvalue(lv)
            rhs = self.rvalue(expr.value)
            value = self.coerce(self._apply_compound(expr.op[:-1], old, rhs, expr.line), ty)
        self.store_lvalue(lv, value)
        return value if want_value else None

    def _apply_compound(self, op: str, old: Value, rhs: Value, line: int) -> Value:
        assert isinstance(old.type, IntType)
        if op in ("<<", ">>"):
            rhs_c = self.coerce(rhs, old.type)
            kind = (
                BinOpKind.SHL
                if op == "<<"
                else (BinOpKind.ASHR if old.type.signed else BinOpKind.LSHR)
            )
            return self.b.binop(kind, old, rhs_c)
        rhs_c = self.coerce(rhs, old.type)
        kind = {
            "+": BinOpKind.ADD,
            "-": BinOpKind.SUB,
            "*": BinOpKind.MUL,
            "/": BinOpKind.SDIV if old.type.signed else BinOpKind.UDIV,
            "%": BinOpKind.SREM if old.type.signed else BinOpKind.UREM,
            "&": BinOpKind.AND,
            "|": BinOpKind.OR,
            "^": BinOpKind.XOR,
        }.get(op)
        if kind is None:
            raise CompileError(f"unsupported compound assignment {op}=", line)
        return self.b.binop(kind, old, rhs_c)

    def lower_ternary(self, expr: ast.Ternary) -> Value:
        assert expr.cond is not None and expr.then is not None and expr.els is not None
        cond = self.condition(expr.cond)
        then_bb = self.b.new_block("sel.then")
        else_bb = self.b.new_block("sel.else")
        merge_bb = self.b.new_block("sel.end")
        self.b.br(cond, then_bb, else_bb)

        self.b.position_at_end(then_bb)
        then_v = self.rvalue(expr.then)
        then_end = self.b.block  # the arm may have grown new blocks
        self.b.position_at_end(else_bb)
        else_v = self.rvalue(expr.els)
        else_end = self.b.block
        assert isinstance(then_v.type, IntType) and isinstance(else_v.type, IntType)
        assert then_end is not None and else_end is not None
        common = self._common_type(then_v.type, else_v.type)

        tmp = self.b.alloca(common, name="sel.tmp")
        self.b.position_at_end(then_end)
        self.b.store(tmp, self.coerce(then_v, common))
        self.b.jmp(merge_bb)
        self.b.position_at_end(else_end)
        self.b.store(tmp, self.coerce(else_v, common))
        self.b.jmp(merge_bb)
        self.b.position_at_end(merge_bb)
        return self.b.load(tmp, name="sel")

    # -- calls ----------------------------------------------------------------------------
    def lower_call(self, expr: ast.Call, *, want_value: bool) -> Optional[Value]:
        if expr.name == "__cast__":
            target = expr.template_args[0]
            ty = _ir_type(target, expr.line)  # type: ignore[arg-type]
            v = self.coerce(self.rvalue(expr.args[0]), ty)
            if isinstance(v, Cast):
                v.explicit = True
            return v
        if expr.is_ncl or expr.name == "lookup":
            return self.lower_builtin(expr, want_value=want_value)
        return self.inline_netfn(expr, want_value=want_value)

    def lower_builtin(self, expr: ast.Call, *, want_value: bool) -> Optional[Value]:
        name = expr.name
        if name in bi.ACTIONS:
            raise CompileError(
                f"forwarding actions may only appear in return statements "
                f"(ncl::{name}, §V-A)",
                expr.line,
            )
        atomic = bi.parse_atomic(name)
        if atomic is not None:
            return self.lower_atomic(expr, atomic)
        if name == "lookup":
            return self.lower_lookup(expr)
        pure = bi.PURE_BUILTINS.get(name)
        if pure is not None:
            return self.lower_pure(expr, pure)
        raise CompileError(f"unknown builtin ncl::{name}", expr.line)

    def lower_atomic(self, expr: ast.Call, spec: bi.AtomicSpec) -> Value:
        if not expr.args:
            raise CompileError(f"ncl::{expr.name} requires a memory argument", expr.line)
        mem = expr.args[0]
        if isinstance(mem, ast.Unary) and mem.op == "&":
            assert mem.operand is not None
            mem = mem.operand
        lv = self.lvalue(mem)
        if not isinstance(lv, GlobalLV):
            raise CompileError(
                f"ncl::{expr.name} operates on global device memory only "
                "(local and message memory need no atomics: threads are "
                "private, §IV)",
                expr.line,
            )
        if lv.gv.space.is_lookup:
            raise CompileError(
                f"ncl::{expr.name} cannot target lookup memory (§V-B)", expr.line
            )
        rest = expr.args[1:]
        cond_v: Optional[Value] = None
        if spec.conditional:
            if not rest:
                raise CompileError(f"ncl::{expr.name} requires a condition", expr.line)
            cond_v = self.condition(rest[0])
            rest = rest[1:]
        expected_operands = spec.operand_count
        if len(rest) != expected_operands:
            raise CompileError(
                f"ncl::{expr.name} expects {expected_operands} value operand(s) "
                f"after the memory{' and condition' if spec.conditional else ''}, "
                f"got {len(rest)}",
                expr.line,
            )
        elem = lv.gv.elem
        operand_v: Optional[Value] = None
        compare_v: Optional[Value] = None
        from repro.ir.instructions import AtomicOp

        if spec.op == AtomicOp.CAS:
            compare_v = self.coerce(self.rvalue(rest[0]), elem)
            operand_v = self.coerce(self.rvalue(rest[1]), elem)
        elif spec.implicit_operand is not None:
            operand_v = Constant(elem, spec.implicit_operand)
        elif expected_operands == 1:
            operand_v = self.coerce(self.rvalue(rest[0]), elem)
        return self.b.atomic(
            spec.op,
            lv.gv,
            lv.indices,
            operand_v,
            cond=cond_v,
            compare=compare_v,
            return_new=spec.return_new,
            saturating=spec.saturating,
            name=expr.name,
        )

    def lower_lookup(self, expr: ast.Call) -> Value:
        if len(expr.args) not in (2, 3):
            raise CompileError("ncl::lookup takes (table, key[, value&])", expr.line)
        table = expr.args[0]
        if not isinstance(table, ast.Ident):
            raise CompileError("first argument of ncl::lookup must name lookup memory", expr.line)
        binding = self.resolve(table.name, table.line)
        if isinstance(binding, AliasBinding):
            raise CompileError("lookup memory cannot be passed by reference", expr.line)
        if not isinstance(binding, GlobalBinding) or not binding.info.space.is_lookup:
            raise CompileError(
                f"'{table.name}' is not _lookup_ memory (§V-B)", expr.line
            )
        gv = binding.gv
        key_t = binding.info.key_type or gv.elem
        key = self.coerce(self.rvalue(expr.args[1]), key_t)
        hit = self.b.lookup(gv, key, name=f"lu_{table.name}")
        if len(expr.args) == 3:
            if binding.info.lookup_kind is not None and binding.info.value_type is None:
                raise CompileError(
                    f"lookup set '{table.name}' has no value to read; "
                    "use the two-argument form",
                    expr.line,
                )
            out_lv = self.lvalue(expr.args[2])
            default = self.load_lvalue(out_lv)
            val = self.b.lookup_val(gv, key, default, name=f"luv_{table.name}")
            self.store_lvalue(out_lv, val)
        return hit

    def lower_pure(self, expr: ast.Call, pure: bi.PureBuiltin) -> Value:
        if len(expr.args) != pure.arg_count:
            raise CompileError(
                f"ncl::{expr.name} expects {pure.arg_count} argument(s)", expr.line
            )
        args = [self.rvalue(a) for a in expr.args]
        if pure.result_bits == "arg":
            out_ty = args[0].type if args else U32
            assert isinstance(out_ty, IntType)
        elif pure.result_bits == "template":
            if not expr.template_args or not isinstance(expr.template_args[0], ast.ScalarType):
                raise CompileError(
                    f"ncl::{expr.name} requires a type template argument "
                    f"(e.g. ncl::{expr.name}<u8>())",
                    expr.line,
                )
            out_ty = _ir_type(expr.template_args[0], expr.line)
        else:
            bits = pure.result_bits
            if pure.allows_template_bits and expr.template_args:
                targ = expr.template_args[0]
                if not isinstance(targ, int):
                    raise CompileError(
                        f"ncl::{expr.name}<N> takes a width template argument", expr.line
                    )
                bits = targ
            out_ty = int_type(int(bits))
        return self.b.intrinsic(pure.intrinsic, args, out_ty, name=expr.name.replace(".", "_"))

    # -- net-function inlining ---------------------------------------------------------------
    def inline_netfn(self, expr: ast.Call, *, want_value: bool) -> Optional[Value]:
        callee = self.sema.functions.get(expr.name)
        if callee is None or callee.is_kernel:
            raise CompileError(f"call to unknown net function '{expr.name}'", expr.line)
        if self.inline_depth > 32:
            raise CompileError(f"net-function inlining too deep at '{expr.name}'", expr.line)
        decl = callee.decl
        if len(expr.args) != len(decl.params):
            raise CompileError(
                f"'{expr.name}' expects {len(decl.params)} arguments, got {len(expr.args)}",
                expr.line,
            )
        # Bind parameters in a fresh scope stack so callee names cannot
        # capture caller locals.
        saved_scopes = self.scopes
        call_scope: dict[str, Binding] = {}
        for p, arg in zip(decl.params, expr.args):
            ty = _ir_type(p.type, p.line)
            if p.byref or p.is_array:
                # References alias the caller's storage (standard C++ rules).
                a = _strip_addr(arg)
                if isinstance(a, ast.Ident):
                    b = self.resolve(a.name, a.line)
                    if isinstance(b, (MsgArrayBinding, GlobalBinding, AliasBinding)) or (
                        isinstance(b, LocalBinding) and b.slot.shape.rank > 0
                    ):
                        call_scope[p.name] = b
                    elif isinstance(b, ConstBinding):
                        raise CompileError(
                            f"cannot bind loop constant '{a.name}' to reference "
                            f"parameter '{p.name}'",
                            arg.line,
                        )
                    else:
                        call_scope[p.name] = AliasBinding(self._binding_lvalue(b, a))
                else:
                    call_scope[p.name] = AliasBinding(self.lvalue(a))
            else:
                value = self.coerce(self.rvalue(arg), ty)
                slot = self.b.alloca(ty, name=f"{expr.name}.{p.name}")
                self.b.store(slot, value)
                call_scope[p.name] = LocalBinding(slot)
        self.scopes = [call_scope]

        ret_ty = (
            None if isinstance(decl.ret_type, ast.VoidSrcType) else _ir_type(decl.ret_type, decl.line)
        )
        ret_slot = self.b.alloca(ret_ty, name=f"{expr.name}.ret") if ret_ty else None
        cont_bb = self.b.new_block(f"{expr.name}.cont")

        saved = self._inline_ret, self._inline_reached
        self._inline_ret, self._inline_reached = (ret_slot, cont_bb), False
        self.inline_depth += 1
        assert decl.body is not None
        self.lower_block(decl.body)
        if not self._current_dead():
            self._jmp_cont()
        self.inline_depth -= 1
        cont_reached = self._inline_reached
        self._inline_ret, self._inline_reached = saved
        self.scopes = saved_scopes

        if cont_reached:
            self.b.position_at_end(cont_bb)
        else:
            self.fn.remove_block(cont_bb)
            self.b.block = None
            return None
        if ret_slot is not None and want_value:
            return self.b.load(ret_slot, name=f"{expr.name}.retval")
        return None


def _strip_addr(expr: ast.Expr) -> ast.Expr:
    if isinstance(expr, ast.Unary) and expr.op == "&" and expr.operand is not None:
        return expr.operand
    return expr


def _flatten_init(init: ast.InitList, shape: ArrayShape, line: int) -> list[ast.Expr]:
    """Flatten a (possibly nested) initializer list to row-major order."""
    flat: list[ast.Expr] = []

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.InitList):
            for item in node.items:
                walk(item)
        else:
            flat.append(node)

    walk(init)
    if len(flat) > shape.num_elements:
        raise CompileError(
            f"initializer has {len(flat)} elements for array of "
            f"{shape.num_elements}",
            line,
        )
    return flat


def _unflatten(flat: int, shape: ArrayShape) -> list[int]:
    out: list[int] = []
    for dim in reversed(shape.dims):
        out.append(flat % dim)
        flat //= dim
    out.reverse()
    return out


class _ModuleLowering:
    def __init__(self, sema: SemaResult, name: str) -> None:
        self.sema = sema
        self.module = Module(name)
        self._gv_cache: dict[str, GlobalVar] = {}

    def global_var(self, name: str) -> GlobalVar:
        if name not in self._gv_cache:
            info = self.sema.globals[name]
            gv = GlobalVar(
                info.name,
                info.elem,
                info.shape,
                info.space,
                info.locations,
                info.lookup_kind,
                info.key_type,
                info.value_type,
                list(info.entries),
                source_line=info.decl.line, col=info.decl.col,
            )
            self._gv_cache[name] = gv
            self.module.add_global(gv)
        return self._gv_cache[name]

    def run(self) -> Module:
        # Declare all globals up front so the module mirrors the program even
        # when a global is only touched from the host.
        for name in self.sema.globals:
            self.global_var(name)
        # Kernels only: net functions are fully inlined during lowering, so
        # the IR module has no call instructions left.
        for info in self.sema.functions.values():
            if info.is_kernel:
                self.module.add_function(_FunctionLowering(self, info).run())
        return self.module


def lower_to_ir(sema: SemaResult, name: str = "netcl") -> Module:
    """Lower an analyzed NetCL program to an IR module (kernels only)."""
    return _ModuleLowering(sema, name).run()
