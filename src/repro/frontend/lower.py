"""Lowering: pycparser AST -> repro IR.

Mutable C variables become ``alloca`` stack slots (clang -O0 style), so the
IR never needs phi nodes; loop-carried variables appear to later analyses
as loads from a named stack slot, which is exactly where the paper's index
expression trees stop ("a phi node" in their LLVM implementation,
Section IV-B).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from pycparser import c_ast

from repro.frontend.errors import FrontendError, UnsupportedFeature
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import CastKind, CmpPred, Opcode
from repro.ir.types import (
    AddressSpace,
    ArrayType,
    BOOL,
    BoolType,
    DOUBLE,
    FLOAT,
    FloatType,
    HALF,
    I8,
    I16,
    I32,
    I64,
    IntType,
    PointerType,
    Type,
    U8,
    U16,
    U32,
    U64,
    VectorType,
    VOID,
)
from repro.ir.values import Constant, Value

# ---------------------------------------------------------------------------
# type resolution
# ---------------------------------------------------------------------------

_SCALAR_NAMES: Dict[str, Type] = {
    "void": VOID,
    "char": I8,
    "signed char": I8,
    "unsigned char": U8,
    "uchar": U8,
    "short": I16,
    "short int": I16,
    "unsigned short": U16,
    "ushort": U16,
    "int": I32,
    "signed": I32,
    "signed int": I32,
    "unsigned": U32,
    "unsigned int": U32,
    "uint": U32,
    "long": I64,
    "long int": I64,
    "long long": I64,
    "unsigned long": U64,
    "unsigned long long": U64,
    "ulong": U64,
    "size_t": U64,
    "float": FLOAT,
    "double": DOUBLE,
    "half": HALF,
    "bool": I32,
    "_Bool": I32,
}

_VECTOR_NAMES: Dict[str, VectorType] = {
    "float2": VectorType(FLOAT, 2),
    "float3": VectorType(FLOAT, 3),
    "float4": VectorType(FLOAT, 4),
    "float8": VectorType(FLOAT, 8),
    "float16": VectorType(FLOAT, 16),
    "int2": VectorType(I32, 2),
    "int4": VectorType(I32, 4),
    "uint2": VectorType(U32, 2),
    "uint4": VectorType(U32, 4),
    "double2": VectorType(DOUBLE, 2),
    "double4": VectorType(DOUBLE, 4),
}

_VEC_MEMBERS = {"x": 0, "y": 1, "z": 2, "w": 3,
                "s0": 0, "s1": 1, "s2": 2, "s3": 3,
                "s4": 4, "s5": 5, "s6": 6, "s7": 7}

#: work-item builtins -> dimensionality-indexed query names
WORK_ITEM_BUILTINS = frozenset(
    {
        "get_global_id",
        "get_local_id",
        "get_group_id",
        "get_global_size",
        "get_local_size",
        "get_num_groups",
        "get_global_offset",
    }
)

#: pure float builtins of one argument
_UNARY_MATH = frozenset(
    {
        "sqrt", "rsqrt", "native_sqrt", "native_rsqrt", "fabs", "floor",
        "ceil", "exp", "native_exp", "log", "native_log", "log2", "exp2",
        "sin", "cos", "native_sin", "native_cos", "tan", "trunc", "round",
        "sign",
    }
)
_BINARY_MATH = frozenset({"fmin", "fmax", "pow", "native_powr", "fmod", "atan2", "hypot"})
_TERNARY_MATH = frozenset({"fma", "mad", "clamp", "mix"})
_INT_BUILTINS = frozenset({"min", "max", "abs", "mul24", "mad24"})


def _quals_to_addrspace(quals: Sequence[str]) -> AddressSpace:
    if "_Atomic" in quals:
        return AddressSpace.LOCAL
    if "volatile" in quals:
        return AddressSpace.GLOBAL
    return AddressSpace.PRIVATE


class ConstEvaluator:
    """Evaluate integer constant expressions (array dims etc.)."""

    def eval(self, node: c_ast.Node) -> int:
        if isinstance(node, c_ast.Constant):
            if node.type in ("int", "long int", "unsigned int", "char"):
                return _parse_int_literal(node.value)
            raise FrontendError(f"non-integer constant {node.value!r}", node.coord)
        if isinstance(node, c_ast.BinaryOp):
            a, b = self.eval(node.left), self.eval(node.right)
            ops = {
                "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                "/": lambda: a // b, "%": lambda: a % b,
                "<<": lambda: a << b, ">>": lambda: a >> b,
                "&": lambda: a & b, "|": lambda: a | b, "^": lambda: a ^ b,
            }
            if node.op not in ops:
                raise FrontendError(f"operator {node.op} in constant expr", node.coord)
            return ops[node.op]()
        if isinstance(node, c_ast.UnaryOp):
            v = self.eval(node.expr)
            if node.op == "-":
                return -v
            if node.op == "+":
                return v
            if node.op == "~":
                return ~v
        raise FrontendError(
            f"expression is not an integer constant: {type(node).__name__}", node.coord
        )


def _parse_int_literal(text: str) -> int:
    t = text.lower().rstrip("ul")
    return int(t, 0)


def _parse_float_literal(text: str) -> Tuple[float, Type]:
    t = text.lower()
    ty: Type = DOUBLE
    if t.endswith("f"):
        t = t[:-1]
        ty = FLOAT
    return float(t), ty


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------


class _Binding:
    """A name in scope: argument, stack slot, or local array."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: Value) -> None:
        self.kind = kind  # 'arg' | 'slot' | 'local_array'
        self.value = value


class FunctionLowering:
    def __init__(self, module: Module, funcdef: c_ast.FuncDef, kernel_names: Sequence[str]):
        self.module = module
        self.funcdef = funcdef
        self.kernel_names = set(kernel_names)
        self.consteval = ConstEvaluator()
        self.scopes: List[Dict[str, _Binding]] = []
        self.builder = IRBuilder()
        self.fn: Optional[Function] = None
        self.break_targets: List[BasicBlock] = []
        self.continue_targets: List[BasicBlock] = []
        self.terminated = False

    # -- scope helpers --------------------------------------------------------
    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def bind(self, name: str, binding: _Binding) -> None:
        self.scopes[-1][name] = binding

    def lookup(self, name: str, coord=None) -> _Binding:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise FrontendError(f"use of undeclared identifier {name!r}", coord)

    # -- type resolution -------------------------------------------------------
    def resolve_type(self, node: c_ast.Node) -> Tuple[Type, List[str]]:
        """Resolve a declarator type node -> (type, qualifiers-at-this-level)."""
        if isinstance(node, c_ast.TypeDecl):
            inner = node.type
            quals = list(node.quals or [])
            if isinstance(inner, c_ast.IdentifierType):
                name = " ".join(inner.names)
                if name in _VECTOR_NAMES:
                    return _VECTOR_NAMES[name], quals
                if name in _SCALAR_NAMES:
                    return _SCALAR_NAMES[name], quals
                raise FrontendError(f"unknown type name {name!r}", node.coord)
            raise UnsupportedFeature(
                f"type {type(inner).__name__} not supported", node.coord
            )
        if isinstance(node, c_ast.PtrDecl):
            pointee, pointee_quals = self.resolve_type(node.type)
            space = _quals_to_addrspace(pointee_quals)
            return PointerType(pointee, space), list(node.quals or [])
        if isinstance(node, c_ast.ArrayDecl):
            elem, quals = self.resolve_type(node.type)
            if node.dim is None:
                raise UnsupportedFeature("arrays must have explicit dimensions", node.coord)
            count = self.consteval.eval(node.dim)
            return ArrayType(elem, count), quals
        raise UnsupportedFeature(f"declarator {type(node).__name__}", node.coord)

    def resolve_typename(self, node: c_ast.Typename) -> Type:
        ty, _ = self.resolve_type(node.type)
        return ty

    # -- entry point -----------------------------------------------------------
    def run(self) -> Function:
        decl = self.funcdef.decl
        name = decl.name
        ftype = decl.type  # FuncDecl
        ret_type, _ = self.resolve_type(ftype.type)

        arg_types: List[Type] = []
        arg_names: List[str] = []
        params = []
        if ftype.args:
            params = [
                p
                for p in ftype.args.params
                if not (
                    isinstance(p, c_ast.Typename)
                    and isinstance(p.type, c_ast.TypeDecl)
                    and isinstance(p.type.type, c_ast.IdentifierType)
                    and p.type.type.names == ["void"]
                )
            ]
        for p in params:
            if not isinstance(p, c_ast.Decl):
                raise UnsupportedFeature("unnamed parameter", getattr(p, "coord", None))
            pty, _ = self.resolve_type(p.type)
            # kernel pointer params default to __global when unqualified
            if (
                isinstance(pty, PointerType)
                and pty.addrspace == AddressSpace.PRIVATE
                and name in self.kernel_names
            ):
                pty = PointerType(pty.pointee, AddressSpace.GLOBAL)
            arg_types.append(pty)
            arg_names.append(p.name)

        fn = Function(
            name,
            arg_types,
            arg_names,
            ret_type,
            is_kernel=name in self.kernel_names,
        )
        self.fn = fn
        self.module.add_function(fn)

        entry = fn.add_block("entry")
        self.builder.position_at_end(entry)
        self.push_scope()

        assigned = _assigned_names(self.funcdef.body)
        for arg in fn.args:
            if arg.name in assigned:
                slot = self.builder.alloca(arg.type, arg.name)
                self.builder.store(arg, slot)
                self.bind(arg.name, _Binding("slot", slot))
            else:
                self.bind(arg.name, _Binding("arg", arg))

        self.lower_stmt(self.funcdef.body)
        if not self.terminated:
            if fn.ret_type != VOID:
                raise FrontendError(f"missing return in non-void function {name}")
            self.builder.ret()
        self.pop_scope()
        return fn

    # -- statements --------------------------------------------------------------
    def lower_stmt(self, node: c_ast.Node) -> None:
        if self.terminated:
            return  # unreachable code after break/continue/return
        method = getattr(self, f"_stmt_{type(node).__name__}", None)
        if method is None:
            raise UnsupportedFeature(f"statement {type(node).__name__}", node.coord)
        method(node)

    def _stmt_Compound(self, node: c_ast.Compound) -> None:
        self.push_scope()
        for item in node.block_items or []:
            self.lower_stmt(item)
        self.pop_scope()

    def _stmt_EmptyStatement(self, node: c_ast.EmptyStatement) -> None:
        pass

    def _stmt_ExprList(self, node: c_ast.ExprList) -> None:
        # comma-operator statement (e.g. a for-loop init `a = 0, b = n`)
        for e in node.exprs:
            self.lower_expr(e)

    def _stmt_Decl(self, node: c_ast.Decl) -> None:
        if isinstance(node.type, c_ast.FuncDecl):
            return  # forward declaration; ignore
        ty, quals = self.resolve_type(node.type)
        all_quals = set(quals) | set(node.quals or [])
        space = _quals_to_addrspace(list(all_quals))

        if space == AddressSpace.LOCAL:
            if not isinstance(ty, ArrayType):
                raise UnsupportedFeature(
                    "__local variables must be arrays in this subset", node.coord
                )
            if node.init is not None:
                raise FrontendError("__local arrays cannot have initialisers", node.coord)
            la = self.fn.add_local_array(ty, node.name)
            self.bind(node.name, _Binding("local_array", la))
            return

        slot = self.builder.alloca(ty, node.name)
        self.bind(node.name, _Binding("slot", slot))
        if node.init is not None:
            if isinstance(node.init, c_ast.InitList):
                if not isinstance(ty, ArrayType):
                    raise UnsupportedFeature("initialiser list on non-array", node.coord)
                for i, expr in enumerate(node.init.exprs):
                    v = self.coerce(self.lower_expr(expr), ty.element, node.coord)
                    p = self.builder.gep(slot, [Constant(I32, i)])
                    self.builder.store(v, p)
            else:
                v = self.coerce(self.lower_expr(node.init), ty, node.coord)
                self.builder.store(v, slot)

    def _stmt_Assignment(self, node: c_ast.Assignment) -> None:
        self.lower_assignment(node)

    def _stmt_UnaryOp(self, node: c_ast.UnaryOp) -> None:
        if node.op in ("p++", "++", "p--", "--"):
            self.lower_expr(node)
        else:
            self.lower_expr(node)  # expression statement with side effects only

    def _stmt_FuncCall(self, node: c_ast.FuncCall) -> None:
        self.lower_expr(node, void_ok=True)

    def _stmt_Return(self, node: c_ast.Return) -> None:
        if node.expr is not None:
            v = self.coerce(self.lower_expr(node.expr), self.fn.ret_type, node.coord)
            self.builder.ret(v)
        else:
            self.builder.ret()
        self.terminated = True

    def _stmt_If(self, node: c_ast.If) -> None:
        cond = self.to_bool(self.lower_expr(node.cond), node.coord)
        then_bb = self.fn.add_block("if.then")
        merge_bb = self.fn.add_block("if.end")
        else_bb = self.fn.add_block("if.else") if node.iffalse is not None else merge_bb
        self.builder.cond_br(cond, then_bb, else_bb)

        self.builder.position_at_end(then_bb)
        self.terminated = False
        self.lower_stmt(node.iftrue)
        if not self.terminated:
            self.builder.br(merge_bb)
        then_terminated = self.terminated

        else_terminated = False
        if node.iffalse is not None:
            self.builder.position_at_end(else_bb)
            self.terminated = False
            self.lower_stmt(node.iffalse)
            if not self.terminated:
                self.builder.br(merge_bb)
            else_terminated = self.terminated

        self.builder.position_at_end(merge_bb)
        self.terminated = then_terminated and else_terminated
        if self.terminated:
            # merge block is unreachable but must still be well-formed
            self.builder.ret()

    def _stmt_For(self, node: c_ast.For) -> None:
        self.push_scope()
        if node.init is not None:
            if isinstance(node.init, c_ast.DeclList):
                for d in node.init.decls:
                    self._stmt_Decl(d)
            else:
                self.lower_stmt(node.init)

        cond_bb = self.fn.add_block("for.cond")
        body_bb = self.fn.add_block("for.body")
        inc_bb = self.fn.add_block("for.inc")
        end_bb = self.fn.add_block("for.end")

        self.builder.br(cond_bb)
        self.builder.position_at_end(cond_bb)
        if node.cond is not None:
            cond = self.to_bool(self.lower_expr(node.cond), node.coord)
            self.builder.cond_br(cond, body_bb, end_bb)
        else:
            self.builder.br(body_bb)

        self.builder.position_at_end(body_bb)
        self.break_targets.append(end_bb)
        self.continue_targets.append(inc_bb)
        self.terminated = False
        if node.stmt is not None:
            self.lower_stmt(node.stmt)
        if not self.terminated:
            self.builder.br(inc_bb)
        self.break_targets.pop()
        self.continue_targets.pop()

        self.builder.position_at_end(inc_bb)
        self.terminated = False
        if node.next is not None:
            self.lower_stmt(node.next)
        self.builder.br(cond_bb)

        self.builder.position_at_end(end_bb)
        self.terminated = False
        self.pop_scope()

    def _stmt_While(self, node: c_ast.While) -> None:
        cond_bb = self.fn.add_block("while.cond")
        body_bb = self.fn.add_block("while.body")
        end_bb = self.fn.add_block("while.end")
        self.builder.br(cond_bb)
        self.builder.position_at_end(cond_bb)
        cond = self.to_bool(self.lower_expr(node.cond), node.coord)
        self.builder.cond_br(cond, body_bb, end_bb)
        self.builder.position_at_end(body_bb)
        self.break_targets.append(end_bb)
        self.continue_targets.append(cond_bb)
        self.terminated = False
        self.lower_stmt(node.stmt)
        if not self.terminated:
            self.builder.br(cond_bb)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.builder.position_at_end(end_bb)
        self.terminated = False

    def _stmt_DoWhile(self, node: c_ast.DoWhile) -> None:
        body_bb = self.fn.add_block("do.body")
        cond_bb = self.fn.add_block("do.cond")
        end_bb = self.fn.add_block("do.end")
        self.builder.br(body_bb)
        self.builder.position_at_end(body_bb)
        self.break_targets.append(end_bb)
        self.continue_targets.append(cond_bb)
        self.terminated = False
        self.lower_stmt(node.stmt)
        if not self.terminated:
            self.builder.br(cond_bb)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.builder.position_at_end(cond_bb)
        self.terminated = False
        cond = self.to_bool(self.lower_expr(node.cond), node.coord)
        self.builder.cond_br(cond, body_bb, end_bb)
        self.builder.position_at_end(end_bb)

    def _stmt_Break(self, node: c_ast.Break) -> None:
        if not self.break_targets:
            raise FrontendError("break outside of a loop", node.coord)
        self.builder.br(self.break_targets[-1])
        self.terminated = True

    def _stmt_Continue(self, node: c_ast.Continue) -> None:
        if not self.continue_targets:
            raise FrontendError("continue outside of a loop", node.coord)
        self.builder.br(self.continue_targets[-1])
        self.terminated = True

    # -- lvalues -------------------------------------------------------------
    def lower_lvalue(self, node: c_ast.Node):
        """Return ('ptr', pointer) or ('veclane', slot_ptr, lane)."""
        if isinstance(node, c_ast.ID):
            b = self.lookup(node.name, node.coord)
            if b.kind == "slot":
                return ("ptr", b.value)
            if b.kind == "arg":
                raise FrontendError(
                    f"internal: argument {node.name} should have a stack slot",
                    node.coord,
                )
            raise FrontendError(f"{node.name} is not assignable", node.coord)
        if isinstance(node, c_ast.ArrayRef):
            return ("ptr", self.lower_arrayref_ptr(node))
        if isinstance(node, c_ast.UnaryOp) and node.op == "*":
            ptr = self.lower_expr(node.expr)
            if not isinstance(ptr.type, PointerType):
                raise FrontendError("cannot dereference a non-pointer", node.coord)
            return ("ptr", ptr)
        if isinstance(node, c_ast.StructRef):
            base = node.name
            member = node.field.name
            if member not in _VEC_MEMBERS:
                raise UnsupportedFeature(f"member .{member}", node.coord)
            kind_ptr = self.lower_lvalue(base)
            if kind_ptr[0] != "ptr":
                raise UnsupportedFeature("nested vector member lvalue", node.coord)
            ptr = kind_ptr[1]
            if not isinstance(ptr.type.pointee, VectorType):
                raise FrontendError(".member on a non-vector", node.coord)
            return ("veclane", ptr, _VEC_MEMBERS[member])
        raise UnsupportedFeature(
            f"lvalue {type(node).__name__}", getattr(node, "coord", None)
        )

    def store_lvalue(self, lv, value: Value, coord=None) -> None:
        if lv[0] == "ptr":
            ptr = lv[1]
            self.builder.store(self.coerce(value, ptr.type.pointee, coord), ptr)
        else:
            _, ptr, lane = lv
            vec_ty: VectorType = ptr.type.pointee
            old = self.builder.load(ptr)
            elem = self.coerce(value, vec_ty.element, coord)
            new = self.builder.insert(old, elem, Constant(I32, lane))
            self.builder.store(new, ptr)

    def load_lvalue(self, lv) -> Value:
        if lv[0] == "ptr":
            return self.builder.load(lv[1])
        _, ptr, lane = lv
        vec = self.builder.load(ptr)
        return self.builder.extract(vec, Constant(I32, lane))

    def lower_arrayref_ptr(self, node: c_ast.ArrayRef) -> Value:
        # collect subscript chain: a[i][j] -> base a, indices [i, j]
        indices: List[c_ast.Node] = []
        base = node
        while isinstance(base, c_ast.ArrayRef):
            indices.append(base.subscript)
            base = base.name
        indices.reverse()

        base_val: Value
        if isinstance(base, c_ast.ID):
            b = self.lookup(base.name, node.coord)
            if b.kind == "local_array":
                base_val = b.value
            elif b.kind == "arg":
                base_val = b.value
            else:  # slot
                slot = b.value
                if isinstance(slot.type.pointee, ArrayType):
                    base_val = slot  # private array: GEP peels array dims
                else:
                    base_val = self.builder.load(slot)  # pointer variable
        else:
            base_val = self.lower_expr(base)

        if not isinstance(base_val.type, PointerType):
            raise FrontendError("subscript on a non-pointer", node.coord)

        idx_vals = [self.lower_expr(i) for i in indices]
        for v in idx_vals:
            if not isinstance(v.type, (IntType,)):
                raise FrontendError("array subscript must be an integer", node.coord)
        return self.builder.gep(base_val, idx_vals)

    # -- assignments -----------------------------------------------------------
    _COMPOUND_OPS = {
        "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
        "<<=": "<<", ">>=": ">>", "&=": "&", "|=": "|", "^=": "^",
    }

    def lower_assignment(self, node: c_ast.Assignment) -> Value:
        lv = self.lower_lvalue(node.lvalue)
        rhs = self.lower_expr(node.rvalue)
        if node.op == "=":
            self.store_lvalue(lv, rhs, node.coord)
            return rhs
        if node.op in self._COMPOUND_OPS:
            cur = self.load_lvalue(lv)
            result = self.binary(self._COMPOUND_OPS[node.op], cur, rhs, node.coord)
            self.store_lvalue(lv, result, node.coord)
            return result
        raise UnsupportedFeature(f"assignment operator {node.op}", node.coord)

    # -- expressions ------------------------------------------------------------
    def lower_expr(self, node: c_ast.Node, void_ok: bool = False) -> Value:
        if isinstance(node, c_ast.Constant):
            return self.lower_constant(node)
        if isinstance(node, c_ast.ID):
            b = self.lookup(node.name, node.coord)
            if b.kind == "arg":
                return b.value
            if b.kind == "slot":
                slot = b.value
                if isinstance(slot.type.pointee, ArrayType):
                    return slot  # array decays to its slot pointer
                return self.builder.load(slot, node.name)
            if b.kind == "local_array":
                return b.value
            raise AssertionError(b.kind)
        if isinstance(node, c_ast.ArrayRef):
            ptr = self.lower_arrayref_ptr(node)
            return self.builder.load(ptr)
        if isinstance(node, c_ast.StructRef):
            if node.field.name in _VEC_MEMBERS:
                vec = self.lower_expr(node.name)
                if not isinstance(vec.type, VectorType):
                    raise FrontendError(".member on non-vector value", node.coord)
                return self.builder.extract(
                    vec, Constant(I32, _VEC_MEMBERS[node.field.name])
                )
            raise UnsupportedFeature(f"member .{node.field.name}", node.coord)
        if isinstance(node, c_ast.BinaryOp):
            if node.op in ("&&", "||"):
                a = self.to_bool(self.lower_expr(node.left), node.coord)
                b = self.to_bool(self.lower_expr(node.right), node.coord)
                opc = Opcode.AND if node.op == "&&" else Opcode.OR
                return self.builder.binop(opc, a, b)
            a = self.lower_expr(node.left)
            b = self.lower_expr(node.right)
            return self.binary(node.op, a, b, node.coord)
        if isinstance(node, c_ast.UnaryOp):
            return self.lower_unary(node)
        if isinstance(node, c_ast.TernaryOp):
            cond = self.to_bool(self.lower_expr(node.cond), node.coord)
            t = self.lower_expr(node.iftrue)
            f = self.lower_expr(node.iffalse)
            t, f = self.usual_arith(t, f, node.coord)
            return self.builder.select(cond, t, f)
        if isinstance(node, c_ast.Cast):
            to_type = self.resolve_typename(node.to_type)
            # pointer casts with address-space qualifiers
            val = self.lower_expr(node.expr)
            return self.coerce(val, to_type, node.coord, explicit=True)
        if isinstance(node, c_ast.FuncCall):
            return self.lower_call(node, void_ok=void_ok)
        if isinstance(node, c_ast.Assignment):
            return self.lower_assignment(node)
        if isinstance(node, c_ast.ExprList):
            last: Optional[Value] = None
            for e in node.exprs:
                last = self.lower_expr(e)
            assert last is not None
            return last
        raise UnsupportedFeature(f"expression {type(node).__name__}", node.coord)

    def lower_constant(self, node: c_ast.Constant) -> Value:
        if node.type in ("int", "long int", "unsigned int", "long long int"):
            v = _parse_int_literal(node.value)
            suffix = node.value.lower()
            if suffix.endswith("ul") or suffix.endswith("lu") or suffix.endswith("u"):
                ty: Type = U32 if v <= 0xFFFFFFFF else U64
            else:
                ty = I32 if -(2**31) <= v < 2**31 else I64
            return Constant(ty, v)
        if node.type in ("float", "double", "long double"):
            v, ty = _parse_float_literal(node.value)
            return Constant(ty, v)
        if node.type == "char":
            text = node.value[1:-1]
            value = ord(bytes(text, "utf-8").decode("unicode_escape"))
            return Constant(I8, value)
        raise UnsupportedFeature(f"literal of type {node.type}", node.coord)

    def lower_unary(self, node: c_ast.UnaryOp) -> Value:
        op = node.op
        if op in ("p++", "++", "p--", "--"):
            lv = self.lower_lvalue(node.expr)
            old = self.load_lvalue(lv)
            one = Constant(old.type, 1) if isinstance(old.type, IntType) else Constant(old.type, 1.0)
            opc = Opcode.ADD if "+" in op else Opcode.SUB
            if isinstance(old.type, FloatType):
                opc = Opcode.FADD if "+" in op else Opcode.FSUB
            new = self.builder.binop(opc, old, one)
            self.store_lvalue(lv, new, node.coord)
            return old if op.startswith("p") else new
        if op == "-":
            v = self.lower_expr(node.expr)
            v = self.promote(v)
            zero = Constant(v.type, 0 if isinstance(v.type, IntType) else 0.0)
            opc = Opcode.FSUB if isinstance(v.type, FloatType) else Opcode.SUB
            return self.builder.binop(opc, zero, v)
        if op == "+":
            return self.promote(self.lower_expr(node.expr))
        if op == "~":
            v = self.promote(self.lower_expr(node.expr))
            return self.builder.binop(Opcode.XOR, v, Constant(v.type, -1))
        if op == "!":
            v = self.to_bool(self.lower_expr(node.expr), node.coord)
            true = Constant(BOOL, True)
            # !x == x xor true — BoolType xor
            return self.builder.binop(Opcode.XOR, v, true)
        if op == "*":
            ptr = self.lower_expr(node.expr)
            if not isinstance(ptr.type, PointerType):
                raise FrontendError("dereference of non-pointer", node.coord)
            return self.builder.load(ptr)
        if op == "&":
            lv = self.lower_lvalue(node.expr)
            if lv[0] != "ptr":
                raise UnsupportedFeature("&(vector member)", node.coord)
            return lv[1]
        if op == "sizeof":
            if isinstance(node.expr, c_ast.Typename):
                ty = self.resolve_typename(node.expr)
            else:
                raise UnsupportedFeature("sizeof(expression)", node.coord)
            return Constant(U32, ty.size)
        raise UnsupportedFeature(f"unary operator {op}", node.coord)

    # -- calls ------------------------------------------------------------------
    def lower_call(self, node: c_ast.FuncCall, void_ok: bool = False) -> Value:
        if not isinstance(node.name, c_ast.ID):
            raise UnsupportedFeature("indirect calls", node.coord)
        name = node.name.name
        args = [self.lower_expr(a) for a in (node.args.exprs if node.args else [])]

        if name in WORK_ITEM_BUILTINS:
            if len(args) != 1:
                raise FrontendError(f"{name} takes one argument", node.coord)
            dim = self.coerce(args[0], U32, node.coord)
            return self.builder.call(name, [dim], I64)
        if name == "get_work_dim":
            return self.builder.call(name, [], U32)
        if name in ("barrier", "mem_fence", "read_mem_fence", "write_mem_fence"):
            arg = args[0] if args else Constant(I32, 1)
            return self.builder.call("barrier", [self.coerce(arg, I32, node.coord)], VOID)

        # vector load/store: lowered to real Load/Store instructions so the
        # Grover candidate detection sees them as memory operations.
        if name.startswith("vload") and name[5:].isdigit():
            n = int(name[5:])
            off, ptr = args
            return self._vector_mem(ptr, off, n, node.coord, store_value=None)
        if name.startswith("vstore") and name[6:].isdigit():
            n = int(name[6:])
            value, off, ptr = args
            return self._vector_mem(ptr, off, n, node.coord, store_value=value)

        if name.startswith("make_") and name[5:] in _VECTOR_NAMES:
            vty = _VECTOR_NAMES[name[5:]]
            if len(args) != vty.count:
                raise FrontendError(
                    f"{name} takes {vty.count} arguments", node.coord
                )
            args = [self.coerce(a, vty.element, node.coord) for a in args]
            return self.builder.call(name, args, vty)

        if name in _UNARY_MATH:
            (a,) = args
            a = self._to_floatish(a, node.coord)
            return self.builder.call(name, [a], a.type)
        if name in _BINARY_MATH:
            a, b = args
            a = self._to_floatish(a, node.coord)
            b = self.coerce(b, a.type, node.coord)
            return self.builder.call(name, [a, b], a.type)
        if name in _TERNARY_MATH:
            a, b, c = args
            a = self._to_floatish(a, node.coord)
            b = self.coerce(b, a.type, node.coord)
            c = self.coerce(c, a.type, node.coord)
            return self.builder.call(name, [a, b, c], a.type)
        if name in _INT_BUILTINS:
            if name == "abs":
                (a,) = args
                return self.builder.call(name, [a], a.type)
            a, b = args[0], args[1]
            a, b = self.usual_arith(a, b, node.coord)
            rest = [self.coerce(x, a.type, node.coord) for x in args[2:]]
            return self.builder.call(name, [a, b, *rest], a.type)
        if name == "dot":
            a, b = args
            if not isinstance(a.type, VectorType):
                raise FrontendError("dot() needs vectors", node.coord)
            return self.builder.call(name, [a, b], a.type.element)

        raise UnsupportedFeature(f"call to unknown function {name!r}", node.coord)

    def _vector_mem(self, ptr: Value, off: Value, n: int, coord, store_value: Optional[Value]) -> Value:
        if not isinstance(ptr.type, PointerType) or not isinstance(
            ptr.type.pointee, (IntType, FloatType)
        ):
            raise FrontendError("vload/vstore need a scalar element pointer", coord)
        vty = VectorType(ptr.type.pointee, n)
        vptr = self.builder.cast(
            CastKind.BITCAST, ptr, PointerType(vty, ptr.type.addrspace)
        )
        elem_ptr = self.builder.gep(vptr, [off])
        if store_value is None:
            return self.builder.load(elem_ptr)
        if store_value.type != vty:
            raise FrontendError(
                f"vstore{n} value has type {store_value.type}, expected {vty}", coord
            )
        return self.builder.store(store_value, elem_ptr)

    def _to_floatish(self, v: Value, coord) -> Value:
        if isinstance(v.type, (FloatType, VectorType)):
            return v
        return self.coerce(v, FLOAT, coord)

    # -- conversions -------------------------------------------------------------
    def promote(self, v: Value) -> Value:
        """Integer promotion: sub-int types widen to i32."""
        if isinstance(v.type, IntType) and v.type.bits < 32:
            return self.coerce(v, I32 if v.type.signed else U32, None)
        if isinstance(v.type, BoolType):
            return self.coerce(v, I32, None)
        return v

    def to_bool(self, v: Value, coord) -> Value:
        if isinstance(v.type, BoolType):
            return v
        if isinstance(v.type, IntType):
            return self.builder.icmp(CmpPred.NE, v, Constant(v.type, 0))
        if isinstance(v.type, FloatType):
            return self.builder.fcmp(CmpPred.ONE, v, Constant(v.type, 0.0))
        raise FrontendError(f"cannot convert {v.type} to bool", coord)

    _RANKS = {U64: 8, I64: 7, U32: 6, I32: 5}

    def usual_arith(self, a: Value, b: Value, coord) -> Tuple[Value, Value]:
        """C usual arithmetic conversions (restricted to our types)."""
        if isinstance(a.type, VectorType) or isinstance(b.type, VectorType):
            if isinstance(a.type, VectorType) and isinstance(b.type, VectorType):
                if a.type != b.type:
                    raise FrontendError(
                        f"vector type mismatch {a.type} vs {b.type}", coord
                    )
                return a, b
            # scalar op vector -> splat
            if isinstance(a.type, VectorType):
                b = self.splat(self.coerce(b, a.type.element, coord), a.type)
            else:
                a = self.splat(self.coerce(a, b.type.element, coord), b.type)
            return a, b
        a, b = self.promote(a), self.promote(b)
        if a.type == b.type:
            return a, b
        if isinstance(a.type, FloatType) or isinstance(b.type, FloatType):
            target = a.type if isinstance(a.type, FloatType) else b.type
            if isinstance(a.type, FloatType) and isinstance(b.type, FloatType):
                target = a.type if a.type.bits >= b.type.bits else b.type
            return self.coerce(a, target, coord), self.coerce(b, target, coord)
        # both integers
        ra = self._RANKS.get(a.type, 0)
        rb = self._RANKS.get(b.type, 0)
        target = a.type if ra >= rb else b.type
        return self.coerce(a, target, coord), self.coerce(b, target, coord)

    def splat(self, scalar: Value, vty: VectorType) -> Value:
        return self.builder.call("splat", [scalar], vty)

    def coerce(self, v: Value, to_type: Type, coord, explicit: bool = False) -> Value:
        """Convert ``v`` to ``to_type``, emitting a cast if needed."""
        ty = v.type
        if ty == to_type:
            return v
        if isinstance(v, Constant) and isinstance(to_type, (IntType, FloatType)):
            # constant-fold conversions so index trees keep literal leaves
            return Constant(to_type, v.value)
        if isinstance(ty, BoolType) and isinstance(to_type, IntType):
            return self.builder.cast(CastKind.BOOL_TO_INT, v, to_type)
        if isinstance(ty, IntType) and isinstance(to_type, BoolType):
            return self.to_bool(v, coord)
        if isinstance(ty, IntType) and isinstance(to_type, IntType):
            if ty.bits == to_type.bits:
                return self.builder.cast(CastKind.BITCAST, v, to_type)
            if ty.bits > to_type.bits:
                return self.builder.cast(CastKind.TRUNC, v, to_type)
            kind = CastKind.SEXT if ty.signed else CastKind.ZEXT
            return self.builder.cast(kind, v, to_type)
        if isinstance(ty, IntType) and isinstance(to_type, FloatType):
            kind = CastKind.SITOFP if ty.signed else CastKind.UITOFP
            return self.builder.cast(kind, v, to_type)
        if isinstance(ty, FloatType) and isinstance(to_type, IntType):
            kind = CastKind.FPTOSI if to_type.signed else CastKind.FPTOUI
            return self.builder.cast(kind, v, to_type)
        if isinstance(ty, FloatType) and isinstance(to_type, FloatType):
            kind = CastKind.FPEXT if to_type.bits > ty.bits else CastKind.FPTRUNC
            return self.builder.cast(kind, v, to_type)
        if isinstance(ty, PointerType) and isinstance(to_type, PointerType):
            # address space is preserved from the source pointer: a cast
            # never moves data between memory spaces.
            target = PointerType(to_type.pointee, ty.addrspace)
            return self.builder.cast(CastKind.BITCAST, v, target)
        if isinstance(ty, VectorType) and isinstance(to_type, VectorType):
            if ty.count == to_type.count:
                return self.builder.call("convert", [v], to_type)
        raise FrontendError(f"cannot convert {ty} to {to_type}", coord)

    def binary(self, op: str, a: Value, b: Value, coord) -> Value:
        # pointer arithmetic
        if isinstance(a.type, PointerType) and isinstance(b.type, IntType):
            if op == "+":
                return self.builder.gep(a, [b])
            if op == "-":
                zero = Constant(b.type, 0)
                neg = self.builder.binop(Opcode.SUB, zero, b)
                return self.builder.gep(a, [neg])
        if isinstance(b.type, PointerType) and isinstance(a.type, IntType) and op == "+":
            return self.builder.gep(b, [a])

        if op in ("==", "!=", "<", "<=", ">", ">="):
            a, b = self.usual_arith(a, b, coord)
            if isinstance(a.type, FloatType):
                pred = {
                    "==": CmpPred.OEQ, "!=": CmpPred.ONE, "<": CmpPred.OLT,
                    "<=": CmpPred.OLE, ">": CmpPred.OGT, ">=": CmpPred.OGE,
                }[op]
                return self.builder.fcmp(pred, a, b)
            signed = not (isinstance(a.type, IntType) and not a.type.signed)
            pred = {
                "==": CmpPred.EQ,
                "!=": CmpPred.NE,
                "<": CmpPred.SLT if signed else CmpPred.ULT,
                "<=": CmpPred.SLE if signed else CmpPred.ULE,
                ">": CmpPred.SGT if signed else CmpPred.UGT,
                ">=": CmpPred.SGE if signed else CmpPred.UGE,
            }[op]
            return self.builder.icmp(pred, a, b)

        a, b = self.usual_arith(a, b, coord)
        elem = a.type.element if isinstance(a.type, VectorType) else a.type
        is_f = isinstance(elem, FloatType)
        if is_f:
            opc = {"+": Opcode.FADD, "-": Opcode.FSUB, "*": Opcode.FMUL, "/": Opcode.FDIV}.get(op)
            if opc is None:
                raise FrontendError(f"operator {op} on float operands", coord)
            return self.builder.binop(opc, a, b)
        signed = not (isinstance(elem, IntType) and not elem.signed)
        table = {
            "+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL,
            "/": Opcode.SDIV if signed else Opcode.UDIV,
            "%": Opcode.SREM if signed else Opcode.UREM,
            "&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
            "<<": Opcode.SHL, ">>": Opcode.ASHR if signed else Opcode.LSHR,
        }
        if op not in table:
            raise FrontendError(f"unsupported operator {op}", coord)
        return self.builder.binop(table[op], a, b)


def _assigned_names(body: c_ast.Node) -> set:
    """Names assigned anywhere in a function body (params needing slots)."""
    names = set()

    class V(c_ast.NodeVisitor):
        def visit_Assignment(self, node: c_ast.Assignment) -> None:
            tgt = node.lvalue
            if isinstance(tgt, c_ast.ID):
                names.add(tgt.name)
            self.generic_visit(node)

        def visit_UnaryOp(self, node: c_ast.UnaryOp) -> None:
            if node.op in ("p++", "++", "p--", "--") and isinstance(node.expr, c_ast.ID):
                names.add(node.expr.name)
            self.generic_visit(node)

    V().visit(body)
    return names


def lower_translation_unit(
    ast: c_ast.FileAST, kernel_names: Sequence[str], module_name: str = "kernel_module"
) -> Module:
    module = Module(module_name)
    for ext in ast.ext:
        if isinstance(ext, c_ast.FuncDef):
            FunctionLowering(module, ext, kernel_names).run()
        elif isinstance(ext, c_ast.Typedef):
            continue  # prelude typedefs
        elif isinstance(ext, c_ast.Decl):
            continue  # forward declarations / extern decls
        else:
            raise UnsupportedFeature(
                f"top-level {type(ext).__name__}", getattr(ext, "coord", None)
            )
    return module
