"""IRBuilder: convenience API for creating instructions.

Supports both append-at-end (used by the frontend) and insert-before-an-
instruction positioning (used by the Grover rewrite, which must materialise
the ``nGL`` index computation *immediately before the LL instruction* —
Section IV-E of the paper).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.ir.function import BasicBlock
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CastKind,
    CmpPred,
    CondBr,
    ExtractElement,
    FCmp,
    GEP,
    ICmp,
    InsertElement,
    Instruction,
    Load,
    Opcode,
    Ret,
    Select,
    Store,
)
from repro.ir.types import Type
from repro.ir.values import Value


class IRBuilder:
    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self.block = block
        #: when set, new instructions go immediately before this anchor
        self._anchor: Optional[Instruction] = None

    # -- positioning ---------------------------------------------------------
    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block
        self._anchor = None

    def position_before(self, inst: Instruction) -> None:
        assert inst.parent is not None
        self.block = inst.parent
        self._anchor = inst

    def emit(self, inst: Instruction) -> Instruction:
        assert self.block is not None, "builder has no insertion point"
        if self._anchor is not None:
            self.block.insert_before(self._anchor, inst)
        else:
            self.block.append(inst)
        return inst

    # -- arithmetic ----------------------------------------------------------
    def binop(self, opcode: Union[Opcode, str], lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.emit(BinOp(Opcode(opcode), lhs, rhs, name))

    def add(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop(Opcode.ADD, a, b, name)

    def sub(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop(Opcode.SUB, a, b, name)

    def mul(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop(Opcode.MUL, a, b, name)

    def sdiv(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop(Opcode.SDIV, a, b, name)

    def fadd(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop(Opcode.FADD, a, b, name)

    def fsub(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop(Opcode.FSUB, a, b, name)

    def fmul(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop(Opcode.FMUL, a, b, name)

    def fdiv(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop(Opcode.FDIV, a, b, name)

    def icmp(self, pred: Union[CmpPred, str], a: Value, b: Value, name: str = "") -> Value:
        return self.emit(ICmp(CmpPred(pred), a, b, name))

    def fcmp(self, pred: Union[CmpPred, str], a: Value, b: Value, name: str = "") -> Value:
        return self.emit(FCmp(CmpPred(pred), a, b, name))

    def select(self, cond: Value, t: Value, f: Value, name: str = "") -> Value:
        return self.emit(Select(cond, t, f, name))

    def cast(self, kind: Union[CastKind, str], v: Value, to_type: Type, name: str = "") -> Value:
        return self.emit(Cast(CastKind(kind), v, to_type, name))

    # -- memory --------------------------------------------------------------
    def alloca(self, ty: Type, name: str = "") -> Value:
        return self.emit(Alloca(ty, name))

    def load(self, ptr: Value, name: str = "") -> Value:
        return self.emit(Load(ptr, name))

    def store(self, value: Value, ptr: Value) -> Value:
        return self.emit(Store(value, ptr))

    def gep(self, base: Value, indices: Sequence[Value], name: str = "") -> Value:
        return self.emit(GEP(base, indices, name))

    # -- misc ----------------------------------------------------------------
    def call(self, callee: str, args: Sequence[Value], ret_type: Type, name: str = "") -> Value:
        return self.emit(Call(callee, args, ret_type, name))

    def extract(self, vec: Value, index: Value, name: str = "") -> Value:
        return self.emit(ExtractElement(vec, index, name))

    def insert(self, vec: Value, value: Value, index: Value, name: str = "") -> Value:
        return self.emit(InsertElement(vec, value, index, name))

    # -- control flow ----------------------------------------------------------
    def br(self, target: BasicBlock) -> Value:
        return self.emit(Br(target))

    def cond_br(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Value:
        return self.emit(CondBr(cond, if_true, if_false))

    def ret(self, value: Optional[Value] = None) -> Value:
        return self.emit(Ret(value))
