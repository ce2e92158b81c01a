"""Value semantics of the pure IR instructions, shared by every executor.

:func:`resolve` turns a ``BinOp``, ``ICmp``/``FCmp``, ``Cast``,
``Select``, ``GEP``, ``ExtractElement`` or ``InsertElement`` into an
array function and the operands to call it on, once per instruction.
The reference interpreter (:mod:`repro.runtime.interpreter`), the tape
backend (:mod:`repro.runtime.tape`) and integer constant folding
(:func:`repro.ir.passes.fold_constants`) all compute through it, so
they agree on arithmetic by construction.

The functions are written for the tape's batched shapes: they index
the element axis with ``...`` and broadcast group-uniform ``(n,)`` /
``(n, k)`` operands against ``(G, n)`` / ``(G, n, k)`` ones, which
covers the reference's unbatched shapes as well.  Callers run them
under ``np.errstate(all="ignore")``: integer overflow wraps and float
exceptions yield inf/nan, as on a device.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional, Tuple

import numpy as np

from repro.ir.instructions import (
    BinOp,
    Cast,
    CastKind,
    CmpPred,
    ExtractElement,
    FCmp,
    GEP,
    ICmp,
    InsertElement,
    Instruction,
    Opcode,
    Select,
)
from repro.ir.types import BoolType, FloatType, IntType, PointerType, Type, VectorType
from repro.ir.values import Constant, Value
from repro.runtime.errors import RuntimeLaunchError


def np_type(ty: Type) -> np.dtype:
    """The numpy dtype of a scalar IR type (pointers are int64)."""
    if isinstance(ty, (IntType, FloatType)):
        return ty.numpy_dtype
    if isinstance(ty, BoolType):
        return np.dtype(bool)
    if isinstance(ty, PointerType):
        return np.dtype(np.int64)
    raise TypeError(f"no runtime dtype for {ty}")


def splat(c: Constant, n: int) -> np.ndarray:
    """``c`` broadcast to ``n`` lanes."""
    return np.full(n, c.value, dtype=np_type(c.type))


def _unsigned(dt: np.dtype) -> np.dtype:
    return np.dtype(f"u{dt.itemsize}")


def int_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-style truncating integer division (numpy ``//`` floors).

    A zero divisor is undefined in C; here it divides by 1."""
    safe_b = np.where(b == 0, 1, b)
    q = a // safe_b
    r = a - q * safe_b
    adjust = (r != 0) & ((a < 0) != (safe_b < 0))
    return (q + adjust).astype(a.dtype)


def _int_rem(a, b):
    return a - int_div(a, b) * b


def _xor(a, b):
    return a ^ b if a.dtype == bool else a ^ b.astype(a.dtype)


# shift counts are masked to the operand width, as OpenCL C specifies
def _shl(a, b):
    return a << (b & (a.dtype.itemsize * 8 - 1))


def _ashr(a, b):
    return a >> (b & (a.dtype.itemsize * 8 - 1))


def _lshr(a, b):
    udt = _unsigned(a.dtype)
    return (a.view(udt) >> (b & (a.dtype.itemsize * 8 - 1)).view(udt)).view(a.dtype)


BINOPS = {
    Opcode.ADD: operator.add,
    Opcode.FADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.FSUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.FMUL: operator.mul,
    Opcode.FDIV: operator.truediv,
    Opcode.SDIV: int_div,
    Opcode.UDIV: int_div,
    Opcode.SREM: _int_rem,
    Opcode.UREM: _int_rem,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: _xor,
    Opcode.SHL: _shl,
    Opcode.ASHR: _ashr,
    Opcode.LSHR: _lshr,
}

_COMPARES = {
    CmpPred.EQ: operator.eq,
    CmpPred.OEQ: operator.eq,
    CmpPred.NE: operator.ne,
    CmpPred.ONE: operator.ne,
    CmpPred.SLT: operator.lt,
    CmpPred.ULT: operator.lt,
    CmpPred.OLT: operator.lt,
    CmpPred.SLE: operator.le,
    CmpPred.ULE: operator.le,
    CmpPred.OLE: operator.le,
    CmpPred.SGT: operator.gt,
    CmpPred.UGT: operator.gt,
    CmpPred.OGT: operator.gt,
    CmpPred.SGE: operator.ge,
    CmpPred.UGE: operator.ge,
    CmpPred.OGE: operator.ge,
}


def _compare(pred: CmpPred) -> Callable:
    f = _COMPARES[pred]
    if pred not in (CmpPred.ULT, CmpPred.ULE, CmpPred.UGT, CmpPred.UGE):
        return f

    def unsigned_compare(a, b):
        udt = _unsigned(a.dtype)
        return f(a.view(udt), b.view(udt))
    return unsigned_compare


def _cast(kind: CastKind, src: Type, dst: Type) -> Callable:
    if kind == CastKind.BITCAST and isinstance(dst, PointerType):
        return lambda v: v  # pointer bitcasts keep the encoded address
    if kind == CastKind.INT_TO_BOOL:
        return lambda v: v != 0
    dt = np_type(dst)
    if kind == CastKind.BITCAST:
        return lambda v: v.view(dt) if v.dtype.itemsize == dt.itemsize else v.astype(dt)
    if kind in (CastKind.FPTOSI, CastKind.FPTOUI):
        return lambda v: np.trunc(v).astype(dt)
    if kind == CastKind.ZEXT and isinstance(src, IntType) and src.signed:
        udt = _unsigned(src.numpy_dtype)
        return lambda v: v.view(udt).astype(dt)
    # trunc, sext, zext, int <-> float, float <-> float, bool -> int
    return lambda v: v.astype(dt)


def _gep(strides: Tuple[int, ...]) -> Callable:
    """``base + sum(index * stride)`` in int64 byte addresses."""
    if len(strides) == 1:
        (s,) = strides
        return lambda base, i: base + i.astype(np.int64) * s

    def gep(base, *indices):
        out = base
        for i, s in zip(indices, strides):
            out = out + i.astype(np.int64) * s
        return out
    return gep


def _select_vector(c, t, f):
    return np.where(c[..., None], t, f)


def _extract(vec, iv):
    if iv.ndim + 1 > vec.ndim:
        vec = np.broadcast_to(vec, iv.shape + (vec.shape[-1],))
    elif iv.ndim + 1 < vec.ndim:
        iv = np.broadcast_to(iv, vec.shape[:-1])
    return np.take_along_axis(vec, iv[..., None], axis=-1)[..., 0]


def _insert(index: Optional[int]) -> Callable:
    def insert(vec, val, iv=None):
        if val.ndim + 1 > vec.ndim:
            vec = np.broadcast_to(vec, val.shape + (vec.shape[-1],))
        vec = vec.copy()
        if index is not None:
            vec[..., index] = val
        else:
            np.put_along_axis(
                vec, np.broadcast_to(iv, vec.shape[:-1])[..., None],
                np.broadcast_to(val, vec.shape[:-1])[..., None], axis=-1,
            )
        return vec
    return insert


def resolve(inst: Instruction) -> Tuple[Callable, Tuple[Value, ...]]:
    """``(f, operands)`` such that ``f(*operand arrays)`` is ``inst``'s
    value.  A constant vector index is bound into ``f`` and left out of
    ``operands``.  Loads, stores, calls, allocas and terminators are
    not pure-value instructions: they raise :class:`RuntimeLaunchError`."""
    if isinstance(inst, BinOp):
        return BINOPS[inst.opcode], (inst.lhs, inst.rhs)
    if isinstance(inst, (ICmp, FCmp)):
        return _compare(inst.pred), tuple(inst.operands)
    if isinstance(inst, Cast):
        return _cast(inst.kind, inst.value.type, inst.type), (inst.value,)
    if isinstance(inst, GEP):
        return _gep(tuple(inst.strides())), tuple(inst.operands)
    if isinstance(inst, Select):
        vec = isinstance(inst.type, VectorType)
        return (_select_vector if vec else np.where), tuple(inst.operands)
    if isinstance(inst, ExtractElement):
        if isinstance(inst.index, Constant):
            i = int(inst.index.value)
            return (lambda vec: vec[..., i]), (inst.vec,)
        return _extract, (inst.vec, inst.index)
    if isinstance(inst, InsertElement):
        if isinstance(inst.index, Constant):
            return _insert(int(inst.index.value)), (inst.vec, inst.value)
        return _insert(None), (inst.vec, inst.value, inst.index)
    raise RuntimeLaunchError(f"cannot execute {type(inst).__name__}")
