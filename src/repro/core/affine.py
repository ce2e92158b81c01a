"""Affine analysis: IR values / expression trees -> :class:`LinExpr`.

This implements the abstraction step of Equation 1-2: a data index is
re-expressed as a linear function of the local thread index (and of
opaque per-kernel symbols such as loop counters and scalar arguments).

Mutable stack slots with a *single dominating store* are forwarded (the
``int lx = get_local_id(0);`` idiom lowers to such a slot); slots with
several stores — loop counters — stay opaque symbols, matching the
paper's treatment of phi nodes as leaves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from repro.core.linexpr import (
    ONE,
    LinExpr,
    Symbol,
    gid,
    lid,
    lsize,
    prod_symbol,
    wid,
)
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    CastKind,
    Load,
    Opcode,
    Store,
)
from repro.ir.values import Argument, Constant, Value

_TRANSPARENT_CASTS = {
    CastKind.TRUNC,
    CastKind.SEXT,
    CastKind.ZEXT,
    CastKind.BITCAST,
    CastKind.BOOL_TO_INT,
}

_ID_CALLS = {
    "get_local_id": lid,
    "get_group_id": wid,
    "get_global_id": gid,
    "get_local_size": lsize,
}


class AffineContext:
    """Per-function store analysis used for slot forwarding.

    With ``key_loads_by_instance`` the symbol for a multi-store slot load
    is the *load instruction itself* rather than the slot: two loads of a
    loop counter at different program points then stay distinct.  The
    solver wants slot-keyed symbols (equations relate the same loop
    counter on both sides); the index normaliser wants instance-keyed
    symbols (it may only reuse the exact dominating load).
    """

    def __init__(self, fn: Function, key_loads_by_instance: bool = False) -> None:
        self.fn = fn
        self.key_loads_by_instance = key_loads_by_instance
        self.slot_stores: Dict[Alloca, List[Store]] = {}
        for inst in fn.instructions():
            if isinstance(inst, Store) and isinstance(inst.ptr, Alloca):
                self.slot_stores.setdefault(inst.ptr, []).append(inst)

    def forwarded(self, slot: Alloca) -> Optional[Value]:
        """The unique stored value if the slot is single-assignment."""
        stores = self.slot_stores.get(slot, [])
        if len(stores) != 1:
            return None
        st = stores[0]
        # the store must sit in the entry block so it dominates all loads
        if st.parent is not self.fn.entry:
            return None
        return st.value

    # -- main analysis -----------------------------------------------------------
    def to_linexpr(self, value: Value, _depth: int = 0) -> LinExpr:
        """Abstract ``value`` as a linear expression.

        Never fails: non-affine sub-expressions become opaque symbols,
        which later stages may reject if they interfere with solving.
        """
        if _depth > 128:
            return LinExpr.symbol(("opaque", value))
        if isinstance(value, Constant):
            return LinExpr.constant(value.value)
        if isinstance(value, Argument):
            return LinExpr.symbol(("arg", value))
        if isinstance(value, Call):
            maker = _ID_CALLS.get(value.callee)
            if maker is not None and isinstance(value.args[0], Constant):
                return LinExpr.symbol(maker(int(value.args[0].value)))
            return LinExpr.symbol(("opaque", value))
        if isinstance(value, Cast):
            if value.kind in _TRANSPARENT_CASTS:
                return self.to_linexpr(value.value, _depth + 1)
            return LinExpr.symbol(("opaque", value))
        if isinstance(value, Load):
            ptr = value.ptr
            if isinstance(ptr, Alloca):
                fwd = self.forwarded(ptr)
                if fwd is not None:
                    return self.to_linexpr(fwd, _depth + 1)
                if self.key_loads_by_instance:
                    return LinExpr.symbol(("opaque", value))
                return LinExpr.symbol(("slot", ptr))
            return LinExpr.symbol(("opaque", value))
        if isinstance(value, BinOp):
            a = self.to_linexpr(value.lhs, _depth + 1)
            b = self.to_linexpr(value.rhs, _depth + 1)
            op = value.opcode
            if op == Opcode.ADD:
                return a + b
            if op == Opcode.SUB:
                return a - b
            if op == Opcode.MUL:
                prod = a * b
                if prod is not None:
                    return prod
                # symbolic-stride distribution: (sum) * (c * s) with a
                # single-term factor distributes into 'prod' symbols,
                # keeping e.g. (gy+1)*W == W*gy + W exact and shareable
                dist = _distribute(a, b)
                if dist is None:
                    dist = _distribute(b, a)
                if dist is not None:
                    return dist
            if op == Opcode.SHL and b.is_constant() and b.const().denominator == 1:
                shift = b.const()
                if 0 <= shift < 63:
                    return a.scale(1 << int(shift))
            if op in (Opcode.SDIV, Opcode.UDIV) and b.is_constant() and b.const() != 0:
                if a.is_constant():
                    # exact only when divisible; else opaque
                    q = Fraction(a.const(), b.const())
                    if q.denominator == 1:
                        return LinExpr.constant(q)
            if op in (Opcode.AND, Opcode.OR, Opcode.XOR) and a.is_constant() and b.is_constant():
                ca, cb = a.const(), b.const()
                if ca.denominator == cb.denominator == 1:
                    table = {
                        Opcode.AND: int(ca) & int(cb),
                        Opcode.OR: int(ca) | int(cb),
                        Opcode.XOR: int(ca) ^ int(cb),
                    }
                    return LinExpr.constant(table[op])
            return LinExpr.symbol(("opaque", value))
        return LinExpr.symbol(("opaque", value))


def _distribute(expr: LinExpr, factor: LinExpr) -> Optional[LinExpr]:
    """``expr * factor`` when ``factor`` is a single symbol term
    ``c * s``; every term of ``expr`` becomes a 'prod' symbol."""
    items = list(factor.terms.items())
    if len(items) != 1 or items[0][0] == ONE:
        return None
    f_sym, f_coeff = items[0]
    out = {}
    for sym, coeff in expr.terms.items():
        if sym == ONE:
            key: Symbol = f_sym
        else:
            key = prod_symbol(sym, f_sym)
        out[key] = out.get(key, 0) + coeff * f_coeff
    return LinExpr(out)

