"""Small IR clean-up passes run after lowering.

``promote_single_store_slots`` is a mem2reg-lite: a stack slot written
exactly once in the entry block is a constant binding (``int lx =
get_local_id(0);``), so its loads are forwarded to the stored value and
the slot disappears.  This leaves exactly the IR shape the paper's
expression trees expect — thread-index *calls* as leaves — while loop
counters (multiple stores) keep their slots and appear as the paper's
phi-node leaves.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.function import Function
from repro.ir.instructions import Alloca, Instruction, Load, Opcode, Store
from repro.ir.values import Value


def promote_single_store_slots(fn: Function) -> int:
    """Forward loads of single-store entry-block slots; returns #promoted."""
    stores: Dict[Alloca, List[Store]] = {}
    loads: Dict[Alloca, List[Load]] = {}
    order: Dict[Instruction, int] = {}
    for i, inst in enumerate(fn.instructions()):
        order[inst] = i
        if isinstance(inst, Store) and isinstance(inst.ptr, Alloca):
            stores.setdefault(inst.ptr, []).append(inst)
        elif isinstance(inst, Load) and isinstance(inst.ptr, Alloca):
            loads.setdefault(inst.ptr, []).append(inst)

    promoted = 0
    for slot, sts in stores.items():
        if len(sts) != 1:
            continue
        st = sts[0]
        if st.parent is not fn.entry:
            continue
        # every use of the slot must be this store or a load after it
        uses_ok = all(
            u is st or (isinstance(u, Load) and order[u] > order[st])
            for u in slot.users
        )
        if not uses_ok:
            continue
        value = st.value
        for ld in loads.get(slot, []):
            ld.replace_all_uses_with(value)
            ld.erase_from_parent()
        st.erase_from_parent()
        slot.erase_from_parent()
        promoted += 1
    return promoted


def _is_hoistable_kind(inst: Instruction) -> bool:
    from repro.ir.instructions import (
        BinOp,
        Call,
        Cast,
        ExtractElement,
        FCmp,
        GEP,
        ICmp,
        Select,
    )

    if isinstance(inst, (BinOp, Cast, GEP, ICmp, FCmp, Select, ExtractElement)):
        return True
    if isinstance(inst, Call):
        # work-item queries are pure and uniform across iterations
        return inst.callee in (
            "get_global_id",
            "get_local_id",
            "get_group_id",
            "get_global_size",
            "get_local_size",
            "get_num_groups",
        )
    return False


def loop_invariant_code_motion(fn: Function) -> int:
    """Hoist loop-invariant pure computation into loop preheaders.

    This mirrors what vendor OpenCL compilers do to the SPIR before
    execution; without it the nGL index arithmetic Grover materialises in
    front of an inner-loop local load would be unfairly re-executed every
    iteration (real pipelines hoist it, and so does ours).

    A load from a stack slot is invariant when the loop body contains no
    store to that slot; global/local memory loads are never hoisted
    (other work-items may write between barriers).
    """
    from repro.ir.cfg import natural_loops

    hoisted_total = 0
    changed = True
    while changed:
        changed = False
        for loop in natural_loops(fn):
            pre = loop.preheader
            if pre is None or pre.terminator is None:
                continue
            # iterate in function block order, not set order: hoisting is
            # order-sensitive in the preheader, and set iteration depends
            # on identity hashes (nondeterministic across heap layouts)
            body_blocks = [bb for bb in fn.blocks if bb in loop.body]
            stored_slots = {
                inst.ptr
                for bb in body_blocks
                for inst in bb.instructions
                if isinstance(inst, Store) and isinstance(inst.ptr, Alloca)
            }
            in_loop = {
                inst for bb in body_blocks for inst in bb.instructions
            }

            def invariant_operand(op) -> bool:
                return op not in in_loop

            moved = True
            while moved:
                moved = False
                for bb in list(body_blocks):
                    for inst in list(bb.instructions):
                        if inst.is_terminator or inst not in in_loop:
                            continue
                        ok = False
                        if _is_hoistable_kind(inst):
                            ok = all(invariant_operand(op) for op in inst.operands)
                        elif isinstance(inst, Load) and isinstance(inst.ptr, Alloca):
                            ok = inst.ptr not in stored_slots
                        if not ok:
                            continue
                        # move to the end of the preheader (before its branch)
                        bb.instructions.remove(inst)
                        pre.insert_before(pre.terminator, inst)
                        in_loop.discard(inst)
                        hoisted_total += 1
                        moved = True
                        changed = True
    return hoisted_total


#: integer opcodes whose right operand 0 is an identity (``x op 0 == x``)
_ZERO_IDENTITY = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.OR, Opcode.XOR,
    Opcode.SHL, Opcode.LSHR, Opcode.ASHR,
})
#: integer opcodes whose right operand 1 is an identity (``x op 1 == x``)
_ONE_IDENTITY = frozenset({Opcode.MUL, Opcode.SDIV, Opcode.UDIV})
_COMMUTATIVE = frozenset({Opcode.ADD, Opcode.OR, Opcode.XOR, Opcode.MUL})


def fold_constants(fn: Function) -> int:
    """Fold binops/casts whose operands are all constants, and integer
    identities (``x + 0``, ``x * 1``, ...) into their variable operand."""

    from repro.ir.instructions import BinOp, Cast
    from repro.ir.types import FloatType, IntType
    from repro.ir.values import Constant

    folded = 0
    changed = True
    while changed:
        changed = False
        for bb in fn.blocks:
            for inst in list(bb.instructions):
                result = None
                if isinstance(inst, BinOp):
                    if all(isinstance(o, Constant) for o in inst.operands):
                        result = _fold_binop(inst)
                        if result is not None:
                            result = Constant(inst.type, result)
                    else:
                        result = _identity_operand(inst)
                elif isinstance(inst, Cast) and isinstance(inst.value, Constant):
                    if isinstance(inst.type, (IntType, FloatType)):
                        result = Constant(inst.type, inst.value.value)
                if result is None:
                    continue
                inst.replace_all_uses_with(result)
                inst.erase_from_parent()
                folded += 1
                changed = True
    return folded


def _identity_operand(inst):
    """``x`` for an integer binop of ``x`` and its opcode's identity
    constant (on the right, or on either side of a commutative opcode),
    else ``None``.  Float opcodes never fold: ``-0.0 + 0.0`` is
    ``+0.0``."""
    from repro.ir.types import IntType
    from repro.ir.values import Constant

    op = inst.opcode
    if not isinstance(inst.type, IntType):
        return None
    if op in _ZERO_IDENTITY:
        unit = 0
    elif op in _ONE_IDENTITY:
        unit = 1
    else:
        return None
    lhs, rhs = inst.operands
    if isinstance(rhs, Constant) and rhs.value == unit:
        return lhs
    if op in _COMMUTATIVE and isinstance(lhs, Constant) and lhs.value == unit:
        return rhs
    return None


def _fold_binop(inst):
    """The value of a binop of two constants, or ``None`` to leave it.

    Every opcode computes through :mod:`repro.runtime.ops` on
    one-element arrays of the operand dtype, so a fold equals what the
    runtime computes (float32 rounding, wrap-around, truncating
    division, masked shift counts); a zero divisor is left to the
    runtime.  ``lshr`` is not folded.
    """
    import numpy as np

    from repro.runtime import ops

    lhs, rhs = inst.operands
    op = inst.opcode
    if op == Opcode.LSHR:
        return None
    divisions = (Opcode.FDIV, Opcode.SDIV, Opcode.UDIV, Opcode.SREM, Opcode.UREM)
    if op in divisions and not rhs.value:
        return None
    with np.errstate(all="ignore"):
        return ops.BINOPS[op](ops.splat(lhs, 1), ops.splat(rhs, 1)).item()


def common_subexpression_elimination(fn: Function) -> int:
    """Dominator-scoped CSE over pure instructions.

    Mirrors the GVN a vendor compiler applies to the SPIR: the index
    chains Grover materialises share most sub-expressions with code that
    already exists (that is the point of Algorithm 1's reuse), and CSE
    folds the rest.
    """
    from repro.ir.cfg import immediate_dominators, reverse_postorder
    from repro.ir.instructions import (
        BinOp,
        Call,
        Cast,
        ExtractElement,
        FCmp,
        GEP,
        ICmp,
        Select,
    )
    from repro.ir.values import Constant

    pure_calls = {
        "get_global_id",
        "get_local_id",
        "get_group_id",
        "get_global_size",
        "get_local_size",
        "get_num_groups",
        "splat",
    }

    def key(inst: Instruction):
        def op_key(v: Value):
            if isinstance(v, Constant):
                return ("c", str(v.type), v.value)
            return id(v)

        ops = tuple(op_key(o) for o in inst.operands)
        if isinstance(inst, BinOp):
            return ("bin", inst.opcode, ops)
        if isinstance(inst, (ICmp, FCmp)):
            return ("cmp", type(inst).__name__, inst.pred, ops)
        if isinstance(inst, Cast):
            return ("cast", inst.kind, str(inst.type), ops)
        if isinstance(inst, GEP):
            return ("gep", ops)
        if isinstance(inst, Select):
            return ("sel", ops)
        if isinstance(inst, ExtractElement):
            return ("ext", ops)
        if isinstance(inst, Call) and inst.callee in pure_calls:
            return ("call", inst.callee, ops)
        return None

    idom = immediate_dominators(fn)
    tables: dict = {}
    removed = 0
    for bb in reverse_postorder(fn):
        table: dict = {}
        tables[bb] = table

        def lookup(k):
            blk = bb
            while blk is not None:
                v = tables.get(blk, {}).get(k)
                if v is not None:
                    return v
                blk = idom.get(blk)
            return None

        for inst in list(bb.instructions):
            k = key(inst)
            if k is None:
                continue
            existing = lookup(k)
            if existing is not None:
                inst.replace_all_uses_with(existing)
                inst.erase_from_parent()
                removed += 1
            else:
                table[k] = inst
    return removed

