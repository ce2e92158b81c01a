"""Index-expression normalisation (reassociation + canonical form).

Vendor compilers reassociate and value-number address arithmetic before
executing a kernel; without that, the index chains Grover materialises
in front of each local load would be unfairly long compared to the
original code (e.g. the five neighbour loads of a stencil share almost
their whole address computation).

The pass rewrites every affine GEP index into a canonical
sum-of-products: symbol terms in a stable order, the constant term
last.  Two indices that differ only by a constant offset then share a
maximal instruction prefix, which the CSE pass collapses — leaving one
extra ``add`` per neighbour access, as a real optimising compiler would.
"""

from __future__ import annotations

from typing import List

from repro.core.affine import AffineContext
from repro.core.linexpr import ONE
from repro.core.rewrite import Materializer, RewriteError
from repro.ir.builder import IRBuilder
from repro.ir.cfg import dominators
from repro.ir.function import Function
from repro.ir.instructions import GEP, BinOp, Call, Cast, Load
from repro.ir.values import Constant, Value
from repro.ir.types import IntType


def _chains_equal(a: Value, b: Value) -> bool:
    """Structural equality of two pure index-computation chains.

    Used to recognise an index that is *already* in canonical form: if
    the freshly materialised chain is shaped exactly like the existing
    one, the rewrite is a no-op and gets skipped — which makes the pass
    idempotent (skipping never changes semantics; the existing chain is
    the status quo).  Loads compare by address only: the pass
    materialises loads of stack slots, and a structural match means the
    existing chain reads the same slot the canonical chain would.
    """
    if a is b:
        return True
    if isinstance(a, Constant) and isinstance(b, Constant):
        return a.type == b.type and a.value == b.value
    if type(a) is not type(b) or a.type != b.type:
        return False
    if isinstance(a, BinOp):
        if a.opcode != b.opcode:
            return False
    elif isinstance(a, Cast):
        if a.kind != b.kind:
            return False
    elif isinstance(a, Call):
        if a.callee != b.callee:
            return False
    elif not isinstance(a, Load):
        return False
    if len(a.operands) != len(b.operands):
        return False
    return all(_chains_equal(x, y) for x, y in zip(a.operands, b.operands))


def normalize_gep_indices(fn: Function) -> int:
    """Rewrite affine GEP indices into canonical form; returns #rewritten.

    Idempotent: an index whose chain already has the canonical shape is
    left untouched (and not counted), so a second run reports 0.
    """
    ctx = AffineContext(fn, key_loads_by_instance=True)
    doms = dominators(fn)
    builder = IRBuilder()
    rewritten = 0

    geps: List[GEP] = [i for i in fn.instructions() if isinstance(i, GEP)]
    for gep in geps:
        for pos, idx in enumerate(gep.indices):
            if isinstance(idx, Constant) or not isinstance(idx.type, IntType):
                continue
            expr = ctx.to_linexpr(idx)
            if not expr.is_integral():
                continue
            n_sym_terms = sum(1 for s in expr.terms if s != ONE)
            if len(expr.terms) < 2 and n_sym_terms <= 1:
                continue  # nothing to reassociate
            builder.position_before(gep)
            mat = Materializer(builder, fn, doms, gep)
            block = gep.parent
            start = block.instructions.index(gep)
            try:
                new_idx = mat.materialize(expr)
            except RewriteError:
                continue  # an index term is unavailable here; keep original
            if _chains_equal(new_idx, idx):
                # already canonical: erase the duplicate chain just built
                end = block.instructions.index(gep)
                for inst in reversed(block.instructions[start:end]):
                    inst.erase_from_parent()
                continue
            gep.set_operand(1 + pos, new_idx)
            rewritten += 1
    return rewritten
