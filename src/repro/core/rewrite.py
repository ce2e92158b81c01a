"""Creating the new global load ``nGL`` (paper Sections IV-E, IV-F).

For one local load ``LL`` with solved writer thread index, this module:

1. materialises the solution's linear expressions as IR instructions
   immediately before the ``LL``;
2. builds the ``GL`` pointer expression tree, substitutes the
   ``get_local_id`` (and, transitively, ``get_global_id``) leaves with
   the materialised solution, and duplicates the marked nodes per
   Algorithm 1;
3. creates the ``nGL`` load through the new pointer; committing then
   replaces every use of the ``LL`` with it.

Emitting and committing are separate steps, so the pass can emit the
``nGL`` of every ``LL`` of a candidate before it replaces any of them,
and leave the IR as it was when one of them cannot be rewritten.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.candidates import Candidate
from repro.core.duplicate import duplicate_instructions, mark_tree
from repro.core.exprtree import ExprNode, build_tree, global_id_dim, local_id_dim
from repro.core.linexpr import ONE, LinExpr, Symbol, lid
from repro.core.linsys import Solution
from repro.ir.builder import IRBuilder
from repro.ir.cfg import dominators, inst_dominates
from repro.ir.function import Function
from repro.ir.instructions import CastKind, Instruction, Load
from repro.ir.types import I64, IntType, U32
from repro.ir.values import Constant, Value


class RewriteError(Exception):
    pass


class Materializer:
    """Emits IR computing a :class:`LinExpr` (in i64) at a fixed position."""

    def __init__(self, builder: IRBuilder, fn: Function, doms, anchor: Instruction) -> None:
        self.builder = builder
        self.fn = fn
        self.doms = doms
        self.anchor = anchor
        self._sym_cache: Dict[Symbol, Value] = {}

    def to_i64(self, v: Value) -> Value:
        ty = v.type
        if ty == I64:
            return v
        if isinstance(ty, IntType):
            if ty.bits < 64:
                kind = CastKind.SEXT if ty.signed else CastKind.ZEXT
                return self.builder.cast(kind, v, I64)
            return self.builder.cast(CastKind.BITCAST, v, I64)
        raise RewriteError(f"cannot use value of type {ty} in an index expression")

    def symbol_value(self, sym: Symbol) -> Value:
        cached = self._sym_cache.get(sym)
        if cached is not None:
            return cached
        kind = sym[0]
        if kind in ("lid", "wid", "gid", "lsize"):
            callee = {
                "lid": "get_local_id",
                "wid": "get_group_id",
                "gid": "get_global_id",
                "lsize": "get_local_size",
            }[kind]
            v = self.builder.call(callee, [Constant(U32, sym[1])], I64)
        elif kind == "arg":
            v = self.to_i64(sym[1])
        elif kind == "slot":
            v = self.to_i64(self.builder.load(sym[1]))
        elif kind == "opaque":
            src = sym[1]
            if isinstance(src, Instruction) and not inst_dominates(
                self.doms, src, self.anchor
            ):
                raise RewriteError(
                    f"index term {src!r} is not available at the local load"
                )
            v = self.to_i64(src)
        elif kind == "prod":
            v = self.symbol_value(sym[1])
            for factor in sym[2:]:
                v = self.builder.mul(v, self.symbol_value(factor))
        else:  # pragma: no cover
            raise RewriteError(f"cannot materialise symbol {sym}")
        self._sym_cache[sym] = v
        return v

    @staticmethod
    def _term_order(item) -> tuple:
        """Canonical term ordering for materialised sums.

        Stable terms (thread-index symbols and their stride products)
        come first, loop-varying terms (slot loads) next-to-last, and
        the constant term last.  Index expressions that differ only in a
        loop counter or a constant offset — neighbouring stencil taps,
        consecutive tile rows — then share a maximal instruction prefix,
        which CSE merges and LICM hoists out of the loop.
        """
        sym, _ = item
        if sym == ONE:
            return (9, "", 0)

        def varies(s) -> bool:
            if s[0] == "slot":
                return True
            if s[0] == "prod":
                return any(varies(f) for f in s[1:])
            return False

        from repro.core.linexpr import stable_value_key

        def skey(s) -> tuple:
            if s[0] in ("lid", "wid", "gid", "lsize"):
                return (s[0], s[1])
            if s[0] == "prod":
                return ("prod", tuple(skey(f) for f in s[1:]))
            return (s[0], stable_value_key(s[1]))

        kind = sym[0]
        if varies(sym):
            return (8, skey(sym))
        if kind in ("lid", "wid", "gid", "lsize"):
            return (0, skey(sym))
        if kind == "prod":
            return (1, skey(sym))
        if kind == "opaque":
            return (2, skey(sym))
        return (3, skey(sym))  # arguments

    def materialize(self, expr: LinExpr) -> Value:
        acc: Optional[Value] = None
        for sym, coeff in sorted(expr.terms.items(), key=self._term_order):
            if coeff.denominator != 1:
                raise RewriteError(f"non-integral coefficient in {expr.render()}")
            c = int(coeff)
            if sym == ONE:
                term: Value = Constant(I64, c)
            else:
                term = self.symbol_value(sym)
                if c != 1:
                    term = self.builder.mul(term, Constant(I64, c))
            acc = term if acc is None else self.builder.add(acc, term)
        return acc if acc is not None else Constant(I64, 0)


def build_substitutions(
    tree: ExprNode,
    sol: Solution,
    mat: Materializer,
) -> Dict[ExprNode, Value]:
    """Map substituted leaves of the GL pointer tree to new values.

    ``get_local_id(d)`` leaves become the materialised solution for
    dimension ``d``; ``get_global_id(d)`` leaves become
    ``get_group_id(d) * get_local_size(d) + solution_d`` (the group part
    of a global id stays, only the local part is replaced).
    """
    subst: Dict[ExprNode, Value] = {}
    sol_cache: Dict[int, Value] = {}

    def solved(d: int) -> Value:
        if d not in sol_cache:
            sol_cache[d] = mat.materialize(sol[lid(d)])
        return sol_cache[d]

    for node in tree.walk():
        if not node.is_leaf:
            continue
        d = local_id_dim(node.value)
        if d is not None and lid(d) in sol:
            subst[node] = solved(d)
            continue
        d = global_id_dim(node.value)
        if d is not None and lid(d) in sol:
            group = mat.symbol_value(("wid", d))
            size = mat.symbol_value(("lsize", d))
            base = mat.builder.mul(group, size)
            subst[node] = mat.builder.add(base, solved(d))
    return subst


def required_lids(tree: ExprNode) -> set:
    """Local-id symbols the GL index depends on (directly or via gid)."""
    req = set()
    for node in tree.walk():
        d = local_id_dim(node.value)
        if d is None:
            d = global_id_dim(node.value)
        if d is not None:
            req.add(lid(d))
    return req


def _check_clone_operands(
    tree: ExprNode,
    subst: Dict[ExprNode, Value],
    doms,
    anchor: Instruction,
) -> None:
    """Cloning an index instruction at the ``LL`` is only legal when its
    *operands* are available there too.  A leaf whose SSA value does not
    dominate the anchor gets cloned — but when the value it loads from
    (e.g. the alloca of a loop counter declared *after* the local load)
    does not dominate the anchor either, the clone would be invalid IR,
    so the candidate must be rejected instead (the GL index simply is
    not computable at this load site)."""
    for node in tree.walk():
        if not node.state or node in subst or not node.is_leaf:
            continue
        v = node.value
        if not isinstance(v, Instruction):
            continue
        for op in v.operands:
            if isinstance(op, Instruction) and not inst_dominates(
                doms, op, anchor
            ):
                raise RewriteError(
                    f"index term {v!r} cannot be re-created at the local "
                    f"load: its operand {op!r} is not available there"
                )


def emit_global_load(
    fn: Function,
    cand: Candidate,
    ll: Load,
    sol: Solution,
    reuse_subexprs: bool = True,
) -> List[Instruction]:
    """Emit the ``nGL`` for ``ll`` immediately before it, leaving ``ll``
    and its uses alone; returns the emitted instructions, ``nGL`` last
    (see :func:`commit_global_load`, :func:`discard`).  On
    :class:`RewriteError` nothing stays emitted."""
    if cand.gl.type != ll.type:
        raise RewriteError(
            f"type mismatch: global load is {cand.gl.type}, local load is {ll.type}"
        )
    doms = dominators(fn)
    builder = IRBuilder()
    builder.position_before(ll)
    block = ll.parent
    start = block.instructions.index(ll)

    def emitted() -> List[Instruction]:
        return block.instructions[start : block.instructions.index(ll)]

    try:
        mat = Materializer(builder, fn, doms, ll)
        tree = build_tree(cand.gl.ptr)
        subst = build_substitutions(tree, sol, mat)
        mark_tree(tree, subst, anchor=ll, doms=doms, force_all=not reuse_subexprs)
        _check_clone_operands(tree, subst, doms, ll)
        new_ptr = duplicate_instructions(tree, builder, subst)
        if not isinstance(new_ptr, Value):  # pragma: no cover
            raise RewriteError("duplication produced no pointer")
    except RewriteError:
        discard(emitted())
        raise
    builder.emit(Load(new_ptr, name=f"nGL_{cand.name}"))
    return emitted()


def commit_global_load(ll: Load, chain: List[Instruction]) -> Load:
    """Replace ``ll`` with the ``nGL`` that ends ``chain``; returns it."""
    ngl = chain[-1]
    ll.replace_all_uses_with(ngl)
    ll.erase_from_parent()
    return ngl


def discard(chain: List[Instruction]) -> None:
    """Erase an emitted chain, users before the values they use."""
    for inst in reversed(chain):
        inst.erase_from_parent()
