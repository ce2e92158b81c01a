"""Data-index patterns: splitting flattened indices into dimensions.

Paper Section IV-C / Fig. 7: a 2-D data index stored through a flat
(1-D) array appears as the tree pattern ``+ -> *`` — the ``*`` node with
a constant row stride separates the high dimension from the low one; the
derived pattern ``+ -> + -> *`` additionally carries a loop-dependent
low-dimension term at the second tree level.

We implement this as (a) a syntactic stride detector over the expression
tree (finds the multiplier constants of ``*``/``<<`` nodes, exactly the
nodes the paper's matcher looks for) and (b) an exact splitter over the
affine form: a term belongs to the high dimension iff its coefficient is
divisible by the stride.  The ``strict`` mode implements only the plain
``+ -> *`` pattern (at most one term on each side) and is used by the
pattern ablation benchmark.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from repro.core.affine import AffineContext
from repro.core.exprtree import ExprNode, build_tree
from repro.core.linexpr import ONE, LinExpr
from repro.ir.instructions import BinOp, GEP, Opcode
from repro.ir.values import Constant


class PatternError(Exception):
    """The data index does not match a supported pattern."""


def detect_strides(tree: ExprNode) -> List[int]:
    """Constant multipliers found at ``*`` / ``<<`` nodes, descending.

    These are the candidate row strides of the ``+ -> *`` pattern.
    """
    found = set()
    for node in tree.walk():
        v = node.value
        if isinstance(v, BinOp):
            if v.opcode == Opcode.MUL:
                for op in (v.lhs, v.rhs):
                    if isinstance(op, Constant) and int(op.value) > 1:
                        found.add(int(op.value))
            elif v.opcode == Opcode.SHL and isinstance(v.rhs, Constant):
                sh = int(v.rhs.value)
                if 0 < sh < 63:
                    found.add(1 << sh)
    return sorted(found, reverse=True)


def split_by_stride(expr: LinExpr, stride: int, strict: bool = False) -> List[LinExpr]:
    """Split ``expr`` into ``[low, high]`` such that
    ``expr == high * stride + low``.

    A symbol term goes to the high dimension iff its coefficient is a
    multiple of ``stride``; the constant term is split with divmod
    (handles halo offsets like ``(ly+1)*S + (lx+1)``).  In ``strict``
    mode only the plain two-term ``+ -> *`` pattern is accepted
    (Fig. 7(a)); anything richer — e.g. the loop-dependent low term of
    Fig. 7(b) — raises :class:`PatternError`.
    """
    if stride <= 1:
        raise PatternError(f"invalid stride {stride}")
    low: dict = {}
    high: dict = {}
    for sym, coeff in expr.terms.items():
        if sym == ONE:
            if coeff.denominator != 1:
                raise PatternError("non-integral constant term")
            hi_c, lo_c = divmod(int(coeff), stride)
            if hi_c:
                high[ONE] = high.get(ONE, 0) + hi_c
            if lo_c:
                low[ONE] = low.get(ONE, 0) + lo_c
            continue
        if coeff.denominator == 1 and int(coeff) % stride == 0:
            high[sym] = Fraction(coeff, stride)
        else:
            low[sym] = coeff
    low_e, high_e = LinExpr(low), LinExpr(high)
    if strict:
        if len(low_e.terms) > 1 or len(high_e.terms) > 1:
            raise PatternError(
                "index does not match the plain '+ -> *' pattern "
                f"(low={low_e.render()}, high={high_e.render()})"
            )
    return [low_e, high_e]


def determine_data_index(
    ctx: AffineContext,
    gep: GEP,
    strict: bool = False,
    strides: Optional[List[int]] = None,
) -> Tuple[List[LinExpr], List[int]]:
    """The paper's S1: abstract a memory access into per-dimension
    affine indices ``[x, y, z][:ndims]`` (x = fastest-varying).

    Multi-index GEPs (true multi-dimensional arrays) provide the
    dimensions directly; single-index GEPs are split with the
    ``+ -> *`` pattern.  ``strides`` forces the row strides to use
    (the LS access determines the pattern; its strides are then applied
    to every LL so both sides split consistently).  Returns the dims and
    the strides actually used.
    """
    indices = gep.indices
    if len(indices) > 1:
        # innermost (last) index is the fastest-varying dimension x
        return [ctx.to_linexpr(v) for v in reversed(indices)], []
    expr = ctx.to_linexpr(indices[0])
    forced = strides is not None
    if strides is None:
        tree = build_tree(indices[0])
        strides = detect_strides(tree)
    # peel high dimensions off with decreasing strides (supports 3-D
    # flattened indices like z*W*H + y*W + x); each split applies to the
    # remaining low part
    rem = expr
    highs: List[LinExpr] = []
    used: List[int] = []
    for s in strides:
        if len(highs) >= 2:
            break
        try:
            low, high = split_by_stride(rem, s, strict=strict)
        except PatternError:
            if strict:
                raise
            continue
        if high.is_zero() and not forced:
            # with free stride choice a vacuous split adds nothing; under
            # forced (LS-determined) strides the dimension must exist so
            # both sides stay aligned
            continue
        highs.append(high)
        used.append(s)
        rem = low
    # highs were peeled highest-stride first: reverse so dims ascend (x, y, z)
    return [rem] + highs[::-1], used
