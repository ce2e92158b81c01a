"""Local-array padding: break shared-memory bank conflicts.

GPU scratchpads are banked; a column walk through a ``[R][C]`` local
array whose row stride is a multiple of the bank-line size hits the same
banks over and over and serialises (the perf model charges exactly this:
``GPUModel`` derives per-access conflict degrees from ``offset % banks``).
The classic fix is to pad the innermost dimension by one element so the
row stride becomes coprime with the bank count.

Legality is a pure shape argument, arbitrated by the affine analysis the
race analyzer is built on: padding only re-maps addresses, so it is
semantics-preserving iff **every** access to the array indexes every
dimension in bounds — an out-of-range inner index (``lm[0][C]`` reaching
into row 1) would alias differently after padding.  The rule therefore
requires each use to be a full-rank GEP whose per-dimension indices are
affine in work-item ids with provable bounds inside the dimension extent
over the work-group box; anything weaker (opaque indices, flattened
addressing, missing geometry) rejects the array.

The padded kernel's *outputs* are bit-identical; its local-access trace
intentionally differs — fewer modelled conflict cycles is the payoff the
pipeline search scores.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from repro.ir.function import Function
from repro.ir.instructions import GEP
from repro.ir.types import ArrayType
from repro.ir.values import LocalArray
from repro.rules.base import RewriteRule, RuleContext, register_rule

__all__ = ["LocalArrayPaddingRule", "BANK_LINE_BYTES"]

#: a row stride that is a multiple of this many bytes maps successive
#: rows onto the same banks on every modelled device (16 and 32 banks
#: x 4-byte words) — the shapes worth padding
BANK_LINE_BYTES = 64


def _innermost(at: ArrayType) -> ArrayType:
    while isinstance(at.element, ArrayType):
        at = at.element
    return at


def _pad_innermost(at: ArrayType) -> ArrayType:
    if isinstance(at.element, ArrayType):
        return ArrayType(_pad_innermost(at.element), at.count)
    return ArrayType(at.element, at.count + 1)


def _index_bounds(
    expr, geometry: Optional[Tuple[int, ...]]
) -> Optional[Tuple[Fraction, Fraction]]:
    """Min/max of an affine index over the work-group box, or ``None``
    when the expression mentions anything but work-item ids."""
    from repro.core.linexpr import ONE

    lo = hi = expr.coeff(ONE)
    for sym in expr.symbols():
        if sym == ONE:
            continue
        if sym[0] != "lid":
            return None
        if geometry is None or sym[1] >= len(geometry):
            return None
        span = Fraction(geometry[sym[1]] - 1)
        c = expr.coeff(sym)
        if c < 0:
            lo += c * span
        else:
            hi += c * span
    return lo, hi


class LocalArrayPaddingRule(RewriteRule):
    """Pad the innermost dimension of conflict-prone local arrays by one."""

    name = "pad-local-arrays"
    description = (
        "pad the innermost dimension of multi-D __local arrays whose row "
        "stride aliases scratchpad banks (rewrites = arrays padded)"
    )
    legality_arbiter = "affine-bounds"
    legality = (
        "every access must be a full-rank GEP with per-dimension indices "
        "affine in lid and provably in bounds over the work-group box "
        "(padding re-maps addresses; an out-of-range index would alias)"
    )

    def probe(self, fn: Function, ctx: RuleContext) -> bool:
        return fn.is_kernel and any(
            isinstance(la.array_type.element, ArrayType)
            for la in fn.local_arrays
        )

    def apply(self, fn: Function, ctx: RuleContext) -> int:
        if not fn.is_kernel:
            return 0
        from repro.core.affine import AffineContext

        affine = None
        geometry = ctx.geometry(fn)
        padded = 0
        for i, la in enumerate(list(fn.local_arrays)):
            at = la.array_type
            if not isinstance(at.element, ArrayType):
                continue  # 1-D: flat addressing, nothing to pad
            inner = _innermost(at)
            if (inner.count * inner.element.size) % BANK_LINE_BYTES != 0:
                continue  # rows already stride across banks
            if affine is None:
                affine = AffineContext(fn)
            if not self._all_accesses_bounded(la, affine, geometry):
                continue
            new = LocalArray(_pad_innermost(at), la.name)
            la.replace_all_uses_with(new)
            fn.local_arrays[i] = new
            padded += 1
        return padded

    @staticmethod
    def _all_accesses_bounded(la: LocalArray, affine, geometry) -> bool:
        dims = la.array_type.dims()
        for user, idx in la.uses:
            if not isinstance(user, GEP) or idx != 0:
                return False  # escapes into a call/store: cannot reason
            if len(user.indices) != len(dims):
                return False  # partial-rank (flattened) addressing
            for dim, value in zip(dims, user.indices):
                bounds = _index_bounds(affine.to_linexpr(value), geometry)
                if bounds is None:
                    return False
                lo, hi = bounds
                if lo < 0 or hi > dim - 1:
                    return False
        return True


register_rule(LocalArrayPaddingRule())
