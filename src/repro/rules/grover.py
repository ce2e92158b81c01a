"""The paper's pass as a rewrite rule.

``apply`` is the registered ``grover`` pass body, verbatim: the port
must be bit-identical on every app (the golden-report suite pins this),
so the rule adds only metadata — the probe and the legality-arbiter
name — around the exact historical call.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.rules.base import RewriteRule, RuleContext, register_rule

__all__ = ["DisableLocalMemoryRule"]


def _uses_local(fn: Function) -> bool:
    from repro.ir.types import AddressSpace, PointerType

    return bool(fn.local_arrays) or any(
        isinstance(a.type, PointerType)
        and a.type.addrspace == AddressSpace.LOCAL
        for a in fn.args
    )


class DisableLocalMemoryRule(RewriteRule):
    """Reverse the ``GL -> LS ... barrier ... LL`` software-cache pattern."""

    name = "grover"
    description = (
        "the paper's pass: reverse the software-cache pattern and disable "
        "local memory (rewrites = local loads redirected to global)"
    )
    legality_arbiter = "eq3-invertibility + race/divergence veto"
    legality = (
        "per-array Eq. 3 index invertibility (unique, integral writer "
        "solution), with the static race/divergence analyzer as the "
        "independent $REPRO_ANALYZE arbiter around the whole rewrite"
    )

    def probe(self, fn: Function, ctx: RuleContext) -> bool:
        return fn.is_kernel and _uses_local(fn)

    def apply(self, fn: Function, ctx: RuleContext) -> int:
        from repro.core.grover import GroverPass

        if not fn.is_kernel:
            return 0
        if not _uses_local(fn):
            return 0  # nothing to disable — makes the pass idempotent
        report = GroverPass(allow_partial=True).run(fn)
        return sum(len(r.lls) for r in report.transformed)


register_rule(DisableLocalMemoryRule())
