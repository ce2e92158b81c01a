"""The :class:`RewriteRule` protocol and the rule registry.

A rewrite rule is a semantics-preserving IR transformation packaged with
everything a search engine needs to reason about it:

* ``probe(fn, ctx)`` — a cheap, read-only applicability test (is the
  pattern even present?);
* ``apply(fn, ctx)`` — the in-place transformation; returns the rewrite
  count (0 = nothing matched, the function is unchanged);
* ``legality_arbiter`` / ``legality`` — the *name* and one-line
  description of the independent check that guards the rule.  Every
  rule is gated by the static race/divergence analyzer exactly as the
  Grover pass is: either the rule consults it internally per rewrite
  site (``eliminate-barriers``), or the analyzer vets the whole kernel
  around the application (:func:`repro.analysis.analyzer_veto`, the
  gate of ``Session.disable_local_memory``'s ``$REPRO_ANALYZE`` and of
  search winner verification).

Rules are stateless and deterministic: applying the same rule to the
same IR under the same :class:`RuleContext` always performs the same
rewrites — the property the beam-search determinism test pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ir.function import Function

__all__ = [
    "RULE_REGISTRY",
    "RewriteRule",
    "RuleContext",
    "get_rule",
    "register_rule",
    "rule_names",
]


@dataclass(frozen=True)
class RuleContext:
    """Launch-time facts a rule may consult while transforming.

    ``local_size`` is the work-group geometry of the launch the search
    is optimising for; rules that must bound thread-varying indices
    (padding) need it.  ``geometry(fn)`` falls back to the kernel's
    declared ``reqd_work_group_size`` so standalone ``PassManager`` runs
    still get exact reasoning when the kernel pins its own geometry.
    """

    local_size: Optional[Tuple[int, ...]] = None

    def geometry(self, fn: Function) -> Optional[Tuple[int, ...]]:
        if self.local_size is not None:
            return tuple(self.local_size)
        if fn.reqd_work_group_size is not None:
            return tuple(fn.reqd_work_group_size)
        return None


class RewriteRule:
    """Base class of all rewrite rules (see module docstring)."""

    #: stable registry/pipeline name (also the pass name)
    name: str = ""
    #: one-line description (shown by ``repro passes``)
    description: str = ""
    #: short name of the legality arbiter guarding the rule
    legality_arbiter: str = ""
    #: one-line description of what that arbiter checks
    legality: str = ""

    # -- protocol -------------------------------------------------------------
    def probe(self, fn: Function, ctx: RuleContext) -> bool:
        """Cheap, read-only: could ``apply`` rewrite anything here?"""
        raise NotImplementedError

    def apply(self, fn: Function, ctx: RuleContext) -> int:
        """Transform ``fn`` in place; returns the rewrite count."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RewriteRule {self.name}>"


#: every registered rule by name (insertion-ordered)
RULE_REGISTRY: Dict[str, RewriteRule] = {}


def register_rule(rule: RewriteRule) -> RewriteRule:
    """Register a rule instance (and fail loudly on duplicates)."""
    if not rule.name:
        raise ValueError("rules must carry a non-empty name")
    if rule.name in RULE_REGISTRY:
        raise ValueError(f"rule {rule.name!r} already registered")
    RULE_REGISTRY[rule.name] = rule
    return rule


def get_rule(name: str) -> RewriteRule:
    rule = RULE_REGISTRY.get(name)
    if rule is None:
        raise KeyError(f"unknown rule {name!r}; known: {sorted(RULE_REGISTRY)}")
    return rule


def rule_names() -> Tuple[str, ...]:
    """Registry names in registration order (the search's action set)."""
    return tuple(RULE_REGISTRY)
