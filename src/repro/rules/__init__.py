"""First-class rewrite rules over kernel IR.

The paper's transformation — reversing the ``GL -> LS ... barrier ... LL``
software-cache pattern — is *one* semantics-preserving rewrite, and its
own evaluation shows it wins only a third of the time.  This package
makes "a rewrite" a first-class object (:class:`RewriteRule`): an
in-place ``apply`` and a named legality arbiter, so the pipeline-search
engine
(:mod:`repro.search`) can compose and score *sequences* of rewrites
instead of hard-coding one heuristic.

Shipping rules:

* :class:`~repro.rules.grover.DisableLocalMemoryRule` (``grover``) — the
  paper's pass, a bit-identical adapter over
  ``GroverPass(allow_partial=True)``;
* :class:`~repro.rules.padding.LocalArrayPaddingRule`
  (``pad-local-arrays``) — pad the innermost dimension of multi-D
  ``__local`` arrays to break shared-memory bank conflicts;
* :class:`~repro.rules.barriers.BarrierEliminationRule`
  (``eliminate-barriers``) — drop barriers the static race analyzer
  proves redundant (single-phase staging, no cross-item dependence);
* :class:`~repro.rules.hoist.GlobalLoadHoistRule`
  (``hoist-global-loads``) — hoist loop-invariant global loads into the
  loop preheader, across barrier phases.

:data:`RULE_REGISTRY` is the one place rules live: the search applies
them (``repro.search.engine._apply_pipeline``) and ``repro passes``
lists them.  They are not stages of the compile pipeline
(:mod:`repro.session.passes`).
"""

from repro.rules.base import (
    RULE_REGISTRY,
    RewriteRule,
    RuleContext,
    get_rule,
    register_rule,
    rule_names,
)
from repro.rules.barriers import BarrierEliminationRule
from repro.rules.grover import DisableLocalMemoryRule
from repro.rules.hoist import GlobalLoadHoistRule
from repro.rules.padding import LocalArrayPaddingRule

__all__ = [
    "RULE_REGISTRY",
    "RewriteRule",
    "RuleContext",
    "get_rule",
    "register_rule",
    "rule_names",
    "DisableLocalMemoryRule",
    "LocalArrayPaddingRule",
    "BarrierEliminationRule",
    "GlobalLoadHoistRule",
]
