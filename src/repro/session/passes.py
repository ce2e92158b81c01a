"""Uniform named passes and the instrumented PassManager.

Every IR transformation the pipeline runs — the post-lowering clean-ups,
the Grover pass itself, the rewrite rules — is registered here under a
stable name with a one-line description.  A :class:`PassManager` runs a
named sequence over a function or module and records, per pass: rewrite
count, before/after IR size, and wall time — emitting a ``pass_applied``
event for each application and (optionally) running the verifier as a
checkpoint between stages.

:data:`DEFAULT_PIPELINE` is the one compile pipeline: it models the
vendor compile of the paper's Fig. 9, and runs once when a source is
compiled and once more after a Grover transform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.function import Function, Module
from repro.ir.verifier import verify_function

__all__ = [
    "PassInfo",
    "PassResult",
    "PassManager",
    "PASS_REGISTRY",
    "DEFAULT_PIPELINE",
    "register_pass",
    "get_pass",
]


@dataclass(frozen=True)
class PassInfo:
    """One registered pass: a name, a per-function body, a description.

    The body takes a :class:`Function` and returns its rewrite count
    (instructions promoted / folded / eliminated / hoisted / local loads
    rewritten — whatever "applications" means for that pass).

    Passes backed by a :class:`repro.rules.RewriteRule` additionally
    carry the rule object and its legality-arbiter metadata, so
    ``repro passes`` and the search engine can introspect them; plain
    passes leave ``rule`` as ``None``.
    """

    name: str
    run: Callable[[Function], int]
    description: str
    legality_arbiter: str = ""
    legality: str = ""
    rule: object = None


@dataclass(frozen=True)
class PassResult:
    """Instrumentation record for one pass applied to one function."""

    pass_name: str
    function: str
    rewrites: int
    insts_before: int
    insts_after: int
    blocks_before: int
    blocks_after: int
    wall_s: float


PASS_REGISTRY: Dict[str, PassInfo] = {}


def register_pass(
    name: str, description: str
) -> Callable[[Callable[[Function], int]], Callable[[Function], int]]:
    """Register ``fn`` as the named pass (decorator form)."""

    def deco(fn: Callable[[Function], int]) -> Callable[[Function], int]:
        if name in PASS_REGISTRY:
            raise ValueError(f"pass {name!r} already registered")
        PASS_REGISTRY[name] = PassInfo(name, fn, description)
        return fn

    return deco


def get_pass(name: str) -> PassInfo:
    info = PASS_REGISTRY.get(name)
    if info is None:
        raise KeyError(f"unknown pass {name!r}; known: {sorted(PASS_REGISTRY)}")
    return info


def _register_rule_pass(rule: object) -> None:
    """Register a :class:`repro.rules.RewriteRule` as a named pass.

    The pass body applies the rule under a default :class:`RuleContext`
    (geometry from ``reqd_work_group_size`` when the kernel pins one) so
    ``PassManager`` pipelines see rules exactly like any other pass.
    """
    from repro.rules import RuleContext

    if rule.name in PASS_REGISTRY:
        raise ValueError(f"pass {rule.name!r} already registered")

    def run(fn: Function, _rule=rule) -> int:
        return int(_rule.apply(fn, RuleContext()))

    PASS_REGISTRY[rule.name] = PassInfo(
        name=rule.name,
        run=run,
        description=rule.description,
        legality_arbiter=rule.legality_arbiter,
        legality=rule.legality,
        rule=rule,
    )


def _register_builtin_passes() -> None:
    from repro.core.dce import eliminate_dead_code
    from repro.core.normalize import normalize_gep_indices
    from repro.ir.passes import (
        common_subexpression_elimination,
        fold_constants,
        loop_invariant_code_motion,
        promote_single_store_slots,
    )
    from repro.rules import RULE_REGISTRY

    register_pass(
        "promote-single-store-slots",
        "mem2reg-lite: forward loads of single-store entry-block stack slots",
    )(promote_single_store_slots)
    register_pass(
        "fold-constants",
        "fold binops/casts whose operands are all constants",
    )(fold_constants)
    register_pass(
        "cse",
        "dominator-scoped common-subexpression elimination over pure instructions",
    )(common_subexpression_elimination)
    register_pass(
        "licm",
        "hoist loop-invariant pure computation into loop preheaders",
    )(loop_invariant_code_motion)
    register_pass(
        "normalize-gep",
        "canonicalise GEP index arithmetic before DCE/CSE",
    )(normalize_gep_indices)
    register_pass(
        "dce",
        "eliminate instructions whose results are never used",
    )(eliminate_dead_code)

    def _verify_checkpoint(fn: Function) -> int:
        verify_function(fn)
        return 0

    register_pass(
        "verify",
        "verifier checkpoint: structural well-formedness, no rewrites",
    )(_verify_checkpoint)

    # the paper's pass, now a rewrite rule — registered here so it keeps
    # its historical position in the registry listing
    _register_rule_pass(RULE_REGISTRY["grover"])

    def _analyze_races(fn: Function) -> int:
        from repro.analysis import analyze_races_static, check_staging
        from repro.analysis.model import AnalysisReport

        if not fn.is_kernel:
            return 0
        report = AnalysisReport(fn.name, fn.reqd_work_group_size)
        analyze_races_static(fn, fn.reqd_work_group_size, report)
        check_staging(fn, report)
        return len(report.findings)

    register_pass(
        "analyze-races",
        "static intra-group race + Grover-legality analysis; pure "
        "diagnosis (rewrites = findings), exact geometry only with "
        "reqd_work_group_size",
    )(_analyze_races)

    def _analyze_divergence(fn: Function) -> int:
        from repro.analysis import analyze_divergence

        if not fn.is_kernel:
            return 0
        return len(analyze_divergence(fn).findings)

    register_pass(
        "analyze-divergence",
        "static barrier-divergence analysis; pure diagnosis "
        "(rewrites = divergent barriers found)",
    )(_analyze_divergence)

    # the remaining rewrite rules (padding, barrier elimination, global
    # load hoisting, ...) — every registered rule is a pass
    for rule in RULE_REGISTRY.values():
        if rule.name not in PASS_REGISTRY:
            _register_rule_pass(rule)


_register_builtin_passes()

#: the compile pipeline: clean up the lowered IR, canonicalise GEP
#: indices, then CSE/hoist the index arithmetic (paper Fig. 9's vendor
#: compile, which also recompiles the SPIR Grover rewrote)
DEFAULT_PIPELINE: Tuple[str, ...] = (
    "promote-single-store-slots",
    "fold-constants",
    "normalize-gep",
    "dce",
    "cse",
    "licm",
    "cse",
    "dce",
)


def _fn_stats(fn: Function) -> Tuple[int, int]:
    return sum(len(bb.instructions) for bb in fn.blocks), len(fn.blocks)


class PassManager:
    """Run a named pass sequence with per-pass instrumentation.

    ``verify_between=True`` runs the IR verifier after every pass and
    emits a ``verify_ok`` checkpoint event — the pipeline-invariant mode
    the test suite uses; production compiles keep it off and verify once
    at the end (exactly the historical behaviour).
    """

    def __init__(
        self,
        names: Optional[Sequence[str]] = None,
        verify_between: bool = False,
    ) -> None:
        #: the ``pipeline`` field of ``pass_applied`` events
        self.pipeline = "default" if names is None else "custom"
        if names is None:
            names = DEFAULT_PIPELINE
        self.passes: List[PassInfo] = [get_pass(n) for n in names]
        self.verify_between = verify_between

    @property
    def names(self) -> List[str]:
        return [p.name for p in self.passes]

    def run_function(self, fn: Function) -> List[PassResult]:
        from repro.session import events

        results: List[PassResult] = []
        for info in self.passes:
            insts_before, blocks_before = _fn_stats(fn)
            t0 = time.perf_counter()
            rewrites = int(info.run(fn))
            wall = time.perf_counter() - t0
            insts_after, blocks_after = _fn_stats(fn)
            results.append(
                PassResult(
                    pass_name=info.name,
                    function=fn.name,
                    rewrites=rewrites,
                    insts_before=insts_before,
                    insts_after=insts_after,
                    blocks_before=blocks_before,
                    blocks_after=blocks_after,
                    wall_s=wall,
                )
            )
            events.emit(
                "pass_applied",
                function=fn.name,
                **{"pass": info.name},
                pipeline=self.pipeline,
                rewrites=rewrites,
                insts_before=insts_before,
                insts_after=insts_after,
                wall_ms=wall * 1e3,
            )
            if self.verify_between:
                verify_function(fn)
                events.emit("verify_ok", function=fn.name, stage=f"after:{info.name}")
        return results

    def run(self, module: Module) -> List[PassResult]:
        results: List[PassResult] = []
        for fn in module:
            results.extend(self.run_function(fn))
        return results
