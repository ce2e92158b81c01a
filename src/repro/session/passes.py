"""The one compile pipeline and its instrumented runner.

:data:`DEFAULT_PIPELINE` models the vendor compile of the paper's
Fig. 9: it runs once when a source is compiled and once more after a
Grover transform, as the vendor runtime recompiles the rewritten SPIR.
:func:`run_pipeline` runs it over a function and records, per stage:
rewrite count, before/after IR size, and wall time — emitting a
``pass_applied`` event for each stage and (optionally) running the
verifier as a checkpoint between stages.

The rewrite rules (the Grover pass among them) are not pipeline stages:
they live in :data:`repro.rules.RULE_REGISTRY` and the search applies
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.dce import eliminate_dead_code
from repro.core.normalize import normalize_gep_indices
from repro.ir.function import Function
from repro.ir.passes import (
    common_subexpression_elimination,
    fold_constants,
    loop_invariant_code_motion,
    promote_single_store_slots,
)
from repro.ir.verifier import verify_function

__all__ = ["DEFAULT_PIPELINE", "STAGES", "PassResult", "run_pipeline"]

#: every pipeline stage: its body (a function's rewrite count) and a
#: one-line description, shown by ``repro passes``
STAGES: Dict[str, Tuple[Callable[[Function], int], str]] = {
    "promote-single-store-slots": (
        promote_single_store_slots,
        "mem2reg-lite: forward loads of single-store entry-block stack slots",
    ),
    "fold-constants": (
        fold_constants,
        "fold binops/casts whose operands are all constants",
    ),
    "normalize-gep": (
        normalize_gep_indices,
        "canonicalise GEP index arithmetic before DCE/CSE",
    ),
    "dce": (
        eliminate_dead_code,
        "eliminate instructions whose results are never used",
    ),
    "cse": (
        common_subexpression_elimination,
        "dominator-scoped common-subexpression elimination over pure instructions",
    ),
    "licm": (
        loop_invariant_code_motion,
        "hoist loop-invariant pure computation into loop preheaders",
    ),
}

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


@dataclass(frozen=True)
class PassResult:
    """Instrumentation record for one stage applied to one function."""

    pass_name: str
    function: str
    rewrites: int
    insts_before: int
    insts_after: int
    blocks_before: int
    blocks_after: int
    wall_s: float


def _fn_stats(fn: Function) -> Tuple[int, int]:
    return sum(len(bb.instructions) for bb in fn.blocks), len(fn.blocks)


def run_pipeline(fn: Function, verify_between: bool = False) -> List[PassResult]:
    """Run :data:`DEFAULT_PIPELINE` over ``fn`` in place, one
    ``pass_applied`` event per stage.

    ``verify_between=True`` runs the IR verifier after every stage and
    emits a ``verify_ok`` checkpoint event; compiles keep it off and
    verify once at the end.
    """
    from repro.session import events

    results: List[PassResult] = []
    for name in DEFAULT_PIPELINE:
        insts_before, blocks_before = _fn_stats(fn)
        t0 = time.perf_counter()
        rewrites = int(STAGES[name][0](fn))
        wall = time.perf_counter() - t0
        insts_after, blocks_after = _fn_stats(fn)
        results.append(
            PassResult(
                pass_name=name,
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
            **{"pass": name},
            pipeline="default",
            rewrites=rewrites,
            insts_before=insts_before,
            insts_after=insts_after,
            wall_ms=wall * 1e3,
        )
        if verify_between:
            verify_function(fn)
            events.emit("verify_ok", function=fn.name, stage=f"after:{name}")
    return results
