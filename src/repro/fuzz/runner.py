"""The fuzz campaign driver: generate → judge → minimize → promote.

``run_fuzz`` fans the per-case work (generation + the full four-arbiter
oracle + optional minimization) out through the same
:func:`repro.parallel.pool.fan_out` the experiment matrix uses, which
returns results in deterministic input order, writes a minimized ``.cl``
reproducer for every mismatch, and optionally promotes novel verdict
shapes into the committed corpus.  Every case emits a schema-validated
``fuzz_case`` event; mismatches add ``fuzz_mismatch``; the run closes
with ``fuzz_end``.

Exposed on the command line as ``repro fuzz``::

    python -m repro.cli fuzz --seed 7 --count 200 --workers 4 --minimize

Exit status is 0 when every case agrees, 1 otherwise — the CI fuzz job
is exactly this invocation.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fuzz.generate import FuzzCase, generate_case
from repro.fuzz.oracle import OracleOutcome, run_case
from repro.fuzz.shrink import shrink_case
from repro.parallel.pool import fan_out, resolve_workers
from repro.session import events

__all__ = ["CaseResult", "FuzzOptions", "FuzzRunResult", "main", "run_fuzz"]


@dataclass
class FuzzOptions:
    seed: int = 7
    count: int = 100
    workers: Optional[int] = None  # None: session default ($REPRO_WORKERS)
    minimize: bool = False
    promote: bool = False
    out_dir: str = "fuzz_repros"
    corpus_dir: str = os.path.join("tests", "corpus")
    corpus_limit: Optional[int] = None
    corrupt: str = ""  # fault-injection drill: corrupt this backend


@dataclass
class CaseResult:
    """One judged case — plain data, picklable across the pool."""

    index: int
    case_seed: int
    kernel: str
    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]
    in_elems: int
    p_value: int
    features: Tuple[str, ...]
    source: str
    outcome: OracleOutcome
    minimized_source: str = ""
    wall_s: float = 0.0


@dataclass
class FuzzRunResult:
    options: FuzzOptions
    results: List[CaseResult]
    reproducers: List[str] = field(default_factory=list)
    promoted: List[str] = field(default_factory=list)
    workers: int = 1
    wall_s: float = 0.0

    @property
    def mismatching(self) -> List[CaseResult]:
        return [r for r in self.results if r.outcome.mismatches]

    def summary(self) -> str:
        lines = [
            f"fuzz: {len(self.results)} case(s), seed {self.options.seed}, "
            f"{self.workers} worker(s), {self.wall_s:.1f}s",
            f"  agree: {len(self.results) - len(self.mismatching)}"
            f"  mismatch: {len(self.mismatching)}"
            f"  promoted: {len(self.promoted)}",
        ]
        for r in self.mismatching:
            for m in r.outcome.mismatches:
                lines.append(
                    f"  case {r.index} (seed {r.case_seed:#x}): {m.render()}"
                )
        return "\n".join(lines)


def _judge(case: FuzzCase, minimize: bool, corrupt: str) -> CaseResult:
    t0 = time.perf_counter()
    outcome = run_case(case, corrupt=corrupt)
    minimized = ""
    if minimize and outcome.mismatches:
        target = outcome.mismatches[0].check

        def still_failing(cand: FuzzCase) -> bool:
            got = run_case(cand, corrupt=corrupt)
            return any(m.check == target for m in got.mismatches)

        minimized = shrink_case(case, still_failing).source()
    return CaseResult(
        index=case.index,
        case_seed=case.case_seed,
        kernel=case.kernel_name,
        global_size=case.global_size,
        local_size=case.local_size,
        in_elems=case.in_elems,
        p_value=case.p_value,
        features=case.features,
        source=case.source(),
        outcome=outcome,
        minimized_source=minimized,
        wall_s=time.perf_counter() - t0,
    )


def _run_one(seed: int, index: int, minimize: bool, corrupt: str) -> CaseResult:
    """One case, in a pool worker or in the parent."""
    return _judge(generate_case(seed, index), minimize, corrupt)


def run_fuzz(options: FuzzOptions) -> FuzzRunResult:
    """Run one fuzz campaign; see the module docstring."""
    t0 = time.perf_counter()
    n_workers = resolve_workers(options.workers)
    payloads = [
        (options.seed, i, options.minimize, options.corrupt)
        for i in range(options.count)
    ]
    results = fan_out(_run_one, payloads, n_workers, where="fuzz")

    run = FuzzRunResult(
        options=options, results=results, workers=n_workers
    )
    for r in results:
        events.emit(
            "fuzz_case",
            index=r.index,
            case_seed=r.case_seed,
            kernel=r.kernel,
            outcome=r.outcome.outcome_label,
            exec=r.outcome.exec_outcome,
            analyzer=r.outcome.analyzer,
            grover=r.outcome.grover,
            features=list(r.features),
            wall_ms=r.wall_s * 1e3,
        )
        if r.outcome.mismatches:
            path = _write_reproducer(options.out_dir, r)
            run.reproducers.append(path)
            for m in r.outcome.mismatches:
                events.emit(
                    "fuzz_mismatch",
                    index=r.index,
                    case_seed=r.case_seed,
                    check=m.check,
                    detail=m.detail,
                    minimized=path if r.minimized_source else "",
                )
    if options.promote:
        from repro.fuzz.corpus import promote

        run.promoted = [
            path
            for _, path in promote(
                results, options.corpus_dir, limit=options.corpus_limit
            )
        ]
    run.wall_s = time.perf_counter() - t0
    events.emit(
        "fuzz_end",
        cases=len(results),
        mismatches=len(run.mismatching),
        promoted=len(run.promoted),
        workers=n_workers,
        wall_ms=run.wall_s * 1e3,
    )
    return run


def _write_reproducer(out_dir: str, r: CaseResult) -> str:
    os.makedirs(out_dir, exist_ok=True)
    check = r.outcome.mismatches[0].check.replace(":", "-")
    path = os.path.join(out_dir, f"case_{r.index:05d}_{check}.cl")
    header = [
        f"// fuzz reproducer: case {r.index}, seed {r.case_seed:#x}",
        f"// launch: global={list(r.global_size)} local={list(r.local_size)}"
        f" in_elems={r.in_elems} P={r.p_value}",
    ]
    for m in r.outcome.mismatches:
        header.append(f"// mismatch {m.render()}")
    body = r.minimized_source or r.source
    if r.minimized_source:
        header.append("// (minimized)")
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n" + body)
    return path


# ---------------------------------------------------------------------------
# CLI: ``repro fuzz``
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    from repro.cli import add_session_flags, require_positive
    from repro.session import session_from_flags

    p = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Generative differential fuzzing of the whole stack: "
        "every generated kernel is executed by the reference and tape "
        "backends, analyzed for races/divergence, and pushed through the "
        "Grover pass; any cross-arbiter disagreement is a named, minimized "
        "reproducer.",
    )
    p.add_argument("--seed", type=int, default=7, help="campaign seed")
    p.add_argument("--count", type=int, default=100, help="number of cases")
    p.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: $REPRO_WORKERS, then 1)",
    )
    p.add_argument(
        "--minimize", action="store_true",
        help="delta-minimize every mismatching kernel before filing it",
    )
    p.add_argument(
        "--promote", action="store_true",
        help="write agreeing cases with novel verdict shapes into the "
        "regression corpus (--corpus-dir)",
    )
    p.add_argument(
        "--out", default="fuzz_repros", metavar="DIR",
        help="directory for mismatch reproducers (default: fuzz_repros)",
    )
    p.add_argument(
        "--corpus-dir", default=os.path.join("tests", "corpus"),
        metavar="DIR", help="corpus directory for --promote",
    )
    p.add_argument(
        "--corpus-limit", type=int, default=None,
        help="cap the total corpus size when promoting",
    )
    p.add_argument(
        "--inject-fault", default="", choices=["", "tape"],
        help="drill: corrupt one backend's outputs to validate the "
        "mismatch/minimize/reproducer plumbing end to end",
    )
    add_session_flags(p)
    args = p.parse_args(argv)
    require_positive(p, ("--count", args.count), ("--workers", args.workers))

    options = FuzzOptions(
        seed=args.seed,
        count=args.count,
        workers=args.workers,
        minimize=args.minimize,
        promote=args.promote,
        out_dir=args.out,
        corpus_dir=args.corpus_dir,
        corpus_limit=args.corpus_limit,
        corrupt=args.inject_fault,
    )
    with session_from_flags(args.config, args.trace_out):
        run = run_fuzz(options)
    print(run.summary())
    if run.reproducers:
        print("reproducers:")
        for path in run.reproducers:
            print(f"  {path}")
    return 1 if run.mismatching else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
