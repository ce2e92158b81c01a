"""Deterministic beam search over rewrite-rule pipelines.

The Grover paper's own evaluation shows its one transformation wins only
a third of the time — which transformation (if any) helps is a per-app,
per-device question.  This engine answers it by *searching*: starting
from the compiled kernel (the default pipeline already applied), it
extends candidate pipelines one registered rewrite rule at a time,
scores every candidate with the trace-driven performance model under the
tape execution backend, and keeps the ``beam`` best per depth level.

Scoring is a prediction; shipping is gated.  Every surviving winner is
re-derived from scratch and verified before it is reported:

* the static race/divergence analyzer must not find a decided race or
  barrier divergence in the transformed kernel (the same veto arbiter
  that guards ``Session.disable_local_memory``);
* the tape backend must produce traces and outputs bit-identical to the
  reference interpreter's for the transformed kernel;
* the transformed kernel's outputs must be byte-identical to the
  untransformed baseline's (:func:`repro.parallel.diff.assert_outputs_equal`).

A candidate that fails any gate is discarded and the next-best one is
verified instead; the empty pipeline is always a candidate, so the
reported winner is never worse than the default by predicted cycles.

An extension whose last rule rewrote nothing is the same kernel as its
parent, so it is never scored: :func:`evaluate_pipeline` returns it
right after the rules are applied, without a launch or a pricing call,
and the keep filter drops it.  Skipping it cannot change a winner.

Everything is deterministic: rule applications are deterministic, the
interpreter and models are deterministic, candidates are generated and
ranked in a fixed order, and each depth level's candidates go through
the shared :func:`repro.parallel.pool.fan_out`, which returns results
in submission order — so the winning pipeline is byte-identical across
worker counts and repeated processes (pinned by
``tests/test_search_determinism.py``).

Exposed on the command line as ``repro search``::

    python -m repro.cli search --apps NVD-MT,NVD-MM-B --beam 2 --depth 3
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.parallel.pool import fan_out, resolve_workers
from repro.session import events

if TYPE_CHECKING:
    from repro.apps.registry import App

__all__ = [
    "CandidateEval",
    "AppSearchResult",
    "SearchRunResult",
    "SearchOptions",
    "evaluate_pipeline",
    "verify_pipeline",
    "search_app",
    "run_search",
    "render_search",
    "main",
]

#: cycles assigned to candidates whose evaluation raised or whose last
#: rule rewrote nothing — sorts last, never survives the ``rewrites > 0``
#: keep filter either
_FAILED = float("inf")


@dataclass(frozen=True)
class CandidateEval:
    """One scored pipeline — plain data, picklable across the pool."""

    app_id: str
    pipeline: Tuple[str, ...]
    rewrites: Tuple[int, ...]
    cycles: float
    device: str
    error: str = ""

    @property
    def label(self) -> str:
        return " -> ".join(self.pipeline) if self.pipeline else "(default)"


@dataclass
class AppSearchResult:
    """The search outcome for one application."""

    app_id: str
    device: str
    baseline: CandidateEval
    winner: CandidateEval
    evaluated: int
    verified: bool          # False only when every candidate failed gates
    rejected: Tuple[str, ...] = ()  # labels of candidates a gate refused
    wall_s: float = 0.0
    #: every extension candidate, no-op extensions included
    candidates: Tuple[CandidateEval, ...] = ()

    @property
    def speedup(self) -> float:
        if self.winner.cycles <= 0:
            return 1.0
        return self.baseline.cycles / self.winner.cycles


@dataclass
class SearchOptions:
    #: registry ids or :class:`~repro.apps.registry.App` objects (see
    #: :func:`~repro.apps.registry.kernel_app`); empty: every Table III app
    apps: Tuple[Union[str, App], ...] = ()
    rules: Tuple[str, ...] = ()  # empty: every registered rule
    beam: Optional[int] = None   # None: session search_beam
    depth: Optional[int] = None  # None: session search_depth
    scale: str = "test"
    sample_groups: Optional[int] = None  # None: session search_sample_groups
    device: Optional[str] = None         # None: session search_device
    workers: Optional[int] = None        # None: session workers


@dataclass
class SearchRunResult:
    options: SearchOptions
    results: List[AppSearchResult] = field(default_factory=list)
    workers: int = 1
    wall_s: float = 0.0

    def summary(self) -> str:
        return render_search(self)


# ---------------------------------------------------------------------------
# candidate evaluation (runs in pool workers)
# ---------------------------------------------------------------------------


def _apply_pipeline(kernel, pipeline: Sequence[str], geometry) -> Tuple[int, ...]:
    """Apply rules in order, verifying the IR after each; returns the
    per-rule rewrite counts."""
    from repro.ir.verifier import verify_function
    from repro.rules import RuleContext, get_rule

    ctx = RuleContext(local_size=tuple(geometry) if geometry else None)
    rewrites: List[int] = []
    for name in pipeline:
        rewrites.append(int(get_rule(name).apply(kernel, ctx)))
        verify_function(kernel)
    return tuple(rewrites)


def evaluate_pipeline(
    app: App,
    pipeline: Sequence[str],
    scale: str,
    sample_groups: int,
    device_name: str,
) -> CandidateEval:
    """Compile, transform, execute (tape backend) and model one
    pipeline.

    A non-empty pipeline whose last rule rewrote nothing is returned as
    soon as the rules are applied, with ``cycles`` infinite and no
    ``error``: it is its parent's kernel, which is already scored, and
    the keep filter of :func:`search_app` drops it unpriced.

    Candidate-specific runtime failures (a transformed kernel that
    faults, races or diverges when executed) come back as ``error``
    candidates — they describe the candidate, and the failure reason is
    surfaced on its ``search_candidate`` event.  Deterministic
    toolchain failures re-raise instead: a
    :class:`~repro.frontend.errors.FrontendError` or
    :class:`~repro.ir.verifier.VerificationError` means a rule emitted
    IR the compiler itself rejects — a rule bug that a serial rerun
    would reproduce identically, never something to discard quietly.
    ``KeyboardInterrupt``/``SystemExit`` always propagate.
    """
    from repro.frontend.errors import FrontendError
    from repro.ir.verifier import VerificationError

    pipeline = tuple(pipeline)
    try:
        from repro.apps.harness import compile_app, execute_app
        from repro.perf import estimate_cost
        from repro.session import Session

        problem = app.make_problem(scale)
        # a fresh, environment-isolated session: scoring must not depend
        # on the caller's REPRO_* environment (determinism contract)
        with Session(env={}, exec_backend="tape").activate():
            kernel, _ = compile_app(app, "with")
            rewrites = _apply_pipeline(kernel, pipeline, problem.local_size)
            if pipeline and rewrites[-1] == 0:
                return CandidateEval(app.id, pipeline, rewrites, _FAILED, device_name)
            run = execute_app(
                app,
                kernel,
                variant="with",
                scale=scale,
                collect_trace=True,
                sample_groups=sample_groups,
            )
            cost = estimate_cost(run.trace, device_name)
        return CandidateEval(app.id, pipeline, rewrites, cost.cycles, device_name)
    except (FrontendError, VerificationError):
        raise
    except Exception as exc:
        return CandidateEval(
            app.id,
            pipeline,
            (),
            _FAILED,
            device_name,
            error=f"{type(exc).__name__}: {exc}",
        )


# ---------------------------------------------------------------------------
# winner verification (analyzer gate + differential runner)
# ---------------------------------------------------------------------------


def verify_pipeline(
    app: App,
    pipeline: Sequence[str],
    scale: str,
) -> Tuple[bool, str]:
    """Re-derive the transformed kernel and gate it; ``(ok, reason)``.

    Gates, in order: the static race/divergence analyzer (a decided
    finding vetoes), reference-vs-tape trace + output bit-identity, and
    byte-identical outputs against the untransformed baseline.

    Gate refusals come back as ``(False, reason)``; deterministic
    compile/verifier errors re-raise (same contract as
    :func:`evaluate_pipeline` — they are rule bugs, not gate verdicts)
    and ``KeyboardInterrupt``/``SystemExit`` propagate untouched.
    """
    from repro.analysis import RaceDetected, analyzer_veto
    from repro.frontend.errors import FrontendError
    from repro.ir.verifier import VerificationError
    from repro.apps.harness import compile_app, execute_app
    from repro.parallel.diff import (
        DifferentialMismatch,
        assert_outputs_equal,
        assert_traces_equal,
    )
    from repro.session import Session

    pipeline = tuple(pipeline)
    problem = app.make_problem(scale)
    try:
        with Session(env={}, exec_backend="tape").activate():
            kernel, _ = compile_app(app, "with")
            _apply_pipeline(kernel, pipeline, problem.local_size)
            if pipeline:  # the analyzer veto gate (empty pipeline: a no-op)
                analyzer_veto(kernel, problem.local_size, "post-transform")
            baseline_kernel, _ = compile_app(app, "with")
            base = execute_app(
                app, baseline_kernel, variant="with", scale=scale,
                collect_trace=False,
            )
        runs = {}
        for backend in ("reference", "tape"):
            with Session(env={}, exec_backend=backend).activate():
                # full grid, no sampling: sampled launches execute only
                # the sampled groups, and verification must compare the
                # complete output of every work-group
                runs[backend] = execute_app(
                    app, kernel, variant="with", scale=scale,
                    collect_trace=True,
                )
        ref, tape = runs["reference"], runs["tape"]
        assert_traces_equal(ref.trace, tape.trace, f"{app.id} search winner [tape]")
        assert_outputs_equal(
            ref.outputs, tape.outputs, f"{app.id} search winner [tape]"
        )
        # byte-identical outputs against the untransformed kernel: every
        # shipped rule preserves computed values exactly (it reorders or
        # re-homes memory traffic, never arithmetic)
        assert_outputs_equal(
            base.outputs, ref.outputs, f"{app.id} search winner vs default"
        )
    except RaceDetected as exc:
        return False, str(exc)
    except DifferentialMismatch as exc:
        return False, f"differential: {exc}"
    except (FrontendError, VerificationError):
        raise
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    return True, ""


# ---------------------------------------------------------------------------
# the search proper
# ---------------------------------------------------------------------------


def _resolved(options: SearchOptions) -> Tuple[Tuple[str, ...], int, int, int, str]:
    """Fill ``None`` option fields from the active session's config."""
    from repro.rules import rule_names
    from repro.session import current_session

    session = current_session()
    rules = tuple(options.rules) or rule_names()
    beam = options.beam if options.beam is not None else session.get("search_beam")
    depth = options.depth if options.depth is not None else session.get("search_depth")
    sample_groups = (
        options.sample_groups
        if options.sample_groups is not None
        else session.get("search_sample_groups")
    )
    device_name = options.device or session.get("search_device")
    return rules, int(beam), int(depth), int(sample_groups), str(device_name)


def search_app(app: App, options: SearchOptions) -> AppSearchResult:
    """Beam-search one application; see the module docstring."""
    from repro.rules import get_rule

    app_id = app.id
    rules, beam, depth, sample_groups, device_name = _resolved(options)
    for name in rules:
        get_rule(name)  # unknown rule names fail before any evaluation
    t0 = time.perf_counter()
    events.emit(
        "search_start",
        app=app_id,
        rules=list(rules),
        beam=beam,
        depth=depth,
        device=device_name,
    )

    def payload(pipeline: Tuple[str, ...]):
        return (app, pipeline, options.scale, sample_groups, device_name)

    baseline = evaluate_pipeline(*payload(()))
    if baseline.error:
        raise RuntimeError(
            f"search baseline for {app_id!r} failed: {baseline.error}"
        )
    events.emit(
        "search_candidate",
        app=app_id,
        pipeline=[],
        rewrites=[],
        cycles=baseline.cycles,
        kept=True,
        error="",
    )

    kept_all: List[CandidateEval] = []
    extended_all: List[CandidateEval] = []
    frontier: List[CandidateEval] = [baseline]
    for _level in range(depth):
        extensions: List[Tuple[str, ...]] = []
        for cand in frontier:
            for name in rules:
                if name in cand.pipeline:
                    continue  # rules are idempotent: repeats are no-ops
                extensions.append(cand.pipeline + (name,))
        if not extensions:
            break
        evals = fan_out(
            evaluate_pipeline,
            [payload(p) for p in extensions],
            options.workers,
            where="search",
        )
        extended_all.extend(evals)
        kept: List[CandidateEval] = []
        for ev in evals:
            keep = not ev.error and bool(ev.rewrites) and ev.rewrites[-1] > 0
            events.emit(
                "search_candidate",
                app=app_id,
                pipeline=list(ev.pipeline),
                rewrites=list(ev.rewrites),
                cycles=ev.cycles if ev.cycles != _FAILED else -1.0,
                kept=keep,
                # why the candidate failed, "" when it evaluated cleanly
                # or was a no-op, which its last rewrite count of 0 shows
                # (dropping a candidate must leave a visible reason)
                error=ev.error,
            )
            if keep:
                kept.append(ev)
        kept_all.extend(kept)
        frontier = sorted(kept, key=lambda e: (e.cycles, e.pipeline))[:beam]
        if not frontier:
            break

    # rank every scored candidate (baseline included) and verify best-first
    ranked = sorted(
        kept_all + [baseline],
        key=lambda e: (e.cycles, len(e.pipeline), e.pipeline),
    )
    winner = baseline
    verified = False
    rejected: List[str] = []
    for cand in ranked:
        ok, reason = verify_pipeline(app, cand.pipeline, options.scale)
        events.emit(
            "search_verified",
            app=app_id,
            pipeline=list(cand.pipeline),
            ok=ok,
            reason=reason,
        )
        if ok:
            winner = cand
            verified = True
            break
        rejected.append(f"{cand.label}: {reason}")

    wall = time.perf_counter() - t0
    events.emit(
        "search_end",
        app=app_id,
        pipeline=list(winner.pipeline),
        cycles=winner.cycles,
        baseline_cycles=baseline.cycles,
        evaluated=len(kept_all) + 1,
        verified=verified,
        wall_ms=wall * 1e3,
    )
    return AppSearchResult(
        app_id=app_id,
        device=device_name,
        baseline=baseline,
        winner=winner,
        evaluated=len(kept_all) + 1,
        verified=verified,
        rejected=tuple(rejected),
        wall_s=wall,
        candidates=tuple(extended_all),
    )


def run_search(options: SearchOptions) -> SearchRunResult:
    """Search every requested app (default: the full Table III set);
    registry ids resolve here, once."""
    from repro.apps.registry import get_app, table_apps

    t0 = time.perf_counter()
    apps = [
        get_app(a) if isinstance(a, str) else a for a in options.apps
    ] or table_apps()
    run = SearchRunResult(options=options, workers=resolve_workers(options.workers))
    for app in apps:
        run.results.append(search_app(app, options))
    run.wall_s = time.perf_counter() - t0
    return run


def render_search(run: SearchRunResult) -> str:
    """The deterministic report ``--golden`` pins (no wall-clock in it)."""
    from repro.reporting import ascii_table

    rules, beam, depth, sample_groups, device_name = _resolved(run.options)
    rows = []
    for r in run.results:
        rows.append(
            [
                r.app_id,
                r.winner.label,
                f"{r.winner.cycles:.1f}",
                f"{r.baseline.cycles:.1f}",
                f"{r.speedup:.3f}x",
                "yes" if r.verified else "NO",
            ]
        )
    title = (
        f"pipeline search (beam {beam}, depth {depth}, device {device_name}, "
        f"scale {run.options.scale}, sample groups {sample_groups})"
    )
    return ascii_table(
        ["app", "winning pipeline", "predicted cycles", "default cycles",
         "speedup", "verified"],
        rows,
        title=title,
    )


# ---------------------------------------------------------------------------
# CLI: ``repro search``
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    from repro.cli import add_session_flags, require_positive
    from repro.apps.registry import SCALES, validate_app_ids
    from repro.perf.devices import DEVICES
    from repro.rules import rule_names
    from repro.session import session_from_flags

    p = argparse.ArgumentParser(
        prog="repro search",
        description="Beam-search rewrite-rule pipelines per app: score "
        "candidates with the trace-driven performance model (tape "
        "backend), then verify every winner with the race analyzer and "
        "the reference-vs-tape differential runner.",
    )
    p.add_argument("--apps", default="",
                   help="comma-separated app ids (default: every Table III app)")
    p.add_argument("--rules", default="",
                   help="comma-separated rule names to search over "
                   "(default: every registered rule)")
    p.add_argument("--beam", type=int, default=None,
                   help="beam width (default: $REPRO_SEARCH_BEAM)")
    p.add_argument("--depth", type=int, default=None,
                   help="max pipeline length (default: $REPRO_SEARCH_DEPTH)")
    p.add_argument("--greedy", action="store_true",
                   help="greedy baseline: beam width 1")
    p.add_argument("--scale", default="test", choices=SCALES,
                   help="problem scale")
    p.add_argument("--sample-groups", type=int, default=None,
                   help="traced groups per scoring launch "
                   "(default: $REPRO_SEARCH_SAMPLE_GROUPS)")
    p.add_argument("--device", default=None,
                   help="device model scoring candidates "
                   "(default: $REPRO_SEARCH_DEVICE)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool width for candidate evaluation "
                   "(default: $REPRO_WORKERS, then 1)")
    p.add_argument("--golden", metavar="FILE", default=None,
                   help="compare the report against FILE (CI pinning); "
                   "with $REPRO_UPDATE_GOLDEN=1 or --update-golden, "
                   "rewrite FILE instead")
    p.add_argument("--update-golden", action="store_true",
                   help="rewrite --golden FILE with the current report")
    add_session_flags(p)
    args = p.parse_args(argv)

    # every argument is checked before the first candidate is priced
    app_ids = tuple(a.strip() for a in args.apps.split(",") if a.strip())
    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    # an empty selection is an error, not the every-app/every-rule default
    if args.apps and not app_ids:
        p.error(f"--apps {args.apps!r} names no app")
    if args.rules and not rules:
        p.error(f"--rules {args.rules!r} names no rule")
    try:
        validate_app_ids(app_ids)
    except ValueError as exc:
        p.error(str(exc))
    unknown = [r for r in rules if r not in rule_names()]
    if unknown:
        p.error(f"unknown rule(s): {', '.join(unknown)}; "
                f"known: {', '.join(rule_names())}")
    if args.device is not None and args.device not in DEVICES:
        p.error(f"unknown device {args.device!r}; known: {', '.join(DEVICES)}")
    require_positive(p, ("--beam", args.beam), ("--depth", args.depth),
                     ("--sample-groups", args.sample_groups),
                     ("--workers", args.workers))

    options = SearchOptions(
        apps=app_ids,
        rules=rules,
        beam=1 if args.greedy else args.beam,
        depth=args.depth,
        scale=args.scale,
        sample_groups=args.sample_groups,
        device=args.device,
        workers=args.workers,
    )
    with session_from_flags(args.config, args.trace_out) as session:
        with session.activate():
            run = run_search(options)
            report = render_search(run)
            update = args.update_golden or bool(session.get("update_golden"))
    print(report)
    for r in run.results:
        for line in r.rejected:
            print(f"# {r.app_id} rejected {line}")
    if not all(r.verified for r in run.results):
        print("error: some apps have no verifiable pipeline", file=sys.stderr)
        return 1
    if args.golden:
        if update:
            with open(args.golden, "w") as fh:
                fh.write(report + "\n")
            print(f"# golden updated: {args.golden}")
        else:
            import difflib

            try:
                with open(args.golden) as fh:
                    expected = fh.read()
            except OSError as exc:
                print(f"error: cannot read golden {args.golden!r}: {exc}",
                      file=sys.stderr)
                return 1
            if expected != report + "\n":
                diff = "\n".join(
                    difflib.unified_diff(
                        expected.splitlines(),
                        (report + "\n").splitlines(),
                        fromfile=args.golden,
                        tofile="current",
                        lineterm="",
                    )
                )
                print(f"error: search report drifted from {args.golden}:\n{diff}",
                      file=sys.stderr)
                return 1
            print(f"# golden ok: {args.golden}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
