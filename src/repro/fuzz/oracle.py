"""Three-way differential oracle: every generated kernel is judged by all
three arbiters the repo has grown, and every disagreement is named.

For one kernel source the oracle

1. executes it under the **reference** interpreter and the **tape**
   backend — traces, output buffers and model cycle counts must be
   bit-identical, and when a backend raises, both must raise the same
   exception type;
2. runs the **static race / barrier-divergence analyzer** (plus the
   dynamic replay of the reference trace) and cross-checks it against
   the runtime: a runtime ``BarrierDivergenceError`` without a static
   divergence finding, or any ``MemoryFault`` at all (the grammar is
   bounds-safe by construction), is a named mismatch;
3. runs the **Grover pass** through the session's ``analyze`` veto gate
   and cross-validates the Eq. 3 transformability verdict:

   * a *decided* static race/divergence must make the gate raise
     (``veto-miss`` otherwise), and a veto without a decided finding is
     ``veto-spurious``;
   * a post-transform veto means the rewrite itself introduced a race
     (``transform-introduced-race``);
   * when the analyzer's full verdict (static + replay) is ``clean`` and
     the pass transformed something, the transformed kernel must
     reproduce the original outputs bit-for-bit
     (``transform-semantics`` otherwise — the paper's Eq. 3 soundness);
   * every rejected candidate must be *explained*: confirmed by an
     analyzer finding, covered by a structured deferral, or a named
     structural reason — never a bare skip.

The result is an :class:`OracleOutcome`: either ``agree`` or a list of
named :class:`Mismatch` records, plus structured explanations for
everything that was deliberately not checked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis import RaceDetected, analyze_kernel
from repro.core.grover import GroverError, PatternMismatch
from repro.frontend import FrontendError
from repro.fuzz.generate import FuzzCase
from repro.ir.verifier import VerificationError
from repro.parallel.diff import trace_mismatch
from repro.perf import devices
from repro.perf.timing import estimate_cost
from repro.runtime import Memory, launch
from repro.runtime.errors import (
    BarrierDivergenceError,
    MemoryFault,
    RuntimeLaunchError,
)
from repro.session import Session, events

__all__ = ["BACKENDS", "Mismatch", "OracleOutcome", "run_case", "run_source"]

#: the execution arbiters, reference first
BACKENDS = ("reference", "tape")

#: cycle model used for the cost comparison (any device works — the
#: contract is equality across backends, not a particular number)
_DEVICE = devices.SNB


@dataclass(frozen=True)
class Mismatch:
    """One named cross-arbiter disagreement."""

    check: str  # 'exec-diff' | 'exec-error-diff' | 'veto-miss' | ...
    detail: str

    def render(self) -> str:
        return f"{self.check}: {self.detail}"


@dataclass
class OracleOutcome:
    """Everything the oracle decided about one kernel."""

    exec_outcome: str = ""  # 'ok' | 'error:<ExcType>'
    analyzer: str = ""  # verdict, '+deferred' when deferrals exist(ed)
    deferral_categories: Tuple[str, ...] = ()
    grover: str = ""  # 't<N>r<M>' | 'veto' | 'no-local' | ...
    evictions: int = 0
    cycles: float = 0.0
    mismatches: List[Mismatch] = field(default_factory=list)
    explanations: List[str] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        return not self.mismatches

    @property
    def outcome_label(self) -> str:
        return "agree" if self.agreed else "mismatch"


def input_data(in_elems: int) -> np.ndarray:
    """Deterministic input pattern — a function of the size only, so a
    committed corpus entry replays without storing its data."""
    return ((np.arange(in_elems, dtype=np.float32) % 13.0) + 1.0).astype(
        np.float32
    )


def _evictions(sink: events.CollectorSink) -> int:
    return sum(
        int(e.payload["evicted"])
        for e in sink.events
        if e.kind == "tape_replay"
    )


def _run_backend(
    backend: str,
    kernel,
    global_size: Sequence[int],
    local_size: Sequence[int],
    in_data: np.ndarray,
    p_value: int,
    corrupt: str = "",
) -> Dict[str, object]:
    """One launch under one backend; never raises for kernel faults."""
    total = int(np.prod(global_size))
    mem = Memory()
    out = mem.alloc(total * 4, "out")
    inb = mem.from_array(in_data, "in")
    exec_s = Session(env={}, exec_backend=backend, tape_batch=256)
    sink = events.CollectorSink()
    events.attach(sink)
    try:
        with exec_s.activate():
            res = launch(
                kernel,
                tuple(global_size),
                tuple(local_size),
                {"out": out, "in": inb, "P": p_value},
                memory=mem,
                collect_trace=True,
            )
    except (BarrierDivergenceError, MemoryFault, RuntimeLaunchError) as exc:
        return {
            "error": type(exc).__name__,
            "detail": str(exc),
            "evicted": _evictions(sink),
        }
    finally:
        events.detach(sink)
    outputs = out.read(np.float32, total).copy()
    if corrupt == backend:
        # fault injection (tests/CLI drills): flip one output bit so the
        # minimizer and reproducer plumbing can be exercised on demand
        raw = outputs.view(np.uint8)
        raw[-1] ^= 1
    return {
        "error": "",
        "trace": res.trace,
        "out": outputs,
        "evicted": _evictions(sink),
    }


def run_case(case: FuzzCase, corrupt: str = "") -> OracleOutcome:
    return run_source(
        case.source(),
        case.kernel_name,
        case.global_size,
        case.local_size,
        case.in_elems,
        case.p_value,
        corrupt=corrupt,
    )


def run_source(
    source: str,
    kernel_name: str,
    global_size: Sequence[int],
    local_size: Sequence[int],
    in_elems: int,
    p_value: int,
    corrupt: str = "",
) -> OracleOutcome:
    """Judge one kernel source with all three arbiters (see module doc)."""
    out = OracleOutcome()
    session = Session(env={})
    try:
        session.compile_kernel(source, kernel_name)
    except FrontendError as exc:
        out.exec_outcome = "error:FrontendError"
        out.mismatches.append(Mismatch("frontend-error", str(exc)))
        return out

    in_data = input_data(in_elems)

    # -- 1. reference-vs-tape differential execution -----------------------
    runs: Dict[str, Dict[str, object]] = {}
    for backend in BACKENDS:
        kernel = session.compile_kernel(source, kernel_name)
        runs[backend] = _run_backend(
            backend, kernel, global_size, local_size, in_data, p_value,
            corrupt=corrupt,
        )
    out.evictions = sum(int(r["evicted"]) for r in runs.values())

    errors = {b: str(r["error"]) for b, r in runs.items()}
    if any(errors.values()):
        if len(set(errors.values())) != 1:
            out.exec_outcome = "error:mixed"
            out.mismatches.append(
                Mismatch(
                    "exec-error-diff",
                    "backends disagree on the outcome: "
                    + ", ".join(
                        f"{b}={e or 'ok'}" for b, e in sorted(errors.items())
                    ),
                )
            )
        else:
            out.exec_outcome = f"error:{errors['reference']}"
            if errors["reference"] == "MemoryFault":
                # the grammar promises in-bounds indices; a fault — even a
                # consistent one — means the generator broke its contract
                out.mismatches.append(
                    Mismatch(
                        "generator-bounds",
                        str(runs["reference"]["detail"]),
                    )
                )
    else:
        out.exec_outcome = "ok"
        ref = runs["reference"]
        ca = estimate_cost(ref["trace"], _DEVICE).cycles
        for backend in BACKENDS[1:]:
            why = trace_mismatch(ref["trace"], runs[backend]["trace"])
            if why is not None:
                out.mismatches.append(
                    Mismatch("exec-diff", f"{backend}: trace mismatch at {why}")
                )
                continue
            a = np.asarray(ref["out"]).view(np.uint8)
            b = np.asarray(runs[backend]["out"]).view(np.uint8)
            if not np.array_equal(a, b):
                first = int(np.nonzero(a != b)[0][0]) // 4
                out.mismatches.append(
                    Mismatch(
                        "exec-diff",
                        f"{backend}: outputs differ from reference "
                        f"(first at out[{first}])",
                    )
                )
                continue
            cb = estimate_cost(runs[backend]["trace"], _DEVICE).cycles
            if ca != cb:
                out.mismatches.append(
                    Mismatch(
                        "exec-diff",
                        f"{backend}: model cycles {cb} != reference {ca}",
                    )
                )
        out.cycles = float(ca)

    # -- 2. analyzer vs runtime --------------------------------------------
    ref_trace = runs["reference"].get("trace") if out.exec_outcome == "ok" else None
    static = analyze_kernel(
        session.compile_kernel(source, kernel_name), tuple(local_size)
    )
    if ref_trace is not None:
        pre = analyze_kernel(
            session.compile_kernel(source, kernel_name),
            tuple(local_size),
            ref_trace,
        )
    else:
        pre = static
    deferrals = list(pre.deferrals) + list(pre.deferrals_resolved)
    out.analyzer = pre.verdict + ("+deferred" if deferrals else "")
    out.deferral_categories = tuple(sorted({d.category for d in deferrals}))
    for d in pre.deferrals:
        out.explanations.append(d.render())

    if out.exec_outcome == "error:BarrierDivergenceError" and not static.divergences:
        out.mismatches.append(
            Mismatch(
                "divergence-miss",
                "runtime raised BarrierDivergenceError but the static "
                "analyzer reports no divergent barrier",
            )
        )

    # -- 3. Grover through the analyze veto gate ---------------------------
    static_blocking = bool(static.races or static.divergences)
    gkernel = session.compile_kernel(source, kernel_name)
    veto_s = Session(env={}, analyze=True)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = veto_s.disable_local_memory(
                gkernel, local_size=tuple(local_size), allow_partial=True
            )
    except RaceDetected as exc:
        if "post-transform" in str(exc):
            out.grover = "veto-post"
            out.mismatches.append(
                Mismatch("transform-introduced-race", str(exc))
            )
        else:
            out.grover = "veto"
            if not static_blocking:
                out.mismatches.append(
                    Mismatch(
                        "veto-spurious",
                        f"gate vetoed without a decided static finding: {exc}",
                    )
                )
            else:
                out.explanations.append(f"veto-confirmed: {exc}")
    except PatternMismatch:
        out.grover = "no-local"
        out.explanations.append("grover: kernel uses no local memory")
    except GroverError as exc:
        out.grover = "grover-error"
        out.mismatches.append(
            Mismatch(
                "grover-error",
                f"allow_partial pass still raised {type(exc).__name__}: {exc}",
            )
        )
    except VerificationError as exc:
        # the pass produced ill-formed IR — the exact bug class that led
        # to _check_clone_operands; file it, never crash the campaign
        out.grover = "grover-verifier"
        out.mismatches.append(Mismatch("grover-verifier", str(exc)))
    else:
        nt, nr = len(report.transformed), len(report.rejected)
        out.grover = f"t{nt}r{nr}"
        if static_blocking:
            out.mismatches.append(
                Mismatch(
                    "veto-miss",
                    "decided static race/divergence but the analyze gate "
                    "let the transformation run: "
                    + "; ".join(
                        f.render() for f in static.races + static.divergences
                    ),
                )
            )
        for r in report.rejected:
            if pre.findings_on(r.name):
                out.explanations.append(
                    f"rejected-confirmed {r.name!r}: {r.reason}"
                )
            elif pre.deferrals_on(r.name):
                out.explanations.append(
                    f"rejected-deferred {r.name!r}: {r.reason}"
                )
            else:
                out.explanations.append(
                    f"rejected-structural {r.name!r}: {r.reason}"
                )
        if nt and out.exec_outcome == "ok" and pre.verdict == "clean":
            _check_transform_semantics(
                out, gkernel, global_size, local_size, in_data, p_value,
                np.asarray(runs["reference"]["out"]),
            )
        elif nt and pre.verdict != "clean":
            out.explanations.append(
                f"transform-unverified: analyzer verdict {pre.verdict!r} "
                "voids Grover's precondition, outputs not compared"
            )
    return out


def _check_transform_semantics(
    out: OracleOutcome,
    transformed_kernel,
    global_size: Sequence[int],
    local_size: Sequence[int],
    in_data: np.ndarray,
    p_value: int,
    ref_out: np.ndarray,
) -> None:
    """A clean kernel's Grover rewrite must be observationally identical."""
    total = int(np.prod(global_size))
    mem = Memory()
    outb = mem.alloc(total * 4, "out")
    inb = mem.from_array(in_data, "in")
    try:
        with Session(env={}, exec_backend="reference").activate():
            launch(
                transformed_kernel,
                tuple(global_size),
                tuple(local_size),
                {"out": outb, "in": inb, "P": p_value},
                memory=mem,
            )
    except (BarrierDivergenceError, MemoryFault, RuntimeLaunchError) as exc:
        out.mismatches.append(
            Mismatch(
                "transform-semantics",
                f"transformed kernel raised {type(exc).__name__}: {exc}",
            )
        )
        return
    got = outb.read(np.float32, total)
    if not np.array_equal(
        got.view(np.uint8), np.asarray(ref_out).view(np.uint8)
    ):
        first = int(
            np.nonzero(got.view(np.uint8) != ref_out.view(np.uint8))[0][0]
        ) // 4
        out.mismatches.append(
            Mismatch(
                "transform-semantics",
                "transformed kernel diverges from the original on a "
                f"race-free kernel (first at out[{first}])",
            )
        )
