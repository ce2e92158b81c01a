"""Command-line driver: ``python -m repro.cli kernel.cl [options]``.

Runs the Grover pass over an OpenCL C file and prints the before/after
IR plus the Table-III style index report — the workflow of the paper's
Fig. 9 pipeline from the terminal.

Subcommands:

* ``python -m repro.cli matrix [...]`` — the (app × device) experiment
  matrix (Table IV / Fig. 10 / extension-GPU scoring), optionally
  fanned out with ``--workers N`` (see :func:`repro.experiments.grid`).
* ``python -m repro.cli passes [...]`` — list the compile pipeline's
  stages and the rewrite rules, or run the pipeline over a source file
  and print per-pass rewrite counts, instruction deltas and wall time
  (see :mod:`repro.session.passes`).
* ``python -m repro.cli analyze [...]`` — the static/dynamic race and
  barrier-divergence analyzer over registered apps and/or ``.cl``
  files, with ``--golden`` verdict pinning for CI
  (see :mod:`repro.analysis`).
* ``python -m repro.cli fuzz [...]`` — the generative differential
  fuzzer: seeded random kernels judged by the reference and tape backends,
  the race analyzer and the Grover pass at once, with delta-minimized
  reproducers and corpus promotion (see :mod:`repro.fuzz`).
* ``python -m repro.cli search [...]`` — deterministic beam search over
  rewrite-rule pipelines, scored by the trace-driven perf model and
  verified by the analyzer + reference-vs-tape differential runner
  (see :mod:`repro.search`).

Every subcommand (and the default kernel command) accepts ``--config
FILE`` (a JSON session config, see :mod:`repro.session.config`) and
``--trace-out PATH`` (structured JSONL event stream).  Bad arguments —
an unreadable file, a source that does not parse or lower, a
non-positive count, a malformed ``--local-size``, a ``--kernel`` the
file does not define, an ``--arrays`` name the kernel does not declare
``__local`` — are usage errors: exit 2, no traceback.  So is a bad
configuration (an unknown ``REPRO_*`` variable, a value outside a
variable's choices, a broken ``--config`` file): one ``error:`` line on
stderr naming the variable, exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Tuple

from repro.core import GroverError
from repro.core.candidates import UnknownArrayError
from repro.frontend import FrontendError
from repro.ir.function import UnknownKernelError
from repro.ir.printer import print_function
from repro.session.config import ConfigError


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="grover",
        description="Disable local memory usage in an OpenCL kernel (ICPP'14).",
    )
    p.add_argument("file", help="OpenCL C source file")
    p.add_argument("--kernel", help="kernel name (default: the only kernel)")
    p.add_argument(
        "-D",
        dest="defines",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="preprocessor definition (repeatable)",
    )
    p.add_argument(
        "--arrays",
        help="comma-separated local arrays to remove (default: all)",
    )
    p.add_argument(
        "--keep-barriers",
        action="store_true",
        help="do not strip barriers after the rewrite",
    )
    p.add_argument(
        "--before",
        action="store_true",
        help="also print the IR before the transformation",
    )
    p.add_argument(
        "--local-size",
        default=None,
        type=parse_size,
        metavar="LX[,LY[,LZ]]",
        help="work-group geometry for the $REPRO_ANALYZE race/divergence "
        "gate (without it, undecidable access pairs only warn)",
    )
    add_session_flags(p)
    return p


def add_session_flags(p: argparse.ArgumentParser) -> None:
    """The two session flags every subcommand shares."""
    p.add_argument(
        "--config",
        default=None,
        help="JSON session config file (see repro.session.config)",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        help="write structured events as JSONL to this path",
    )


def add_golden_flags(p: argparse.ArgumentParser, what: str) -> None:
    """``--golden FILE`` and ``--update-golden``, which pin ``what`` in
    CI (see :func:`repro.reporting.check_golden`)."""
    p.add_argument("--golden", metavar="FILE", default=None,
                   help=f"compare the {what} against FILE, exit 1 on drift; "
                   "with --update-golden or $REPRO_UPDATE_GOLDEN=1, "
                   "rewrite FILE instead")
    p.add_argument("--update-golden", action="store_true",
                   help=f"rewrite --golden FILE with the current {what}")


def require_golden_file(p: argparse.ArgumentParser, args) -> None:
    """``p.error`` (exit 2) for ``--update-golden`` without ``--golden``:
    there is no file to rewrite."""
    if args.update_golden and not args.golden:
        p.error("--update-golden requires --golden FILE")


def parse_size(text: str) -> Tuple[int, ...]:
    """An NDRange size ``X[,Y[,Z]]`` (``x`` also separates), as an
    argparse ``type=``: anything else is a usage error."""
    try:
        dims = tuple(int(t) for t in text.replace("x", ",").split(","))
    except ValueError:
        dims = ()
    if not 1 <= len(dims) <= 3 or min(dims) < 1:
        raise argparse.ArgumentTypeError(
            f"expected 1 to 3 positive integers X[,Y[,Z]], got {text!r}"
        )
    return dims


def require_positive(p: argparse.ArgumentParser, *flags) -> None:
    """``p.error`` (exit 2) for any ``(flag, value)`` pair whose value is
    set but below 1."""
    for flag, value in flags:
        if value is not None and value < 1:
            p.error(f"{flag} must be a positive integer, got {value}")


def read_source(p: argparse.ArgumentParser, path: str) -> str:
    """The text of ``path``, or ``p.error`` when it cannot be read."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        p.error(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        p.error(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def passes_main(argv=None) -> int:
    """``repro passes``: list the compile pipeline's stages and the
    rewrite rules, or run the pipeline over a source file and print
    per-stage statistics."""
    from repro.rules import RULE_REGISTRY
    from repro.session import session_from_flags
    from repro.session.passes import DEFAULT_PIPELINE, STAGES, run_pipeline

    p = argparse.ArgumentParser(
        prog="repro passes",
        description="List the compile pipeline's stages and the rewrite "
        "rules, or run the pipeline over an OpenCL C file and report "
        "per-stage rewrite counts, instruction deltas and wall time.",
    )
    p.add_argument("--run", metavar="FILE", default=None,
                   help="compile FILE unoptimised, then run the pipeline "
                   "and print per-pass statistics")
    p.add_argument("--kernel", default=None,
                   help="with --run: kernel name (default: the only kernel)")
    p.add_argument("-D", dest="defines", action="append", default=[],
                   metavar="NAME=VALUE", help="preprocessor definition")
    add_session_flags(p)
    args = p.parse_args(argv)

    from repro.reporting import ascii_table

    if args.run is None:
        print(ascii_table(
            ["pass", "description"],
            [[name, description] for name, (_, description) in STAGES.items()],
            title=f"compile pipeline: {' -> '.join(DEFAULT_PIPELINE)}",
        ))
        print()
        print("rewrite rules (applied by repro search):")
        for rule in RULE_REGISTRY.values():
            print(f"  {rule.name}: {rule.description}")
            print(f"    arbiter:  {rule.legality_arbiter}")
            print(f"    legality: {rule.legality}")
        return 0

    defines = {}
    for d in args.defines:
        name, _, value = d.partition("=")
        defines[name] = value or "1"
    source = read_source(p, args.run)
    with session_from_flags(args.config, args.trace_out) as session:
        # the lowered IR (no pipeline yet), so the per-pass stats show
        # what each pass actually does, not an idempotent re-run
        try:
            module = session.compile_source(
                source, defines, module_name=args.run, optimize=False, cache=False
            )
            kernel = module.kernel(args.kernel)
        except (FrontendError, UnknownKernelError) as exc:
            p.error(str(exc))
        with session.activate():
            results = run_pipeline(kernel, verify_between=True)
    rows = [
        [r.pass_name, r.rewrites, r.insts_before, r.insts_after,
         f"{r.wall_s * 1e3:.3f}"]
        for r in results
    ]
    print(ascii_table(
        ["pass", "rewrites", "insts before", "insts after", "wall ms"], rows,
        title=f"pipeline over {kernel.name} ({args.run})",
    ))
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return _dispatch(list(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(argv) -> int:
    if argv and argv[0] == "matrix":
        from repro.experiments import main as matrix_main

        return matrix_main(list(argv[1:]))
    if argv and argv[0] == "passes":
        return passes_main(list(argv[1:]))
    if argv and argv[0] == "analyze":
        from repro.analysis.cli import main as analyze_main

        return analyze_main(list(argv[1:]))
    if argv and argv[0] == "fuzz":
        from repro.fuzz.runner import main as fuzz_main

        return fuzz_main(list(argv[1:]))
    if argv and argv[0] == "search":
        from repro.search import main as search_main

        return search_main(list(argv[1:]))
    p = build_parser()
    args = p.parse_args(argv)
    source = read_source(p, args.file)
    defines = {}
    for d in args.defines:
        name, _, value = d.partition("=")
        defines[name] = value or "1"

    from repro.session import session_from_flags

    with session_from_flags(args.config, args.trace_out) as session:
        try:
            kernel = session.compile_kernel(source, args.kernel, defines=defines)
        except (FrontendError, UnknownKernelError) as exc:
            p.error(str(exc))

        if args.before:
            print("; ---- before Grover ----")
            print(print_function(kernel))
            print()

        arrays = args.arrays.split(",") if args.arrays else None
        try:
            # through the session so the $REPRO_ANALYZE race/divergence
            # veto gate applies (RaceDetected is a GroverError)
            report = session.disable_local_memory(
                kernel,
                local_size=args.local_size,
                arrays=arrays,
                remove_barriers=not args.keep_barriers,
            )
        except UnknownArrayError as exc:
            p.error(str(exc))
        except GroverError as exc:
            print(
                f"grover: cannot disable local memory: {exc}", file=sys.stderr
            )
            return 2

    print(report)
    print()
    print("; ---- after Grover ----")
    print(print_function(kernel))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
