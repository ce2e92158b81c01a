"""``repro analyze``: run the race / divergence analyzer from the shell.

Targets are registered app ids (``--apps`` / ``--all-apps``) and/or
``.cl`` source files.  Each analyzed kernel prints one stable summary
line; ``--golden FILE`` compares the lines against a checked-in golden
summary and exits non-zero on drift (CI's ``analyze`` smoke job), and
``--update-golden`` (or ``$REPRO_UPDATE_GOLDEN=1``) rewrites it, by the
rules of :func:`repro.reporting.check_golden`, which ``repro search
--golden`` shares.

Examples::

    python -m repro.cli analyze --all-apps --variant both
    python -m repro.cli analyze examples/racy_halo.cl \
        --global-size 256 --local-size 64
    python -m repro.cli analyze --all-apps --variant both \
        examples/racy_halo.cl examples/divergent_barrier.cl \
        --global-size 256 --local-size 64 --golden tests/golden/analyze.txt
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.frontend import FrontendError
from repro.ir.function import UnknownKernelError
from repro.runtime.errors import MemoryFault, RuntimeLaunchError

from repro.analysis.driver import analyze_app, analyze_source


def _parse_scalar(text: str):
    try:
        return int(text, 0)
    except ValueError:
        return float(text)


def _positive_int(text: str) -> int:
    """argparse ``type=``: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _named(convert: Callable[[str], object], what: str) -> Callable[[str], Tuple[str, object]]:
    """argparse ``type=`` for ``NAME=VALUE``, the value read by ``convert``."""

    def parse(text: str) -> Tuple[str, object]:
        name, sep, value = text.partition("=")
        try:
            if name and sep:
                return name, convert(value)
        except (ValueError, argparse.ArgumentTypeError):
            pass
        raise argparse.ArgumentTypeError(f"expected NAME={what}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    from repro.apps.registry import SCALES
    from repro.cli import add_golden_flags, add_session_flags, parse_size

    p = argparse.ArgumentParser(
        prog="repro analyze",
        description="Static + dynamic race and barrier-divergence analysis "
        "of OpenCL kernels (the independent arbiter of Grover legality).",
    )
    p.add_argument("files", nargs="*", help="OpenCL C source files to analyze")
    p.add_argument("--apps", default=None,
                   help="comma-separated registered app ids (e.g. AMD-MM)")
    p.add_argument("--all-apps", action="store_true",
                   help="analyze every registered application")
    p.add_argument("--variant", default="with",
                   choices=("with", "without", "both"),
                   help="app variant(s): original, Grover-transformed, or both")
    p.add_argument("--scale", default="test", choices=SCALES,
                   help="app problem scale for the trace replay (default: test)")
    p.add_argument("--static-only", action="store_true",
                   help="skip kernel execution / dynamic trace replay")
    p.add_argument("--kernel", default=None,
                   help="kernel name within a source file (default: the only one)")
    p.add_argument("-D", dest="defines", action="append", default=[],
                   metavar="NAME=VALUE", help="preprocessor definition")
    p.add_argument("--global-size", default=None, type=parse_size,
                   metavar="GX[,GY[,GZ]]",
                   help="NDRange global size for source-file targets")
    p.add_argument("--local-size", default=None, type=parse_size,
                   metavar="LX[,LY[,LZ]]",
                   help="work-group size for source-file targets")
    p.add_argument("--arg", dest="scalar_args", action="append", default=[],
                   type=_named(_parse_scalar, "NUMBER"), metavar="NAME=VALUE",
                   help="scalar kernel argument for source-file targets")
    p.add_argument("--local-arg", dest="local_args", action="append", default=[],
                   type=_named(_positive_int, "BYTES"), metavar="NAME=BYTES",
                   help="byte size of a __local pointer argument")
    p.add_argument("--buffer-bytes", type=_positive_int, default=None,
                   help="size of each synthetic global buffer "
                   "(default: 16 bytes per work-item)")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="print every finding, not just the summary lines")
    add_golden_flags(p, "summary lines")
    add_session_flags(p)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.cli import read_source, require_golden_file
    from repro.reporting import check_golden

    p = build_parser()
    args = p.parse_args(argv)
    require_golden_file(p, args)
    if not args.files and not args.apps and not args.all_apps:
        print("error: nothing to analyze (pass files, --apps or --all-apps)",
              file=sys.stderr)
        return 2

    apps = []
    if args.apps or args.all_apps:
        from repro.apps.registry import all_apps

        registry = {app.id: app for app in all_apps()}
        ids = (
            list(registry) if args.all_apps
            else [i.strip() for i in args.apps.split(",")]
        )
        unknown = [i for i in ids if i not in registry]
        if unknown:
            p.error(f"unknown app id(s): {', '.join(map(repr, unknown))}; "
                    f"registry ids: {', '.join(registry)}")
        apps = [registry[i] for i in ids]

    defines: Dict[str, object] = {}
    for d in args.defines:
        name, _, value = d.partition("=")
        defines[name] = value or "1"
    scalar_args = dict(args.scalar_args)
    local_args = dict(args.local_args)
    sources = [(path, read_source(p, path)) for path in args.files]

    from repro.session import session_from_flags

    reports = []  # (label, AnalysisReport)
    with session_from_flags(args.config, args.trace_out) as session:
        with session.activate():
            variants = (
                ["with", "without"] if args.variant == "both" else [args.variant]
            )
            for app in apps:
                for variant in variants:
                    label = f"{app.id}/{variant}"
                    rep = analyze_app(
                        app, variant, scale=args.scale,
                        execute=not args.static_only,
                    )
                    reports.append((label, rep))
            for path, source in sources:
                label = Path(path).name
                try:
                    rep = analyze_source(
                        source,
                        kernel_name=args.kernel,
                        defines=defines,
                        global_size=args.global_size,
                        local_size=args.local_size,
                        scalar_args=scalar_args,
                        buffer_bytes=args.buffer_bytes,
                        local_arg_sizes=local_args or None,
                        execute=not args.static_only,
                        label=label,
                    )
                except (
                    FrontendError, UnknownKernelError, RuntimeLaunchError, MemoryFault
                ) as exc:
                    p.error(f"{path}: {exc}")
                reports.append((label, rep))
        update = args.update_golden or bool(session.get("update_golden"))

    lines = [rep.summary_line(label) for label, rep in reports]
    for (label, rep), line in zip(reports, lines):
        print(line)
        if args.verbose:
            for f in rep.findings:
                print(f"    {f.render()}")

    if args.golden:
        return check_golden(args.golden, "\n".join(lines) + "\n", update)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
